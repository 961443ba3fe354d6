package ppvindex_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"fastppv/internal/core"
	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
)

// lifetimeGraph is the graph the lifetime tests serve: built anew at every
// call, so a replica engine never shares it.
func lifetimeGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 400, OutDegreeMean: 5, Attachment: 0.8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// diskEngine precomputes 40 hubs of g into a disk store with the given block
// cache budget (negative: none) and no automatic compaction. The caller
// closes the store: a cleanup that did would wait forever behind a Compact
// that hung.
func diskEngine(t *testing.T, g *graph.Graph, cacheBytes int64) (*ppvindex.Store, *core.Engine) {
	t.Helper()
	store, err := ppvindex.CreateStore(filepath.Join(t.TempDir(), "index.ppv"), bindingOf(g),
		ppvindex.StoreOptions{BlockCacheBytes: cacheBytes, CompactThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(g, store, core.Options{NumHubs: 40})
	if err == nil {
		err = engine.Precompute()
	}
	if err != nil {
		store.Abort()
		t.Fatal(err)
	}
	return store, engine
}

// probeSources is the first n non-hubs of engine and its first n hubs.
func probeSources(engine *core.Engine, n int) []graph.NodeID {
	hubs := engine.Hubs()
	var sources []graph.NodeID
	for q := graph.NodeID(0); len(sources) < n; q++ {
		if !hubs.Contains(q) {
			sources = append(sources, q)
		}
	}
	return append(sources, hubs.Hubs()[:n]...)
}

// settledUnmapped runs GC rounds until two in a row release no mapping, and
// returns the unmap count: what a test's own generations add comes on top.
func settledUnmapped() int64 {
	n, still := ppvindex.Unmapped(), 0
	for i := 0; i < 100 && still < 2; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond) // cleanups run on a goroutine of their own
		if m := ppvindex.Unmapped(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// collect runs GC rounds until every generation in gens is collected and, on
// a mapped index, the unmap count has reached base plus their number; it
// fails the test after 10s.
func collect(t *testing.T, what string, base int64, mapped bool, gens ...weak.Pointer[ppvindex.DiskIndex]) {
	t.Helper()
	want := base
	if mapped {
		want += int64(len(gens))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		live := 0
		for _, g := range gens {
			if g.Value() != nil {
				live++
			}
		}
		if live == 0 && ppvindex.Unmapped() >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d of %d generations still reachable and %d mappings released after 10s, want %d",
				what, live, len(gens), ppvindex.Unmapped()-base, want-base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// within runs fn and fails the test if it does not return within a deadline.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return within 10s", what)
	}
}

// sameAnswer reports whether two results are bit-identical.
func sameAnswer(a, b *core.Result) bool {
	return a.L1ErrorBound == b.L1ErrorBound && slices.Equal(a.Entries, b.Entries)
}

// TestRetiredGenerationIsUnmapped: a generation's mapping lives while
// something reads it. On a disk engine, with and without a block cache,
// queries, an update and a compaction run while a query started before them
// holds its version. Forced GC rounds leave that version's generation mapped,
// and the held query then answers bit-identically to the same query run
// before the update. Once it is dropped, GC rounds unmap the generation.
func TestRetiredGenerationIsUnmapped(t *testing.T) {
	for _, c := range []struct {
		name       string
		cacheBytes int64
	}{{"nocache", -1}, {"blockcache", 1 << 20}} {
		t.Run(c.name, func(t *testing.T) {
			base := settledUnmapped()
			store, engine := diskEngine(t, lifetimeGraph(t), c.cacheBytes)
			mapped := store.Generation().MmapActive()
			sources := probeSources(engine, 5)
			stop := core.StopCondition{MaxIterations: 3}
			query := func() {
				t.Helper()
				for eta := 0; eta <= 3; eta++ {
					for _, q := range sources {
						if _, err := engine.Query(q, core.StopCondition{MaxIterations: eta}); err != nil {
							t.Fatalf("query %d at eta %d: %v", q, eta, err)
						}
					}
				}
			}

			query()
			want, err := engine.Query(sources[0], stop)
			if err != nil {
				t.Fatal(err)
			}
			held, err := engine.NewQuery(sources[0])
			if err != nil {
				t.Fatal(err)
			}
			first := weak.Make(store.Generation())
			if _, err := engine.ApplyUpdate(core.GraphUpdate{AddedEdges: []graph.Edge{{From: engine.Hubs().Hubs()[0], To: sources[0]}}}); err != nil {
				t.Fatal(err)
			}
			within(t, "Compact", func() error { _, err := store.Compact(); return err })
			if weak.Make(store.Generation()) == first {
				t.Fatal("the compaction published no new generation")
			}
			query()
			for range 3 {
				runtime.GC()
			}
			if first.Value() == nil {
				t.Fatal("the generation of a held version was collected")
			}
			if got := held.Run(stop); !sameAnswer(got, want) {
				t.Errorf("the held query answered bound %v over %d entries after the compaction, want %v over %d",
					got.L1ErrorBound, len(got.Entries), want.L1ErrorBound, len(want.Entries))
			}
			held.Close()
			held = nil
			collect(t, "once the held version is dropped, the retired generation", base, mapped, first)
			within(t, "Close", store.Close)
		})
	}
}

// TestLeakedViewBlocksNothing takes a view of a base record and never
// releases it: an update, a compaction and Close each still return.
func TestLeakedViewBlocksNothing(t *testing.T) {
	store, engine := diskEngine(t, lifetimeGraph(t), -1)
	h := engine.Hubs().Hubs()[0]
	if _, ok, err := store.GetView(h); err != nil || !ok {
		t.Fatalf("GetView(%d): ok=%v err=%v", h, ok, err)
	}
	within(t, "the update", func() error {
		_, err := engine.ApplyUpdate(core.GraphUpdate{AddedEdges: []graph.Edge{{From: h, To: 7}}})
		return err
	})
	within(t, "Compact", func() error { _, err := store.Compact(); return err })
	within(t, "Close", store.Close)
}

// TestGenerationsUnderLoad runs, for about two seconds, four goroutines that
// query a fixed probe set on a disk engine, a loop of updates with a
// compaction after every third, and a loop of forced GC rounds. Every answer
// is bit-identical to an in-memory replica's at the epoch the query read, and
// at the end every retired generation is unmapped.
func TestGenerationsUnderLoad(t *testing.T) {
	base := settledUnmapped()
	store, engine := diskEngine(t, lifetimeGraph(t), -1)
	defer store.Close()
	mapped := store.Generation().MmapActive()
	replica, err := core.NewEngine(lifetimeGraph(t), nil, core.Options{NumHubs: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Precompute(); err != nil {
		t.Fatal(err)
	}
	probes := probeSources(engine, 4)
	hubs := engine.Hubs().Hubs()
	stop := core.StopCondition{MaxIterations: 3}

	// refs holds the replica's answers to the probes at every epoch; an
	// epoch's are stored before the disk engine publishes it.
	var refs sync.Map
	record := func() {
		answers := make([]*core.Result, len(probes))
		for i, q := range probes {
			res, err := replica.Query(q, stop)
			if err != nil {
				t.Fatal(err)
			}
			answers[i] = res
		}
		refs.Store(replica.Epoch(), answers)
	}
	record()

	done := make(chan struct{})
	errc := make(chan error, 4)
	var wg sync.WaitGroup
	// stopAll also runs when a failure ends the test early.
	stopAll := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stopAll()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				qs, err := engine.NewQuery(probes[i%len(probes)])
				if err != nil {
					errc <- err
					return
				}
				epoch, got := qs.Epoch(), qs.Run(stop)
				qs.Close()
				if want, ok := refs.Load(epoch); !ok || !sameAnswer(got, want.([]*core.Result)[i%len(probes)]) {
					errc <- fmt.Errorf("probe %d answered unlike the replica at epoch %d", probes[i%len(probes)], epoch)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}()

	gens := []weak.Pointer[ppvindex.DiskIndex]{weak.Make(store.Generation())}
	for i, end := 0, time.Now().Add(2*time.Second); time.Now().Before(end); i++ {
		upd := core.GraphUpdate{AddedEdges: []graph.Edge{{From: hubs[i%len(hubs)], To: graph.NodeID(100 + i%300)}}}
		if _, err := replica.ApplyUpdate(upd); err != nil {
			t.Fatal(err)
		}
		record()
		if _, err := engine.ApplyUpdate(upd); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if _, err := store.Compact(); err != nil {
				t.Fatal(err)
			}
			gens = append(gens, weak.Make(store.Generation()))
		}
	}
	stopAll()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if len(gens) < 3 {
		t.Fatalf("only %d compactions ran", len(gens)-1)
	}
	collect(t, "the retired generations", base, mapped, gens[:len(gens)-1]...)
}

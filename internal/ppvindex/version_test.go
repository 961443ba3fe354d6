package ppvindex_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"fastppv/internal/core"
	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
)

func bindingOf(g *graph.Graph) ppvindex.GraphBinding {
	return ppvindex.GraphBinding{Nodes: g.NumNodes(), Edges: g.NumEdges(), Directed: g.Directed()}
}

// TestPrecomputeIsByteReproducible: records reach the index in ascending hub
// order whatever the worker count, so two precomputes of one graph, at
// GOMAXPROCS 1 and 8, write byte-identical disk files and byte-identical
// heap images, and the heap image is the file's bytes.
func TestPrecomputeIsByteReproducible(t *testing.T) {
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 2000, OutDegreeMean: 5, Attachment: 0.8, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{NumHubs: 200}
	build := func(procs int) (file, image []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		path := filepath.Join(t.TempDir(), "index.ppv")
		store, err := ppvindex.CreateStore(path, bindingOf(g), ppvindex.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if e, err := core.NewEngine(g, store, opts); err != nil || e.Precompute() != nil {
			store.Abort()
			t.Fatalf("precompute on disk at GOMAXPROCS %d failed: %v", procs, err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if file, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		mem := ppvindex.NewMemIndex()
		if e, err := core.NewEngine(g, mem, opts); err != nil || e.Precompute() != nil {
			t.Fatalf("precompute in memory at GOMAXPROCS %d failed: %v", procs, err)
		}
		return file, mem.Image()
	}
	file1, image1 := build(1)
	file8, image8 := build(8)
	if !bytes.Equal(file1, file8) {
		t.Errorf("the disk files of two precomputes differ (%d and %d bytes)", len(file1), len(file8))
	}
	if !bytes.Equal(image1, image8) {
		t.Errorf("the heap images of two precomputes differ (%d and %d bytes)", len(image1), len(image8))
	}
	if !bytes.Equal(file1, image1) {
		t.Errorf("the heap image (%d bytes) is not the disk file (%d bytes)", len(image1), len(file1))
	}
}

// TestCompactionPublishesTheEngineVersion: a compaction publishes the engine's
// next version (same graph and epoch, the compacted snapshot), so after it,
// with no update following, nothing reads the generation before it, and
// forced GC rounds unmap it. On a disk engine with and without a block cache,
// after Store.Compact and after the background compaction a commit starts,
// and on an in-memory engine after a commit that folds its overlay (whose
// heap images the GC owns, so only its epoch is checked).
func TestCompactionPublishesTheEngineVersion(t *testing.T) {
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 400, OutDegreeMean: 5, Attachment: 0.8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		memory     bool
		cacheBytes int64
		threshold  int64 // the store's; 1 compacts in the background at every update
	}{
		{"memory", true, 0, 0},
		{"disk-nocache", false, -1, -1},
		{"disk-blockcache", false, 1 << 20, -1},
		{"disk-background", false, 1 << 20, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := settledUnmapped()
			var idx core.IndexStore
			var store *ppvindex.Store
			if c.memory {
				idx = ppvindex.NewMemIndex()
			} else {
				store, err = ppvindex.CreateStore(filepath.Join(t.TempDir(), "index.ppv"), bindingOf(g),
					ppvindex.StoreOptions{BlockCacheBytes: c.cacheBytes, CompactThresholdBytes: c.threshold})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { store.Close() })
				idx = store
			}
			engine, err := core.NewEngine(g, idx, core.Options{NumHubs: 40})
			if err != nil {
				t.Fatal(err)
			}
			if err := engine.Precompute(); err != nil {
				t.Fatal(err)
			}
			hubs := engine.Hubs().Hubs()
			sources := append([]graph.NodeID{0, 1, 2, 3}, hubs[:4]...)
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
			var first weak.Pointer[ppvindex.DiskIndex]
			if store != nil {
				first = weak.Make(store.Generation())
			}
			update := func() {
				t.Helper()
				to := graph.NodeID(7 + engine.Epoch())
				if _, err := engine.ApplyUpdate(core.GraphUpdate{AddedEdges: []graph.Edge{{From: hubs[0], To: to}}}); err != nil {
					t.Fatal(err)
				}
			}
			update()
			switch {
			case c.memory:
				// A batch of every hub's own record folds the overlay.
				mem := idx.(*ppvindex.MemIndex)
				var recs []ppvindex.Record
				for _, h := range mem.Hubs() {
					view, _, _ := mem.GetView(h)
					recs = append(recs, ppvindex.Record{Hub: h, Payload: view.EntryBytes()})
				}
				if _, err := mem.Commit(core.GraphUpdate{}, recs); err != nil {
					t.Fatal(err)
				}
			case c.threshold > 0:
				// Updates until one's commit has started a compaction in the
				// background; once that has published, its hook publishes the
				// engine's version.
				deadline := time.Now().Add(10 * time.Second)
				for ds, _ := store.DurabilityStats(); ds.Compactions == 0; ds, _ = store.DurabilityStats() {
					if time.Now().After(deadline) {
						t.Fatal("no update started a compaction within 10s")
					}
					update()
					time.Sleep(time.Millisecond)
				}
				// At a threshold of 1 every commit is due, so a later update
				// may have started another; Compact refuses to run beside one.
				for _, err := store.Compact(); errors.Is(err, ppvindex.ErrCompactionInProgress); _, err = store.Compact() {
					time.Sleep(time.Millisecond)
				}
			default:
				if _, err := store.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			epoch := engine.Epoch()
			query()
			if store != nil {
				collect(t, "after the compaction, the generation before it", base, store.Generation().MmapActive(), first)
			}
			if c.threshold <= 0 && epoch != 1 {
				t.Errorf("the compaction moved the engine to epoch %d, want 1", epoch)
			}
		})
	}
}

// TestCompactionRacesUpdates runs compactions against a stream of updates:
// whichever publishes last, the engine ends at the last update's epoch over
// the store's state, and after its queries forced GC rounds unmap every
// generation a compaction retired.
func TestCompactionRacesUpdates(t *testing.T) {
	base := settledUnmapped()
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 400, OutDegreeMean: 5, Attachment: 0.8, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	store, err := ppvindex.CreateStore(filepath.Join(t.TempDir(), "index.ppv"), bindingOf(g),
		ppvindex.StoreOptions{BlockCacheBytes: 1 << 20, CompactThresholdBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	engine, err := core.NewEngine(g, store, core.Options{NumHubs: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Precompute(); err != nil {
		t.Fatal(err)
	}
	hubs := engine.Hubs().Hubs()
	const updates = 20
	// gens is every generation the store served, in order; only the one
	// compacting goroutine at a time appends to it.
	gens := []weak.Pointer[ppvindex.DiskIndex]{weak.Make(store.Generation())}
	compact := func() error {
		_, err := store.Compact()
		if gen := weak.Make(store.Generation()); err == nil && gen != gens[len(gens)-1] {
			gens = append(gens, gen)
		}
		return err
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := compact(); err != nil && err != ppvindex.ErrCompactionInProgress {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < updates; i++ {
		from := hubs[i%len(hubs)]
		if _, err := engine.ApplyUpdate(core.GraphUpdate{AddedEdges: []graph.Edge{{From: from, To: graph.NodeID(100 + i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := compact(); err != nil {
		t.Fatal(err)
	}
	for _, q := range append([]graph.NodeID{0, 1}, hubs[:4]...) {
		if _, err := engine.Query(q, core.StopCondition{MaxIterations: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if engine.Epoch() != updates {
		t.Errorf("the engine is at epoch %d, want %d", engine.Epoch(), updates)
	}
	collect(t, "the generations the compactions retired", base, store.Generation().MmapActive(), gens[:len(gens)-1]...)
}

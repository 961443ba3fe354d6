package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/hub"
	"fastppv/internal/ppvindex"
	"fastppv/internal/prime"
	"fastppv/internal/sparse"
)

func socialEngine(t testing.TB, nodes int, seed int64) *Engine {
	t.Helper()
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: nodes, OutDegreeMean: 6, Attachment: 0.8, Seed: seed})
	if err != nil {
		t.Fatalf("SocialGraph: %v", err)
	}
	e, err := NewEngine(g, nil, Options{NumHubs: nodes / 10})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	return e
}

// nonHubSources returns the first n non-hub nodes at or after from.
func nonHubSources(e *Engine, from, n int) []graph.NodeID {
	var out []graph.NodeID
	for q := graph.NodeID(from); len(out) < n && int(q) < e.Graph().NumNodes(); q++ {
		if !e.Hubs().Contains(q) {
			out = append(out, q)
		}
	}
	return out
}

func sameResult(t *testing.T, label string, q graph.NodeID, got, want *Result) {
	t.Helper()
	if got.L1ErrorBound != want.L1ErrorBound || len(got.Estimate) != len(want.Estimate) {
		t.Errorf("%s q=%d: bound %v over %d entries, want %v over %d",
			label, q, got.L1ErrorBound, len(got.Estimate), want.L1ErrorBound, len(want.Estimate))
		return
	}
	for node, score := range want.Estimate {
		if got.Estimate[node] != score {
			t.Errorf("%s q=%d: node %d = %v, want %v", label, q, node, got.Estimate[node], score)
			return
		}
	}
}

// TestInterleavedEnginesShareThePool: queryBufPool is process-wide, so a
// bundle — and the push scratch riding in it — that served a 4 000-node
// engine is handed to a 1 500-node one and back. Every interleaved answer
// must equal the one a fresh engine gives on its own.
func TestInterleavedEnginesShareThePool(t *testing.T) {
	type side struct {
		e    *Engine
		srcs []graph.NodeID
		want []*Result
	}
	stop := StopCondition{MaxIterations: 2}
	var sides []*side
	for _, nodes := range []int{1500, 4000} {
		fresh := socialEngine(t, nodes, 21)
		s := &side{e: socialEngine(t, nodes, 21), srcs: nonHubSources(fresh, nodes/2, 12)}
		s.srcs = append(s.srcs, fresh.Hubs().Hubs()[:2]...)
		for _, q := range s.srcs {
			res, err := fresh.Query(q, stop)
			if err != nil {
				t.Fatalf("fresh Query(%d): %v", q, err)
			}
			s.want = append(s.want, res)
		}
		sides = append(sides, s)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range sides[0].srcs {
					for k := range sides { // small engine, big engine, small engine, ...
						s := sides[(k+w)%2]
						res, err := s.e.Query(s.srcs[i], stop)
						if err != nil {
							t.Errorf("Query(%d): %v", s.srcs[i], err)
							return
						}
						sameResult(t, "interleaved", s.srcs[i], res, s.want[i])
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestApplyUpdateRecordsEqualFreshPrecompute: the records ApplyUpdate rewrites
// come out of the same kernel, clip included, as a Precompute on the updated
// graph — entry for entry — and the pooled scratch follows the graph when the
// batch raises the node count.
func TestApplyUpdateRecordsEqualFreshPrecompute(t *testing.T) {
	e := socialEngine(t, 1500, 9)
	old := e.Graph()
	// Warm the pool at the old size so the update and the queries after it
	// reuse a scratch that is too small for the grown graph.
	for _, q := range nonHubSources(e, 0, 4) {
		if _, err := e.Query(q, StopCondition{MaxIterations: 1}); err != nil {
			t.Fatal(err)
		}
	}
	grown := graph.NodeID(old.NumNodes() + 40)
	stats, err := e.ApplyUpdate(GraphUpdate{
		NumNodes: int(grown) + 1,
		AddedEdges: []graph.Edge{
			{From: 3, To: grown}, {From: grown, To: grown - 1}, {From: grown - 1, To: 7},
			{From: 100, To: 200}, {From: 640, To: 2},
		},
		RemovedEdges: []graph.Edge{{From: 5, To: old.OutNeighbors(5)[0]}},
	})
	if err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	if len(stats.Recomputed) == 0 {
		t.Fatal("the update recomputed no hub; the test needs a different batch")
	}

	opts := e.Options()
	pr := make([]float64, e.Graph().NumNodes())
	for rank, h := range e.Hubs().Hubs() { // pin the same hub set on the updated graph
		pr[h] = 1 - float64(rank)*1e-6
	}
	opts.PageRank, opts.HubPolicy = pr, hub.ByPageRank
	fresh, err := NewEngine(e.Graph(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Precompute(); err != nil {
		t.Fatal(err)
	}
	for _, h := range stats.Recomputed {
		got, ok, err := e.Index().Get(h)
		if err != nil || !ok {
			t.Fatalf("hub %d missing after the update (err %v)", h, err)
		}
		want, _, _ := fresh.Index().Get(h)
		if len(got) != len(want) {
			t.Fatalf("hub %d: %d entries after the update, fresh precompute has %d", h, len(got), len(want))
		}
		for node, score := range want {
			if got[node] != score {
				t.Fatalf("hub %d node %d: %v after the update, fresh precompute %v", h, node, got[node], score)
			}
		}
	}
	for _, q := range []graph.NodeID{grown, grown - 1, 3} {
		a, err := e.Query(q, StopCondition{MaxIterations: 0})
		if err != nil {
			t.Fatalf("Query(%d): %v", q, err)
		}
		b, err := fresh.Query(q, StopCondition{MaxIterations: 0})
		if err != nil {
			t.Fatalf("fresh Query(%d): %v", q, err)
		}
		sameResult(t, "iteration 0 after growth", q, a, b)
	}
}

// totalAlloc returns the bytes allocated so far by this process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestAllocationCeilings is the tier-1 gate that holds the flat kernel's
// allocation cut, and the push precision rule's, in place. The ceilings sit
// ~25 % above what this commit measures on a 5 000-node SocialGraph with 500
// hubs: ~41 KB an Engine.Query, which builds the estimate both as sorted
// entries and as the public map; 0.62 KB a query served the way the server
// runs it (NewQuery, then Serve ranking TopKEntries(10) from the pooled
// estimate — no copy of it; the ceiling was set at 0.82 KB, when the query
// also cloned the list of hubs it expanded, and is far below the 15.8 KB of
// the Run, Close and TopK(10) it replaced); 12.9 KB
// a shard leg (PartialRootSorted on a non-hub node, its frontier pruned by
// delta, then PartialExpand of that frontier — sorted slices only); 0.91 MB a
// Precompute (the precompute ceiling was 1.14 MB while a Precompute also
// built an overlay map and packed it into an arena, 0.93 MB; it now collects
// its records and copies them once into one exact-size heap image). With
// every push at epsilon = 1e-8 rather than Clip/100 the
// same four measured ~84 KB, 30.3 KB, ~23 KB and 1.09 MB; the map-based push
// measured 407 KB a query and 147 MB a Precompute.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled bundles at random under the race detector")
	}
	const (
		queryCeiling      = 52_000    // bytes per non-hub Engine.Query at eta=2
		servingCeiling    = 1_200     // bytes per non-hub served query at eta=2
		partialCeiling    = 16_000    // bytes per non-hub root partial plus one expansion
		precomputeCeiling = 1_130_000 // bytes per Precompute
	)
	// Precompute runs a worker per GOMAXPROCS, each owning one push scratch;
	// the precompute ceiling counts two, whatever the host.
	procs := runtime.GOMAXPROCS(2)
	before := totalAlloc()
	e := socialEngine(t, 5000, 17)
	precompute := totalAlloc() - before
	runtime.GOMAXPROCS(procs)
	// socialEngine's graph generation is inside the window; measure it alone.
	before = totalAlloc()
	if _, err := gen.SocialGraph(gen.SocialConfig{Nodes: 5000, OutDegreeMean: 6, Attachment: 0.8, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	precompute -= totalAlloc() - before

	srcs := nonHubSources(e, 2000, 64)
	stop := StopCondition{MaxIterations: 2}
	// perQuery runs query over every source twice — once to warm the pooled
	// bundle — and returns the bytes allocated per query by the second pass.
	perQuery := func(query func(q graph.NodeID) error) uint64 {
		run := func() {
			for _, q := range srcs {
				if err := query(q); err != nil {
					t.Fatal(err)
				}
			}
		}
		run()
		before := totalAlloc()
		run()
		return (totalAlloc() - before) / uint64(len(srcs))
	}
	// A collection empties sync.Pool, and re-growing the bundle would be
	// charged to whichever query came next; keep the window GC-free.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	public := perQuery(func(q graph.NodeID) error {
		_, err := e.Query(q, stop)
		return err
	})
	served := perQuery(func(q graph.NodeID) error {
		qs, err := e.NewQuery(q)
		if err != nil {
			return err
		}
		qs.Serve(stop, func(estimate []sparse.Entry) {
			sparse.TopKEntries(estimate, 10)
		})
		return nil
	})
	partial := perQuery(func(q graph.NodeID) error {
		root, err := e.PartialRootSorted(q)
		if err != nil {
			return err
		}
		_, err = e.PartialExpand(root.FrontierNodes, root.FrontierScores)
		return err
	})

	t.Logf("non-hub Engine.Query: %d B; served query: %d B; shard leg: %d B; precompute: %d B", public, served, partial, precompute)
	if public > queryCeiling {
		t.Errorf("a non-hub Engine.Query at eta=2 allocates %d B, ceiling %d B", public, queryCeiling)
	}
	if served > servingCeiling {
		t.Errorf("a non-hub served query at eta=2 allocates %d B, ceiling %d B", served, servingCeiling)
	}
	if partial > partialCeiling {
		t.Errorf("a non-hub root partial plus one expansion of its frontier allocates %d B, ceiling %d B", partial, partialCeiling)
	}
	if precompute > precomputeCeiling {
		t.Errorf("Precompute allocates %d B, ceiling %d B", precompute, precomputeCeiling)
	}
}

// heapAlloc returns the live heap after two full collections: the second
// frees what the first only moved to sync.Pool's victim cache, so pooled
// buffers an earlier test left behind count on neither side.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMemIndexHeapAndViewCost is the gate on what the packed in-memory index
// buys: after a Precompute on the 5 000-node SocialGraph everything the engine
// retains — the index's heap image (records, directory and footer) and the
// directory's hubs above all, plus the hub set and the engine itself — is at
// most 1.12 times the index's serialized size (1.08 times, measured; 1.06
// with a payload arena behind a hubs/offsets directory; 1.25 when every
// record was its own buffer in a map), and reading a record back as a view
// allocates nothing, whether the record sits in the image or in the overlay a
// rewrite put it in.
func TestMemIndexHeapAndViewCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are charged to the heap")
	}
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 5000, OutDegreeMean: 6, Attachment: 0.8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	before := heapAlloc()
	e, err := NewEngine(g, nil, Options{NumHubs: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	after := heapAlloc()
	retained := int64(after) - int64(before)
	size := e.Index().SizeBytes()
	t.Logf("engine retains %d B for an index of %d B (%.2fx)", retained, size, float64(retained)/float64(size))
	if retained*100 > 112*size {
		t.Errorf("the precomputed engine retains %d B of heap, more than 1.12 times its index's %d B", retained, size)
	}

	// Rewrite one hub with its own record: it moves to the overlay, far
	// below the share that would repack.
	mem := e.Index().(*ppvindex.MemIndex)
	hubs := mem.Hubs()
	rewritten, packed := hubs[0], hubs[1]
	view, _, _ := mem.GetView(rewritten)
	if err := mem.PutEncoded(rewritten, append([]byte(nil), view.EntryBytes()...)); err != nil {
		t.Fatal(err)
	}
	for _, h := range []graph.NodeID{packed, rewritten} {
		allocs := testing.AllocsPerRun(200, func() {
			view, ok, err := mem.GetView(h)
			if err != nil || !ok || view.Len() == 0 {
				t.Fatalf("GetView(%d): ok=%v err=%v", h, ok, err)
			}
			view.Release()
		})
		if allocs != 0 {
			t.Errorf("a MemIndex.GetView hit on hub %d allocates %v times, want 0", h, allocs)
		}
	}
	runtime.KeepAlive(g)
}

// TestNonHubPushCeiling holds the push precision rule in place: a non-hub
// query's own push at the default options on the 5 000-node SocialGraph
// expands at most pushCeiling nodes on average (~25 % above this commit's
// mean of 1 258; at epsilon = 1e-8 the same pushes averaged 4 241).
func TestNonHubPushCeiling(t *testing.T) {
	const pushCeiling = 1_575
	e := socialEngine(t, 5000, 17)
	srcs := nonHubSources(e, 2000, 64)
	var s prime.Scratch
	pushes := 0
	for _, q := range srcs {
		_, st, err := s.Push(e.Graph(), q, e.Hubs(), e.opts.primeOptions(), 0)
		if err != nil {
			t.Fatal(err)
		}
		pushes += st.Pushes
	}
	mean := pushes / len(srcs)
	t.Logf("mean pushes per non-hub push: %d", mean)
	if mean > pushCeiling {
		t.Errorf("a non-hub push at the default options expands %d nodes on average, ceiling %d", mean, pushCeiling)
	}
}

// TestSecondPrecomputeCostsWhatTheFirstDoes: a second Precompute on an
// in-memory engine, after updates, allocates about what the first did (put by
// put into the published index, each record copied its overlay) and leaves
// exactly the hubs and records a fresh engine on the updated graph writes (a
// hub the new selection dropped kept its stale record).
func TestSecondPrecomputeCostsWhatTheFirstDoes(t *testing.T) {
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 20000, OutDegreeMean: 6, Attachment: 0.8, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumHubs: 2000}
	precompute := func(e *Engine) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := e.Precompute(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	e, err := NewEngine(g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	first := precompute(e)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if _, err := e.ApplyUpdate(randomUpdate(rng, e.Graph())); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	second := precompute(e)
	t.Logf("first Precompute allocated %.1f MB, the second %.1f MB", float64(first)/1e6, float64(second)/1e6)
	if second > 2*first {
		t.Errorf("the second Precompute allocated %d bytes, more than twice the first's %d", second, first)
	}

	fresh, err := NewEngine(e.Graph(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	precompute(fresh)
	hubs := fresh.Index().Hubs()
	if got := e.Index().Hubs(); !slices.Equal(got, hubs) {
		t.Fatalf("the re-precomputed index holds %d hubs, a fresh one %d", len(got), len(hubs))
	}
	for _, h := range hubs {
		got, _, err := e.Index().GetView(h)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fresh.Index().GetView(h)
		if err != nil {
			t.Fatal(err)
		}
		same := bytes.Equal(got.EntryBytes(), want.EntryBytes())
		got.Release()
		want.Release()
		if !same {
			t.Fatalf("hub %d: the re-precomputed record differs from a fresh engine's", h)
		}
	}
}

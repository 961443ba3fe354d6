package core

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/hub"
)

func socialEngine(t testing.TB, nodes int, seed int64) *Engine {
	t.Helper()
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: nodes, OutDegreeMean: 6, Attachment: 0.8, Seed: seed})
	if err != nil {
		t.Fatalf("SocialGraph: %v", err)
	}
	// Two workers whatever the host: each owns one push scratch, and the
	// precompute ceiling below counts them.
	e, err := NewEngine(g, nil, Options{NumHubs: nodes / 10, Workers: 2})
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
// allocation cut in place. The ceilings sit ~25 % above what this commit
// measures on a 5 000-node SocialGraph with 500 hubs (54.3 KB a query, 1.09 MB
// a Precompute); the map-based push measured 407 KB and 147 MB.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled bundles at random under the race detector")
	}
	const (
		queryCeiling      = 68_000    // bytes per non-hub query at eta=2
		precomputeCeiling = 1_360_000 // bytes per Precompute
	)
	before := totalAlloc()
	e := socialEngine(t, 5000, 17)
	precompute := totalAlloc() - before
	// socialEngine's graph generation is inside the window; measure it alone.
	before = totalAlloc()
	if _, err := gen.SocialGraph(gen.SocialConfig{Nodes: 5000, OutDegreeMean: 6, Attachment: 0.8, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	precompute -= totalAlloc() - before

	srcs := nonHubSources(e, 2000, 64)
	stop := StopCondition{MaxIterations: 2}
	run := func() {
		for _, q := range srcs {
			if _, err := e.Query(q, stop); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A collection empties sync.Pool, and re-growing the bundle would be
	// charged to whichever query came next; keep the window GC-free.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run() // warm the pooled bundle
	before = totalAlloc()
	run()
	perQuery := (totalAlloc() - before) / uint64(len(srcs))

	t.Logf("non-hub query: %d B; precompute: %d B", perQuery, precompute)
	if perQuery > queryCeiling {
		t.Errorf("a non-hub query at eta=2 allocates %d B, ceiling %d B", perQuery, queryCeiling)
	}
	if precompute > precomputeCeiling {
		t.Errorf("Precompute allocates %d B, ceiling %d B", precompute, precomputeCeiling)
	}
}

// heapAlloc returns the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMemIndexHeapAndViewCost is the gate on what the flat in-memory index
// buys: after a Precompute on the 5 000-node SocialGraph everything the engine
// retains — the index above all, plus the hub set and the engine itself — is
// at most twice the index's serialized size (1.06 times, measured), and
// reading a record back as a view allocates nothing.
func TestMemIndexHeapAndViewCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are charged to the heap")
	}
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 5000, OutDegreeMean: 6, Attachment: 0.8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	before := heapAlloc()
	e, err := NewEngine(g, nil, Options{NumHubs: 500, Workers: 2})
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
	if retained > 2*size {
		t.Errorf("the precomputed engine retains %d B of heap, more than twice its index's %d B", retained, size)
	}

	hubs := e.Index().Hubs()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		view, ok, err := e.Index().GetView(hubs[i%len(hubs)])
		if err != nil || !ok || view.Len() == 0 {
			t.Fatalf("GetView(%d): ok=%v err=%v", hubs[i%len(hubs)], ok, err)
		}
		view.Release()
		i++
	})
	if allocs != 0 {
		t.Errorf("a MemIndex.GetView hit allocates %v times, want 0", allocs)
	}
	runtime.KeepAlive(g)
}

package core

import (
	"errors"
	"testing"

	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/hub"
	"fastppv/internal/ppvindex"
)

func TestApplyUpdateMatchesFullRebuild(t *testing.T) {
	g, err := gen.RandomDirected(80, 3, 42)
	if err != nil {
		t.Fatalf("RandomDirected: %v", err)
	}
	opts := exactOptions(10)

	// Engine maintained incrementally.
	inc, err := NewEngine(g, nil, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := inc.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}

	update := GraphUpdate{
		AddedEdges:   []graph.Edge{{From: 1, To: 50}, {From: 7, To: 3}, {From: 20, To: 21}},
		RemovedEdges: []graph.Edge{{From: 0, To: g.OutNeighbors(0)[0]}},
	}
	stats, err := inc.ApplyUpdate(update)
	if err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	if stats.AffectedHubs+stats.UnaffectedHubs != inc.Hubs().Size() {
		t.Errorf("affected %d + unaffected %d != %d hubs", stats.AffectedHubs, stats.UnaffectedHubs, inc.Hubs().Size())
	}

	// Engine rebuilt from scratch on the updated graph, with the same hub set
	// (fixed via a PageRank override ranking the incremental engine's hubs
	// first) so the indexes are directly comparable.
	updated := inc.Graph()
	rebuilt, err := NewEngine(updated, nil, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	pr := make([]float64, updated.NumNodes())
	for i := range pr {
		pr[i] = 0.001
	}
	for rank, h := range inc.Hubs().Hubs() {
		pr[h] = 1 - float64(rank)*1e-6
	}
	rebuilt.opts.PageRank = pr
	rebuilt.opts.HubPolicy = hub.ByPageRank
	if err := rebuilt.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}

	for q := graph.NodeID(0); q < 10; q++ {
		a, err := inc.Query(q, StopCondition{MaxIterations: 6})
		if err != nil {
			t.Fatalf("incremental Query: %v", err)
		}
		b, err := rebuilt.Query(q, StopCondition{MaxIterations: 6})
		if err != nil {
			t.Fatalf("rebuilt Query: %v", err)
		}
		if d := a.Estimate.L1Distance(b.Estimate); d > 1e-9 {
			t.Errorf("q=%d: incrementally maintained estimate differs from full rebuild by L1 %.3g", q, d)
		}
	}
}

func TestApplyUpdateAffectsOnlyReachableHubs(t *testing.T) {
	// Build two disconnected cliques; an update inside one component must not
	// recompute hubs of the other.
	b := graph.NewBuilder(true)
	const half = 20
	b.EnsureNodes(2 * half)
	for u := 0; u < half; u++ {
		for v := 0; v < half; v++ {
			if u != v {
				b.MustAddEdge(graph.NodeID(u), graph.NodeID(v))
				b.MustAddEdge(graph.NodeID(u+half), graph.NodeID(v+half))
			}
		}
	}
	g := b.Finalize()
	e, err := NewEngine(g, nil, exactOptions(6))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	var hubsInSecond int
	for _, h := range e.Hubs().Hubs() {
		if int(h) >= half {
			hubsInSecond++
		}
	}
	if hubsInSecond == 0 {
		t.Skip("hub selection placed no hubs in the second component")
	}
	stats, err := e.ApplyUpdate(GraphUpdate{AddedEdges: []graph.Edge{{From: 0, To: 1}}})
	if err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	if stats.UnaffectedHubs < hubsInSecond {
		t.Errorf("expected at least the %d hubs of the untouched component to be unaffected, got %d",
			hubsInSecond, stats.UnaffectedHubs)
	}
}

// TestApplyUpdateBumpsEpoch: every committed batch advances the index epoch
// by exactly one, starting from Options.InitialEpoch, so replicas that
// applied the same sequence agree on the epoch.
func TestApplyUpdateBumpsEpoch(t *testing.T) {
	g, err := gen.RandomDirected(40, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, nil, Options{NumHubs: 5, InitialEpoch: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	if got := e.Epoch(); got != 7 {
		t.Fatalf("initial epoch = %d, want 7", got)
	}
	// A failed update must not advance the epoch.
	if _, err := e.ApplyUpdate(GraphUpdate{AddedEdges: []graph.Edge{{From: 0, To: 9999}}}); err == nil {
		t.Fatal("out-of-range update should fail")
	}
	if got := e.Epoch(); got != 7 {
		t.Errorf("epoch after failed update = %d, want 7", got)
	}
	for i := 1; i <= 2; i++ {
		stats, err := e.ApplyUpdate(GraphUpdate{AddedEdges: []graph.Edge{{From: 0, To: graph.NodeID(20 + i)}}})
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(7 + i); stats.Epoch != want || e.Epoch() != want {
			t.Errorf("after update %d: stats.Epoch=%d Epoch()=%d, want %d", i, stats.Epoch, e.Epoch(), want)
		}
	}
}

func TestApplyUpdateBeforePrecomputeFails(t *testing.T) {
	g, err := gen.RandomDirected(10, 2, 1)
	if err != nil {
		t.Fatalf("RandomDirected: %v", err)
	}
	e, err := NewEngine(g, nil, Options{NumHubs: 2})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := e.ApplyUpdate(GraphUpdate{}); err == nil {
		t.Errorf("ApplyUpdate before Precompute should fail")
	}
}

func TestApplyUpdateGrowsNodeSet(t *testing.T) {
	g, err := gen.RandomDirected(30, 2, 4)
	if err != nil {
		t.Fatalf("RandomDirected: %v", err)
	}
	e, err := NewEngine(g, nil, exactOptions(5))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	_, err = e.ApplyUpdate(GraphUpdate{
		NumNodes:   35,
		AddedEdges: []graph.Edge{{From: 0, To: 33}, {From: 33, To: 34}, {From: 34, To: 1}},
	})
	if err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	if e.Graph().NumNodes() != 35 {
		t.Fatalf("graph has %d nodes after update, want 35", e.Graph().NumNodes())
	}
	res, err := e.Query(0, StopCondition{MaxIterations: 10})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Estimate.Get(34) == 0 {
		t.Errorf("new node 34 is unreachable from node 0 after the update")
	}
}

// committingStore wraps a MemIndex and records UpdateCommitter calls: puts
// since the last commit and how often CommitUpdates ran.
type committingStore struct {
	*ppvindex.MemIndex
	uncommittedPuts int
	commits         int
	failCommit      bool
}

func (c *committingStore) PutEncoded(h graph.NodeID, payload []byte) error {
	c.uncommittedPuts++
	return c.MemIndex.PutEncoded(h, payload)
}

func (c *committingStore) CommitUpdates() error {
	if c.failCommit {
		return errors.New("commit failed")
	}
	c.commits++
	c.uncommittedPuts = 0
	return nil
}

// TestApplyUpdateCommitsStagedWrites: an index store implementing
// UpdateCommitter must see exactly one CommitUpdates call per ApplyUpdate,
// after every staged Put of the batch.
func TestApplyUpdateCommitsStagedWrites(t *testing.T) {
	g, err := gen.RandomDirected(60, 3, 9)
	if err != nil {
		t.Fatalf("RandomDirected: %v", err)
	}
	store := &committingStore{MemIndex: ppvindex.NewMemIndex()}
	e, err := NewEngine(g, store, exactOptions(8))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	if store.commits != 0 {
		t.Fatalf("Precompute should not commit updates, saw %d commits", store.commits)
	}
	store.uncommittedPuts = 0

	stats, err := e.ApplyUpdate(GraphUpdate{AddedEdges: []graph.Edge{{From: 0, To: 30}}})
	if err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	if store.commits != 1 {
		t.Errorf("ApplyUpdate ran %d commits, want exactly 1", store.commits)
	}
	if store.uncommittedPuts != 0 {
		t.Errorf("%d staged puts left uncommitted after ApplyUpdate (affected %d hubs)",
			store.uncommittedPuts, stats.AffectedHubs)
	}
}

// TestApplyUpdateCommitFailureIsReported: a failing commit must surface as an
// ApplyUpdate error (the serving layer flips the replica to inconsistent).
func TestApplyUpdateCommitFailureIsReported(t *testing.T) {
	g, err := gen.RandomDirected(60, 3, 10)
	if err != nil {
		t.Fatalf("RandomDirected: %v", err)
	}
	store := &committingStore{MemIndex: ppvindex.NewMemIndex()}
	e, err := NewEngine(g, store, exactOptions(8))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	store.failCommit = true
	if _, err := e.ApplyUpdate(GraphUpdate{AddedEdges: []graph.Edge{{From: 0, To: 30}}}); err == nil {
		t.Error("ApplyUpdate with a failing commit should report the error")
	}
}

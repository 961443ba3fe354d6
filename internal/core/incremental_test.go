package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// committingStore wraps a MemIndex and records its Commit calls: how often
// it ran and the batches and records it was handed.
type committingStore struct {
	*ppvindex.MemIndex
	commits    int
	committed  []GraphUpdate
	records    [][]ppvindex.Record
	failCommit bool
}

func (c *committingStore) Commit(upd GraphUpdate, records []ppvindex.Record) (ppvindex.Snapshot, error) {
	if c.failCommit {
		return nil, errors.New("commit failed")
	}
	c.commits++
	c.committed = append(c.committed, upd)
	c.records = append(c.records, records)
	return c.MemIndex.Commit(upd, records)
}

// TestApplyUpdateCommitsStagedWrites: an update reaches the index as exactly
// one Commit, carrying the batch and every recomputed hub's record, each the
// record the engine then serves.
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

	upd := GraphUpdate{AddedEdges: []graph.Edge{{From: 0, To: 30}}, NumNodes: 61}
	stats, err := e.ApplyUpdate(upd)
	if err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	if store.commits != 1 {
		t.Fatalf("ApplyUpdate ran %d commits, want exactly 1", store.commits)
	}
	if !reflect.DeepEqual(store.committed[0], upd) {
		t.Errorf("Commit received %+v, want the batch %+v", store.committed[0], upd)
	}
	var hubs []graph.NodeID
	for _, r := range store.records[0] {
		hubs = append(hubs, r.Hub)
		view, ok, err := e.cur.Load().index.GetView(r.Hub)
		if err != nil || !ok || !bytes.Equal(view.EntryBytes(), r.Payload) {
			t.Errorf("hub %d: the served record is not the committed one (ok=%v err=%v)", r.Hub, ok, err)
		}
	}
	slices.Sort(hubs)
	if stats.AffectedHubs == 0 || !reflect.DeepEqual(hubs, stats.Recomputed) {
		t.Errorf("Commit carried the records of hubs %v, want every recomputed hub %v", hubs, stats.Recomputed)
	}
}

// TestApplyUpdateCommitFailureIsReported: a failing commit surfaces as an
// ApplyUpdate error marked ErrCommit (the serving layer flips the replica to
// inconsistent), and the engine keeps serving the version before it: its
// graph, its epoch and every hub's record.
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
	records := func() map[graph.NodeID][]byte {
		out := make(map[graph.NodeID][]byte)
		for _, h := range e.Hubs().Hubs() {
			if view, ok, err := e.cur.Load().index.GetView(h); err == nil && ok {
				out[h] = bytes.Clone(view.EntryBytes())
			}
		}
		return out
	}
	graphBefore, epochBefore, recordsBefore := e.Graph(), e.Epoch(), records()
	store.failCommit = true
	if _, err := e.ApplyUpdate(GraphUpdate{AddedEdges: []graph.Edge{{From: 0, To: 30}}}); !errors.Is(err, ErrCommit) {
		t.Errorf("ApplyUpdate with a failing commit = %v, want an ErrCommit error", err)
	}
	if e.Graph() != graphBefore || e.Epoch() != epochBefore {
		t.Errorf("after the failed commit the engine serves graph %p at epoch %d, want %p at %d", e.Graph(), e.Epoch(), graphBefore, epochBefore)
	}
	if after := records(); len(after) != len(recordsBefore) || !reflect.DeepEqual(after, recordsBefore) {
		t.Error("a hub's record changed under a failed commit")
	}
}

// labelledRing builds a directed ring over n labelled nodes, "a", "b", ...
func labelledRing(n int) *graph.Graph {
	b := graph.NewBuilder(true)
	for u := 0; u < n; u++ {
		b.AddLabeledNode(string(rune('a' + u)))
	}
	for u := 0; u < n; u++ {
		b.MustAddEdge(graph.NodeID(u), graph.NodeID((u+1)%n))
	}
	return b.Finalize()
}

// TestApplyUpdateKeepsLabels: an update keeps the graph's node labels, and a
// node it adds has none.
func TestApplyUpdateKeepsLabels(t *testing.T) {
	e, err := NewEngine(labelledRing(6), nil, exactOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyUpdate(GraphUpdate{AddedEdges: []graph.Edge{{From: 3, To: 6}}, NumNodes: 7}); err != nil {
		t.Fatal(err)
	}
	g := e.Graph()
	if !g.HasLabels() {
		t.Fatal("the updated graph lost its labels")
	}
	for u, want := range []string{"a", "b", "c", "d", "e", "f", ""} {
		if got := g.Label(graph.NodeID(u)); got != want {
			t.Errorf("node %d labelled %q after the update, want %q", u, got, want)
		}
	}
}

// TestReplayGraphUpdatesFoldsBatches: replaying many batches in one pass
// builds the graph that folding them one batch at a time builds, edge for edge
// and label for label, on directed and undirected graphs. The batches remove
// edges of the base graph, of earlier batches, of their own additions (which
// they must not touch) and edges that are absent; they add parallel edges and
// self loops, and grow the node set.
func TestReplayGraphUpdatesFoldsBatches(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			b := graph.NewBuilder(directed)
			for u := 0; u < 12; u++ {
				b.AddLabeledNode(fmt.Sprintf("n%d", u))
			}
			for i := 0; i < 30; i++ {
				b.MustAddEdge(graph.NodeID(rng.Intn(12)), graph.NodeID(rng.Intn(12)))
			}
			base := b.Finalize()

			folded := base
			var batches []GraphUpdate
			for i := 0; i < 6; i++ {
				var upd GraphUpdate
				n := folded.NumNodes()
				if rng.Intn(3) == 0 {
					n += 1 + rng.Intn(3)
					upd.NumNodes = n
				}
				edge := func(limit int) graph.Edge {
					return graph.Edge{From: graph.NodeID(rng.Intn(limit)), To: graph.NodeID(rng.Intn(limit))}
				}
				for j := 0; j < 5; j++ {
					upd.AddedEdges = append(upd.AddedEdges, edge(n))
				}
				if arcs := folded.EdgeList(); len(arcs) > 0 {
					for j := 0; j < 4; j++ {
						ed := arcs[rng.Intn(len(arcs))]
						if !directed && rng.Intn(2) == 0 {
							ed.From, ed.To = ed.To, ed.From
						}
						upd.RemovedEdges = append(upd.RemovedEdges, ed)
					}
				}
				upd.RemovedEdges = append(upd.RemovedEdges, upd.AddedEdges[0], edge(n))
				next, err := ReplayGraphUpdates(folded, upd)
				if err != nil {
					t.Fatal(err)
				}
				folded, batches = next, append(batches, upd)
			}

			got, err := ReplayGraphUpdates(base, batches...)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumNodes() != folded.NumNodes() || got.Directed() != directed {
				t.Fatalf("directed=%v seed %d: %d nodes (directed=%v), folding gives %d", directed, seed,
					got.NumNodes(), got.Directed(), folded.NumNodes())
			}
			if !reflect.DeepEqual(got.EdgeList(), folded.EdgeList()) {
				t.Fatalf("directed=%v seed %d: edges differ from folding batch by batch:\n%v\n%v",
					directed, seed, got.EdgeList(), folded.EdgeList())
			}
			for u := 0; u < got.NumNodes(); u++ {
				if got.Label(graph.NodeID(u)) != folded.Label(graph.NodeID(u)) {
					t.Fatalf("directed=%v seed %d: node %d labelled %q, folding gives %q", directed, seed,
						u, got.Label(graph.NodeID(u)), folded.Label(graph.NodeID(u)))
				}
			}
		}
	}
}

// TestReplayGraphUpdatesRefusesNodeCountPastInt32: a node count past the
// NodeID range is refused before any graph is built, so a logged or library
// batch cannot make ids past 2^31-1 valid (they would wrap onto real nodes).
func TestReplayGraphUpdatesRefusesNodeCountPastInt32(t *testing.T) {
	base := labelledRing(4)
	for _, n := range []int{math.MaxInt32 + 1, 1<<32 + 10} {
		if _, err := ReplayGraphUpdates(base, GraphUpdate{NumNodes: 6}, GraphUpdate{NumNodes: n}); !errors.Is(err, graph.ErrNodeOutOfRange) {
			t.Errorf("NumNodes %d: err = %v, want ErrNodeOutOfRange", n, err)
		}
	}
}

// TestReplayGraphUpdatesChecksEachBatchNodeCount: an added edge must lie
// within its own batch's node count, not one a later batch grows to.
func TestReplayGraphUpdatesChecksEachBatchNodeCount(t *testing.T) {
	base := labelledRing(4)
	early := GraphUpdate{AddedEdges: []graph.Edge{{From: 0, To: 5}}}
	grow := GraphUpdate{NumNodes: 6}
	if _, err := ReplayGraphUpdates(base, early, grow); !errors.Is(err, graph.ErrNodeOutOfRange) {
		t.Errorf("edge to node 5 before the node set grows: err = %v, want ErrNodeOutOfRange", err)
	}
	if _, err := ReplayGraphUpdates(base, grow, early); err != nil {
		t.Errorf("edge to node 5 after the node set grows: %v", err)
	}
}

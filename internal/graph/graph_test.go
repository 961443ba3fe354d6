package graph

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// smallDirected builds a small directed graph used by several tests:
//
//	0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0, 3 (isolated)
func smallDirected(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(true)
	b.EnsureNodes(4)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(0, 2)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(2, 0)
	return b.Finalize()
}

func TestGraphBasicAccessors(t *testing.T) {
	g := smallDirected(t)
	if got := g.NumNodes(); got != 4 {
		t.Fatalf("NumNodes = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 4 {
		t.Fatalf("NumEdges = %d, want 4", got)
	}
	if got := g.NumLogicalEdges(); got != 4 {
		t.Fatalf("NumLogicalEdges = %d, want 4 for a directed graph", got)
	}
	if !g.Directed() {
		t.Error("Directed() = false, want true")
	}
	if got := g.OutDegree(0); got != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", got)
	}
	if got := g.InDegree(2); got != 2 {
		t.Errorf("InDegree(2) = %d, want 2", got)
	}
	if got := g.OutDegree(3); got != 0 {
		t.Errorf("OutDegree(3) = %d, want 0", got)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Errorf("HasEdge results wrong: HasEdge(0,1)=%v HasEdge(1,0)=%v", g.HasEdge(0, 1), g.HasEdge(1, 0))
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Error("HasEdge should be false for out-of-range nodes")
	}
	if got := g.MaxOutDegree(); got != 2 {
		t.Errorf("MaxOutDegree = %d, want 2", got)
	}
	dangling := g.DanglingNodes()
	if len(dangling) != 1 || dangling[0] != 3 {
		t.Errorf("DanglingNodes = %v, want [3]", dangling)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestUndirectedGraphMaterializesBothDirections(t *testing.T) {
	b := NewBuilder(false)
	b.EnsureNodes(3)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	g := b.Finalize()
	if got := g.NumEdges(); got != 4 {
		t.Fatalf("NumEdges = %d, want 4 arcs for 2 undirected edges", got)
	}
	if got := g.NumLogicalEdges(); got != 2 {
		t.Fatalf("NumLogicalEdges = %d, want 2", got)
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(0, 1) {
		t.Error("undirected edge should be traversable in both directions")
	}
	if g.OutDegree(1) != 2 || g.InDegree(1) != 2 {
		t.Errorf("degree of middle node = out %d in %d, want 2/2", g.OutDegree(1), g.InDegree(1))
	}
}

func TestInNeighborsMatchesOutEdges(t *testing.T) {
	g := smallDirected(t)
	in2 := g.InNeighbors(2)
	if len(in2) != 2 {
		t.Fatalf("InNeighbors(2) = %v, want two entries", in2)
	}
	seen := map[NodeID]bool{}
	for _, v := range in2 {
		seen[v] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("InNeighbors(2) = %v, want {0,1}", in2)
	}
	if got := g.InNeighbors(3); len(got) != 0 {
		t.Errorf("InNeighbors(3) = %v, want empty", got)
	}
}

func TestBuilderRejectsOutOfRangeEdges(t *testing.T) {
	b := NewBuilder(true)
	b.EnsureNodes(2)
	if err := b.AddEdge(0, 2); err == nil {
		t.Error("AddEdge(0,2) with 2 nodes should fail")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Error("AddEdge(-1,0) should fail")
	}
}

func TestBuilderSelfLoops(t *testing.T) {
	b := NewBuilder(true)
	b.EnsureNodes(2)
	b.MustAddEdge(0, 0) // dropped by default
	g := b.Finalize()
	if g.NumEdges() != 0 {
		t.Fatalf("self loop should be dropped by default, got %d edges", g.NumEdges())
	}
	b2 := NewBuilder(true)
	b2.AllowSelfLoops(true)
	b2.EnsureNodes(2)
	b2.MustAddEdge(0, 0)
	g2 := b2.Finalize()
	if g2.NumEdges() != 1 {
		t.Fatalf("self loop should be kept when allowed, got %d edges", g2.NumEdges())
	}
}

func TestBuilderDedupEdges(t *testing.T) {
	b := NewBuilder(false)
	b.EnsureNodes(3)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 0) // same undirected edge
	b.MustAddEdge(0, 2)
	b.MustAddEdge(0, 2) // duplicate
	b.DedupEdges()
	g := b.Finalize()
	if got := g.NumLogicalEdges(); got != 2 {
		t.Fatalf("after dedup NumLogicalEdges = %d, want 2", got)
	}
}

func TestLabels(t *testing.T) {
	b := NewBuilder(true)
	a := b.AddLabeledNode("alpha")
	c := b.AddLabeledNode("beta")
	g := b.Finalize()
	if !g.HasLabels() {
		t.Fatal("HasLabels = false")
	}
	if g.Label(a) != "alpha" || g.Label(c) != "beta" {
		t.Errorf("labels wrong: %q %q", g.Label(a), g.Label(c))
	}
	if got := g.NodeByLabel("beta"); got != c {
		t.Errorf("NodeByLabel(beta) = %d, want %d", got, c)
	}
	if got := g.NodeByLabel("missing"); got != InvalidNode {
		t.Errorf("NodeByLabel(missing) = %d, want InvalidNode", got)
	}
}

func TestEdgesIterationAndEdgeList(t *testing.T) {
	g := smallDirected(t)
	var count int
	g.Edges(func(Edge) bool { count++; return true })
	if count != g.NumEdges() {
		t.Errorf("Edges visited %d arcs, want %d", count, g.NumEdges())
	}
	// Early termination.
	count = 0
	g.Edges(func(Edge) bool { count++; return false })
	if count != 1 {
		t.Errorf("Edges with early stop visited %d arcs, want 1", count)
	}
	if got := len(g.EdgeList()); got != g.NumEdges() {
		t.Errorf("EdgeList has %d arcs, want %d", got, g.NumEdges())
	}
}

func TestStatsString(t *testing.T) {
	g := smallDirected(t)
	s := g.Stats()
	if s.Nodes != 4 || s.Dangling != 1 || !s.Directed {
		t.Errorf("Stats = %+v", s)
	}
	if s.String() == "" {
		t.Error("Stats.String should not be empty")
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, true, []Edge{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Errorf("FromEdges graph has %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if _, err := FromEdges(2, true, []Edge{{0, 5}}); err == nil {
		t.Error("FromEdges with out-of-range target should fail")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(true).Finalize()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph has %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate on empty graph: %v", err)
	}
	if g.MaxOutDegree() != 0 {
		t.Error("MaxOutDegree of empty graph should be 0")
	}
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCSRFootprint holds the resident graph at its 32-bit layout: a finalized
// graph without its lazy reverse CSR retains 4 bytes per arc (the target)
// plus 8 per node (the out-offset and the in-degree), within a page-rounding
// slack. With 64-bit offsets the same graph retains 4 bytes a node more.
func TestCSRFootprint(t *testing.T) {
	const nodes, degree, slack = 100_000, 3, 64 << 10
	rng := rand.New(rand.NewSource(1))
	edges := make([]Edge, 0, nodes*degree)
	for u := 0; u < nodes; u++ {
		for i := 0; i < degree; i++ {
			edges = append(edges, Edge{From: NodeID(u), To: NodeID(rng.Intn(nodes))})
		}
	}
	before := liveHeap()
	g, err := FromEdges(nodes, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	retained := int64(liveHeap()) - int64(before)
	want := int64(4*g.NumEdges() + 8*g.NumNodes())
	t.Logf("a graph of %d nodes and %d arcs retains %d B (4 B/arc + 8 B/node = %d B)", g.NumNodes(), g.NumEdges(), retained, want)
	if retained > want+slack {
		t.Errorf("the graph retains %d B, more than 4 B per arc + 8 B per node (%d B) + %d B", retained, want, slack)
	}
	runtime.KeepAlive(g)
	runtime.KeepAlive(edges)
}

// TestBuilderArcLimit starts the builder's arc count just under maxArcs (no
// test builds four billion arcs): the arc that would pass the limit is
// refused with ErrTooManyArcs, an undirected edge counts as two arcs and an
// undirected self loop as one, and DedupEdges recounts.
func TestBuilderArcLimit(t *testing.T) {
	directed := NewBuilder(true)
	directed.EnsureNodes(3)
	directed.arcs = maxArcs - 1
	if err := directed.AddEdge(0, 1); err != nil {
		t.Fatalf("the last arc under the limit was refused: %v", err)
	}
	if err := directed.AddEdge(1, 2); !errors.Is(err, ErrTooManyArcs) {
		t.Fatalf("AddEdge past maxArcs = %v, want ErrTooManyArcs", err)
	}

	undirected := NewBuilder(false)
	undirected.EnsureNodes(3)
	undirected.AllowSelfLoops(true)
	undirected.arcs = maxArcs - 1
	if err := undirected.AddEdge(0, 1); !errors.Is(err, ErrTooManyArcs) {
		t.Fatalf("an undirected edge one arc under maxArcs = %v, want ErrTooManyArcs", err)
	}
	if err := undirected.AddEdge(2, 2); err != nil {
		t.Fatalf("an undirected self loop (one arc) one arc under maxArcs was refused: %v", err)
	}
	if undirected.NumEdges() != 1 || undirected.arcs != maxArcs {
		t.Fatalf("after the refusal: %d edges and %d arcs, want 1 and %d", undirected.NumEdges(), undirected.arcs, int64(maxArcs))
	}

	b := NewBuilder(false)
	b.EnsureNodes(3)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 0)
	b.MustAddEdge(1, 2)
	b.DedupEdges()
	if g := b.Finalize(); b.arcs != 4 || g.NumEdges() != 4 {
		t.Fatalf("after DedupEdges the builder counts %d arcs and the graph holds %d, want 4 and 4", b.arcs, g.NumEdges())
	}
}

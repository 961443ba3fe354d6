package hub

import (
	"testing"

	"fastppv/internal/graph"
)

// fanGraph builds a graph where node 0 has the highest out-degree, node 1 the
// highest in-degree, and the rest are leaves:
//
//	0 -> {2..9}, {2..9} -> 1, 1 -> 0
func fanGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(true)
	b.EnsureNodes(10)
	for i := 2; i < 10; i++ {
		b.MustAddEdge(0, graph.NodeID(i))
		b.MustAddEdge(graph.NodeID(i), 1)
	}
	b.MustAddEdge(1, 0)
	return b.Finalize()
}

func TestSelectByOutDegree(t *testing.T) {
	g := fanGraph(t)
	set, err := Select(g, Options{Policy: ByOutDegree, Count: 1})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if !set.Contains(0) {
		t.Errorf("out-degree policy should pick node 0, got %v", set.Hubs())
	}
}

func TestSelectByInDegree(t *testing.T) {
	g := fanGraph(t)
	set, err := Select(g, Options{Policy: ByInDegree, Count: 1})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if !set.Contains(1) {
		t.Errorf("in-degree policy should pick node 1, got %v", set.Hubs())
	}
}

func TestSelectByPageRankAndExpectedUtility(t *testing.T) {
	g := fanGraph(t)
	pr, err := Select(g, Options{Policy: ByPageRank, Count: 2})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	// Nodes 0 and 1 dominate the cycle structure; both should be chosen.
	if !pr.Contains(0) || !pr.Contains(1) {
		t.Errorf("PageRank policy chose %v, want {0,1}", pr.Hubs())
	}
	eu, err := Select(g, Options{Policy: ExpectedUtility, Count: 1})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	// Expected utility multiplies popularity by out-degree; node 0 (high
	// PageRank and out-degree 8) must win over node 1 (out-degree 1).
	if !eu.Contains(0) {
		t.Errorf("expected-utility policy chose %v, want node 0", eu.Hubs())
	}
}

func TestSelectWithPrecomputedPageRank(t *testing.T) {
	g := fanGraph(t)
	pr := make([]float64, g.NumNodes())
	pr[7] = 1 // pretend node 7 is the most popular
	set, err := Select(g, Options{Policy: ByPageRank, Count: 1, PageRank: pr})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if !set.Contains(7) {
		t.Errorf("supplied PageRank should drive selection, got %v", set.Hubs())
	}
	if _, err := Select(g, Options{Policy: ByPageRank, Count: 1, PageRank: []float64{1}}); err == nil {
		t.Error("mismatched PageRank length should fail")
	}
}

func TestSelectRandomDeterministicPerSeed(t *testing.T) {
	g := fanGraph(t)
	a, err := Select(g, Options{Policy: Random, Count: 4, Seed: 5})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	b, err := Select(g, Options{Policy: Random, Count: 4, Seed: 5})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(a.Hubs()) != 4 || len(b.Hubs()) != 4 {
		t.Fatalf("random selection returned %d/%d hubs, want 4", len(a.Hubs()), len(b.Hubs()))
	}
	for i := range a.Hubs() {
		if a.Hubs()[i] != b.Hubs()[i] {
			t.Fatal("random selection is not deterministic for a fixed seed")
		}
	}
}

func TestSelectCountClamping(t *testing.T) {
	g := fanGraph(t)
	set, err := Select(g, Options{Policy: ByOutDegree, Count: 100})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if set.Size() != g.NumNodes() {
		t.Errorf("oversized count should clamp to %d, got %d", g.NumNodes(), set.Size())
	}
	empty, err := Select(g, Options{Policy: ByOutDegree, Count: 0})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if empty.Size() != 0 {
		t.Errorf("count 0 should produce an empty set")
	}
	if _, err := Select(g, Options{Policy: ByOutDegree, Count: -1}); err == nil {
		t.Error("negative count should fail")
	}
}

func TestSetMembership(t *testing.T) {
	set := NewSet([]graph.NodeID{3, 5})
	if !set.Contains(3) || !set.Contains(5) || set.Contains(4) {
		t.Error("Set membership is wrong")
	}
	var nilSet *Set
	if nilSet.Contains(1) {
		t.Error("nil Set should contain nothing")
	}
	if nilSet.Size() != 0 {
		t.Error("nil Set should have size 0")
	}
}

func TestPolicyStringAndParse(t *testing.T) {
	for _, p := range []Policy{ExpectedUtility, ByPageRank, ByOutDegree, ByInDegree, Random} {
		s := p.String()
		parsed, err := ParsePolicy(s)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", s, err)
			continue
		}
		if parsed != p {
			t.Errorf("ParsePolicy(%q) = %v, want %v", s, parsed, p)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy should reject unknown names")
	}
}

func TestSuggestHubCount(t *testing.T) {
	g := fanGraph(t)
	if got := SuggestHubCount(g, 0, 0); got < 1 || got > g.NumNodes() {
		t.Errorf("SuggestHubCount default = %d, want within (0,%d]", got, g.NumNodes())
	}
	// A tiny per-query budget demands many hubs, but never more than half the
	// nodes.
	if got := SuggestHubCount(g, 1, 1); got != g.NumNodes()/2 {
		t.Errorf("SuggestHubCount with tiny budget = %d, want %d", got, g.NumNodes()/2)
	}
	// A huge budget falls back to the minimum.
	if got := SuggestHubCount(g, 1<<30, 4); got != 4 {
		t.Errorf("SuggestHubCount with huge budget = %d, want the minimum 4", got)
	}
}

// TestContainsEdgeCases: ids that come off the wire or out of an index file
// are probed before anyone validates them, so Contains must answer false —
// not panic — for a nil set and for ids outside the bitset on either side.
func TestContainsEdgeCases(t *testing.T) {
	set := NewSet([]graph.NodeID{0, 63, 64, 200})
	var nilSet *Set
	cases := []struct {
		name string
		set  *Set
		id   graph.NodeID
		want bool
	}{
		{"nil set", nilSet, 0, false},
		{"nil set, negative id", nilSet, -1, false},
		{"empty set", NewSet(nil), 0, false},
		{"negative id", set, -1, false},
		{"most negative id", set, -1 << 31, false},
		{"first bit", set, 0, true},
		{"last bit of the first word", set, 63, true},
		{"first bit of the second word", set, 64, true},
		{"non-member between members", set, 65, false},
		{"largest hub", set, 200, true},
		{"one past the largest hub", set, 201, false},
		{"same word as the largest hub, unset", set, 255, false},
		{"first id beyond the bitset", set, 256, false},
		{"far beyond the bitset", set, 1<<31 - 1, false},
		{"negative hub is never a member", NewSet([]graph.NodeID{-5, 2}), -5, false},
	}
	for _, tc := range cases {
		if got := tc.set.Contains(tc.id); got != tc.want {
			t.Errorf("%s: Contains(%d) = %v, want %v", tc.name, tc.id, got, tc.want)
		}
	}
	if s := NewSet([]graph.NodeID{-5, 2}); s.Size() != 2 || !s.Contains(2) {
		t.Errorf("a negative id must not disturb the rest of the set: size %d, Contains(2) %v", s.Size(), s.Contains(2))
	}
}

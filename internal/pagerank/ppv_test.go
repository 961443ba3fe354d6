package pagerank

import (
	"math"
	"testing"

	"fastppv/internal/graph"
)

func TestExactPPVSimpleChain(t *testing.T) {
	// q -> b -> c with c dangling. The tour reachabilities are closed form:
	// r(q) = alpha, r(b) = alpha(1-alpha), r(c) = alpha(1-alpha)^2.
	b := graph.NewBuilder(true)
	q := b.AddNode()
	m := b.AddNode()
	c := b.AddNode()
	b.MustAddEdge(q, m)
	b.MustAddEdge(m, c)
	g := b.Finalize()

	ppv, err := ExactPPV(g, q, Options{})
	if err != nil {
		t.Fatalf("ExactPPV: %v", err)
	}
	alpha := DefaultAlpha
	cases := []struct {
		node graph.NodeID
		want float64
	}{
		{q, alpha},
		{m, alpha * (1 - alpha)},
		{c, alpha * (1 - alpha) * (1 - alpha)},
	}
	for _, tc := range cases {
		if got := ppv.Get(tc.node); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("score of %d = %.6f, want %.6f", tc.node, got, tc.want)
		}
	}
}

func TestExactPPVCycleSumsToOne(t *testing.T) {
	// On a graph with no dangling nodes the PPV is a probability
	// distribution.
	b := graph.NewBuilder(true)
	b.EnsureNodes(5)
	for i := 0; i < 5; i++ {
		b.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%5))
		b.MustAddEdge(graph.NodeID(i), graph.NodeID((i+2)%5))
	}
	g := b.Finalize()
	ppv, err := ExactPPV(g, 0, Options{})
	if err != nil {
		t.Fatalf("ExactPPV: %v", err)
	}
	if math.Abs(ppv.Sum()-1) > 1e-8 {
		t.Errorf("PPV sums to %v, want 1", ppv.Sum())
	}
	// The query node keeps at least the teleport mass.
	if ppv.Get(0) < DefaultAlpha-1e-9 {
		t.Errorf("query self score %v below alpha", ppv.Get(0))
	}
}

func TestExactPPVIsQuerySpecific(t *testing.T) {
	b := graph.NewBuilder(true)
	b.EnsureNodes(6)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(2, 0)
	b.MustAddEdge(3, 4)
	b.MustAddEdge(4, 5)
	b.MustAddEdge(5, 3)
	g := b.Finalize()
	p0, err := ExactPPV(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p3, err := ExactPPV(g, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Disconnected components: each PPV lives entirely on its own component.
	if p0.Get(3) != 0 || p0.Get(4) != 0 || p3.Get(0) != 0 {
		t.Errorf("PPV leaked across components: p0(3)=%v p3(0)=%v", p0.Get(3), p3.Get(0))
	}
	if p0.Get(1) <= 0 || p3.Get(4) <= 0 {
		t.Errorf("PPV missing in-component mass")
	}
}

func TestExactPPVErrors(t *testing.T) {
	b := graph.NewBuilder(true)
	b.EnsureNodes(2)
	b.MustAddEdge(0, 1)
	g := b.Finalize()
	if _, err := ExactPPV(g, 5, Options{}); err == nil {
		t.Error("out-of-range query should fail")
	}
	if _, err := ExactPPV(g, 0, Options{Alpha: 2}); err == nil {
		t.Error("invalid alpha should fail")
	}
}

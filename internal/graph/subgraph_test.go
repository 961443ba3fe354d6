package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleEdgesKeepsNodeSetAndBounds(t *testing.T) {
	b := NewBuilder(true)
	b.EnsureNodes(20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		u, v := NodeID(rng.Intn(20)), NodeID(rng.Intn(20))
		if u != v {
			b.MustAddEdge(u, v)
		}
	}
	g := b.Finalize()

	s := SampleEdges(g, 10, 7)
	if s.NumNodes() != g.NumNodes() {
		t.Errorf("sample changed the node count: %d vs %d", s.NumNodes(), g.NumNodes())
	}
	if s.NumLogicalEdges() != 10 {
		t.Errorf("sample has %d edges, want 10", s.NumLogicalEdges())
	}
	// Every sampled edge exists in the original graph.
	s.Edges(func(e Edge) bool {
		if !g.HasEdge(e.From, e.To) {
			t.Errorf("sampled edge %v not present in the original graph", e)
		}
		return true
	})
	// Requesting more edges than available returns all of them.
	all := SampleEdges(g, 10_000, 7)
	if all.NumLogicalEdges() != g.NumLogicalEdges() {
		t.Errorf("oversized sample has %d edges, want %d", all.NumLogicalEdges(), g.NumLogicalEdges())
	}
	// Deterministic for a fixed seed.
	again := SampleEdges(g, 10, 7)
	if len(again.EdgeList()) != len(s.EdgeList()) {
		t.Fatal("sampling is not deterministic for a fixed seed")
	}
	for i, e := range s.EdgeList() {
		if again.EdgeList()[i] != e {
			t.Fatal("sampling is not deterministic for a fixed seed")
		}
	}
}

// TestCSRInvariantsQuick property-tests the builder: for random edge sets the
// finalized CSR must validate, preserve the edge multiset, and report
// consistent degree sums.
func TestCSRInvariantsQuick(t *testing.T) {
	f := func(rawEdges []uint16, directed bool, numNodesRaw uint8) bool {
		numNodes := int(numNodesRaw%64) + 2
		b := NewBuilder(directed)
		b.EnsureNodes(numNodes)
		want := 0
		for i := 0; i+1 < len(rawEdges); i += 2 {
			u := NodeID(int(rawEdges[i]) % numNodes)
			v := NodeID(int(rawEdges[i+1]) % numNodes)
			if u == v {
				continue
			}
			b.MustAddEdge(u, v)
			want++
		}
		g := b.Finalize()
		if err := g.Validate(); err != nil {
			return false
		}
		if g.NumLogicalEdges() != want {
			return false
		}
		// Sum of out-degrees equals the number of stored arcs, and so does
		// the sum of in-degrees.
		outSum, inSum := 0, 0
		for u := 0; u < g.NumNodes(); u++ {
			outSum += g.OutDegree(NodeID(u))
			inSum += g.InDegree(NodeID(u))
		}
		return outSum == g.NumEdges() && inSum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBinaryRoundTripQuick property-tests the binary codec: any graph the
// builder produces survives a write/read round trip unchanged.
func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(rawEdges []uint16, directed bool, numNodesRaw uint8) bool {
		numNodes := int(numNodesRaw%32) + 2
		b := NewBuilder(directed)
		b.EnsureNodes(numNodes)
		for i := 0; i+1 < len(rawEdges); i += 2 {
			u := NodeID(int(rawEdges[i]) % numNodes)
			v := NodeID(int(rawEdges[i+1]) % numNodes)
			if u != v {
				b.MustAddEdge(u, v)
			}
		}
		g := b.Finalize()
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() || got.Directed() != g.Directed() {
			return false
		}
		for u := 0; u < g.NumNodes(); u++ {
			a, c := g.OutNeighbors(NodeID(u)), got.OutNeighbors(NodeID(u))
			if len(a) != len(c) {
				return false
			}
			for i := range a {
				if a[i] != c[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

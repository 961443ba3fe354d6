package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// binaryOf is WriteBinary of g as bytes.
func binaryOf(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// labeledUndirected is a small undirected graph with labels, so the seeds
// cover the label section.
func labeledUndirected(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(false)
	for _, l := range []string{"a", "", "ccc"} {
		b.AddLabeledNode(l)
	}
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	return b.Finalize()
}

// withHeader returns a copy of a binary graph file with its node and arc
// counts replaced.
func withHeader(data []byte, nodes, arcs uint64) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(out[8:], nodes)
	binary.LittleEndian.PutUint64(out[16:], arcs)
	return out
}

// FuzzReadBinary opens arbitrary bytes as a binary graph file. The contract:
// ReadBinary either fails with an error wrapping ErrBadBinaryFormat — never
// a panic, and never an allocation sized by a header it has not seen the
// data for — or returns a graph that validates and survives a WriteBinary /
// ReadBinary round trip unchanged, labels included.
func FuzzReadBinary(f *testing.F) {
	f.Add([]byte{})
	f.Add(binaryOf(f, labeledUndirected(f)))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadBinaryFormat) {
				t.Fatalf("ReadBinary returned unstructured error %v", err)
			}
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ReadBinary accepted a graph that does not validate: %v", err)
		}
		again, err := ReadBinary(bytes.NewReader(binaryOf(t, g)))
		if err != nil {
			t.Fatalf("re-reading an accepted graph failed: %v", err)
		}
		assertSameGraph(t, g, again)
		for u := 0; u < g.NumNodes(); u++ {
			if again.Label(NodeID(u)) != g.Label(NodeID(u)) {
				t.Fatalf("label of node %d: %q after the round trip, want %q", u, again.Label(NodeID(u)), g.Label(NodeID(u)))
			}
		}
	})
}

package graph

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := smallDirected(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	assertSameGraph(t, g, got)
}

func TestEdgeListRoundTripUndirected(t *testing.T) {
	b := NewBuilder(false)
	b.EnsureNodes(5)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(2, 3)
	b.MustAddEdge(0, 4)
	g := b.Finalize()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if got.Directed() {
		t.Fatal("round-tripped graph lost its undirectedness")
	}
	assertSameGraph(t, g, got)
}

func TestReadEdgeListHeaderless(t *testing.T) {
	in := "# SNAP-style dump\n0 1\n1 2\n4 0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumNodes() != 5 {
		t.Errorf("NumNodes = %d, want 5 (max id + 1)", g.NumNodes())
	}
	if !g.Directed() {
		t.Error("headerless edge lists should default to directed")
	}
	if !g.HasEdge(4, 0) {
		t.Error("edge 4->0 missing")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":          "nodes x directed\n0 1\n",
		"bad kind":            "nodes 3 sideways\n0 1\n",
		"negative node":       "0 -1\n",
		"non-numeric":         "a b\n",
		"too few fields":      "3\n",
		"node beyond declare": "nodes 2 directed\n0 5\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error for %q", name, in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	b := NewBuilder(true)
	x := b.AddLabeledNode("x")
	y := b.AddLabeledNode("y")
	z := b.AddLabeledNode("z")
	b.MustAddEdge(x, y)
	b.MustAddEdge(y, z)
	b.MustAddEdge(z, x)
	g := b.Finalize()

	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	assertSameGraph(t, g, got)
	if got.Label(y) != "y" {
		t.Errorf("label of y = %q, want %q", got.Label(y), "y")
	}
}

func TestBinaryRejectsCorruptInput(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph"))); err == nil {
		t.Error("ReadBinary should fail on garbage input")
	}
	// Valid header but truncated body.
	g := smallDirected(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	trunc := buf.Bytes()[:buf.Len()-6]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("ReadBinary should fail on truncated input")
	}
}

func TestFileRoundTrips(t *testing.T) {
	dir := t.TempDir()
	g := smallDirected(t)

	edgePath := filepath.Join(dir, "g.txt")
	if err := SaveEdgeListFile(edgePath, g); err != nil {
		t.Fatalf("SaveEdgeListFile: %v", err)
	}
	fromText, err := LoadEdgeListFile(edgePath)
	if err != nil {
		t.Fatalf("LoadEdgeListFile: %v", err)
	}
	assertSameGraph(t, g, fromText)

	binPath := filepath.Join(dir, "g.bin")
	if err := SaveBinaryFile(binPath, g); err != nil {
		t.Fatalf("SaveBinaryFile: %v", err)
	}
	fromBin, err := LoadBinaryFile(binPath)
	if err != nil {
		t.Fatalf("LoadBinaryFile: %v", err)
	}
	assertSameGraph(t, g, fromBin)

	if _, err := LoadEdgeListFile(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

// assertSameGraph checks that two graphs have identical structure.
func assertSameGraph(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("NumNodes = %d, want %d", got.NumNodes(), want.NumNodes())
	}
	if got.Directed() != want.Directed() {
		t.Fatalf("Directed = %v, want %v", got.Directed(), want.Directed())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", got.NumEdges(), want.NumEdges())
	}
	for u := 0; u < want.NumNodes(); u++ {
		a, b := want.OutNeighbors(NodeID(u)), got.OutNeighbors(NodeID(u))
		if len(a) != len(b) {
			t.Fatalf("node %d: out-degree %d, want %d", u, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d neighbour %d: got %d, want %d", u, i, b[i], a[i])
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestBinaryRejectsForgedHeader: ReadBinary does not trust its header. Counts
// past the node or arc limit fail with ErrBadBinaryFormat before anything is
// allocated for them, and a count within the limits that the file does not
// hold fails at the end of the data, having allocated only for what arrived.
func TestBinaryRejectsForgedHeader(t *testing.T) {
	data := binaryOf(t, smallDirected(t))
	for name, forged := range map[string][]byte{
		"2^62 nodes":            withHeader(data, 1<<62, 4),
		"past MaxInt32":         withHeader(data, math.MaxInt32+1, 4),
		"past maxArcs":          withHeader(data, 4, math.MaxUint32+1),
		"2^30 nodes, few bytes": withHeader(data, 1<<30, 4),
		"2^31 arcs, few bytes":  withHeader(data, 4, 1<<31),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(forged))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadBinaryFormat) {
			t.Errorf("%s: ReadBinary = %v, want ErrBadBinaryFormat", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Errorf("%s: ReadBinary allocated %d B for a %d-byte file", name, alloc, len(forged))
		}
	}
}

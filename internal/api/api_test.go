package api

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

func TestVectorRoundTripExact(t *testing.T) {
	v := sparse.Vector{
		3:   0.1 + 0.2, // a value with no short decimal form
		0:   math.Nextafter(0.5, 1),
		999: 1e-17,
		42:  0.25,
	}
	w := EncodeVector(v)
	for i := 1; i < len(w.Nodes); i++ {
		if w.Nodes[i-1] >= w.Nodes[i] {
			t.Fatalf("encoded nodes not strictly ascending: %v", w.Nodes)
		}
	}
	body, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back Vector
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != len(w.Nodes) || len(back.Scores) != len(w.Scores) {
		t.Fatalf("round trip has %d nodes and %d scores, want %d", len(back.Nodes), len(back.Scores), len(w.Nodes))
	}
	for i, id := range w.Nodes {
		if back.Nodes[i] != id || math.Float64bits(back.Scores[i]) != math.Float64bits(v[id]) {
			t.Errorf("entry %d = (%d, %v) after round trip, want bit-identical (%d, %v)", i, back.Nodes[i], back.Scores[i], id, v[id])
		}
	}
}

func TestVectorEncodingDeterministic(t *testing.T) {
	v := sparse.Vector{7: 0.5, 1: 0.25, 30: 0.125, 2: 0.0625}
	a, _ := json.Marshal(EncodeVector(v))
	b, _ := json.Marshal(EncodeVector(v.Clone()))
	if !bytes.Equal(a, b) {
		t.Errorf("encoding not deterministic:\n%s\n%s", a, b)
	}
}

func TestVectorEncodeRejectsLengthMismatch(t *testing.T) {
	w := Vector{Nodes: []graph.NodeID{1, 2}, Scores: []float64{0.5}}
	if _, err := EncodePartialResponse(1, &PartialResponse{Increment: w}); err == nil {
		t.Error("mismatched lengths should fail to encode into a frame")
	}
}

func TestEncodeMap(t *testing.T) {
	m := map[graph.NodeID]float64{9: 0.75, 4: 0.5}
	got := EncodeMap(m)
	if len(got.Nodes) != 2 || got.Nodes[0] != 4 || got.Nodes[1] != 9 || got.Scores[0] != 0.5 || got.Scores[1] != 0.75 {
		t.Errorf("EncodeMap(%v) = %+v, want nodes [4 9] scores [0.5 0.75]", m, got)
	}
}

func TestErrorImplementsError(t *testing.T) {
	e := &Error{Code: CodeRetry, Message: "index closed"}
	if e.Error() != "retry: index closed" {
		t.Errorf("Error() = %q", e.Error())
	}
}

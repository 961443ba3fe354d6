package workload

import (
	"testing"

	"fastppv/internal/graph"
)

func TestZipfSamplerDeterministic(t *testing.T) {
	a, err := NewZipfSampler(1000, ZipfOptions{S: 1.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewZipfSampler(1000, ZipfOptions{S: 1.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("sample %d: %d != %d with the same seed", i, x, y)
		}
	}
	c, err := NewZipfSampler(1000, ZipfOptions{S: 1.3, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	a2, _ := NewZipfSampler(1000, ZipfOptions{S: 1.3, Seed: 42})
	for i := 0; i < 500; i++ {
		if a2.Next() == c.Next() {
			same++
		}
	}
	if same == 500 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestZipfSamplerSkew(t *testing.T) {
	const nodes, draws = 1000, 20000
	s, err := NewZipfSampler(nodes, ZipfOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[graph.NodeID]int)
	for range draws {
		id := s.Next()
		if id < 0 || int(id) >= nodes {
			t.Fatalf("sample %d outside [0,%d)", id, nodes)
		}
		counts[id]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Under the uniform protocol the expected count is draws/nodes = 20; a
	// Zipfian workload concentrates far more traffic on its hottest node.
	if max < 10*draws/nodes {
		t.Errorf("hottest node drew %d of %d samples; expected heavy skew", max, draws)
	}
	if len(counts) < 2 {
		t.Error("all samples hit a single node; exponent too extreme for a workload")
	}
}

func TestZipfSamplerErrors(t *testing.T) {
	if _, err := NewZipfSampler(0, ZipfOptions{}); err == nil {
		t.Error("no error for zero nodes")
	}
	if _, err := NewZipfSampler(10, ZipfOptions{S: 0.5}); err == nil {
		t.Error("no error for exponent <= 1")
	}
	if _, err := NewZipfSampler(1, ZipfOptions{}); err != nil {
		t.Errorf("single-node sampler: %v", err)
	}
}

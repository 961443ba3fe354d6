package accuracy

import (
	"math"
	"testing"
	"testing/quick"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

func TestPerfectApproximationScoresOne(t *testing.T) {
	exact := sparse.Vector{1: 0.4, 2: 0.3, 3: 0.2, 4: 0.1}
	r := Evaluate(exact, exact.Clone(), 3)
	if r.KendallTau != 1 || r.Precision != 1 || r.RAG != 1 || math.Abs(r.L1Similarity-1) > 1e-12 {
		t.Errorf("identical vectors should score perfectly: %+v", r)
	}
}

func TestPrecisionAtK(t *testing.T) {
	exact := sparse.Vector{1: 0.4, 2: 0.3, 3: 0.2, 4: 0.1}
	approx := sparse.Vector{1: 0.5, 4: 0.4, 5: 0.3} // hits 1 and 4, misses 2 and 3... top3(exact)={1,2,3}
	got := PrecisionAtK(exact, approx, 3)
	// approx top-3 = {1,4,5}; exact top-3 = {1,2,3}; overlap = {1}.
	if math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("PrecisionAtK = %v, want 1/3", got)
	}
	if got := PrecisionAtK(sparse.Vector{}, approx, 3); got != 1 {
		t.Errorf("precision against an empty exact vector should be 1, got %v", got)
	}
}

func TestRAGRewardsGoodSubstitutes(t *testing.T) {
	exact := sparse.Vector{1: 0.30, 2: 0.29, 3: 0.28, 4: 0.01}
	// The approximation swaps node 3 for node 2 (almost as good) — RAG stays
	// high even though precision drops.
	approx := sparse.Vector{1: 0.4, 3: 0.3, 4: 0.2}
	rag := RAG(exact, approx, 2)
	want := (0.30 + 0.28) / (0.30 + 0.29)
	if math.Abs(rag-want) > 1e-12 {
		t.Errorf("RAG = %v, want %v", rag, want)
	}
	if prec := PrecisionAtK(exact, approx, 2); prec != 0.5 {
		t.Errorf("precision = %v, want 0.5", prec)
	}
	if got := RAG(sparse.Vector{}, approx, 2); got != 1 {
		t.Errorf("RAG against empty exact vector should be 1, got %v", got)
	}
}

func TestL1Metrics(t *testing.T) {
	exact := sparse.Vector{1: 0.6, 2: 0.4}
	approx := sparse.Vector{1: 0.5, 3: 0.1}
	wantErr := 0.1 + 0.4 + 0.1
	if got := L1Error(exact, approx); math.Abs(got-wantErr) > 1e-12 {
		t.Errorf("L1Error = %v, want %v", got, wantErr)
	}
	if got := L1Similarity(exact, approx); math.Abs(got-(1-wantErr)) > 1e-12 {
		t.Errorf("L1Similarity = %v, want %v", got, 1-wantErr)
	}
	// Clamping: wildly wrong vectors cannot go below zero.
	big := sparse.Vector{9: 5}
	if got := L1Similarity(exact, big); got != 0 {
		t.Errorf("L1Similarity should clamp at 0, got %v", got)
	}
}

func TestKendallTauOrderings(t *testing.T) {
	exact := sparse.Vector{1: 0.4, 2: 0.3, 3: 0.2, 4: 0.1}
	reversed := sparse.Vector{1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4}
	if got := KendallTau(exact, exact.Clone(), 4); got != 1 {
		t.Errorf("tau of identical rankings = %v, want 1", got)
	}
	if got := KendallTau(exact, reversed, 4); math.Abs(got+1) > 1e-12 {
		t.Errorf("tau of reversed rankings = %v, want -1", got)
	}
	// A flat approximation (all ties) gives tau 0 — no information.
	flat := sparse.Vector{1: 0.1, 2: 0.1, 3: 0.1, 4: 0.1}
	if got := KendallTau(exact, flat, 4); got != 0 {
		t.Errorf("tau against an all-ties ranking = %v, want 0", got)
	}
	// Fewer than two nodes: trivially 1.
	if got := KendallTau(sparse.Vector{1: 1}, sparse.Vector{1: 1}, 5); got != 1 {
		t.Errorf("tau with a single node = %v, want 1", got)
	}
}

func TestEvaluateDefaultsTopK(t *testing.T) {
	exact := sparse.Vector{}
	for i := 0; i < 30; i++ {
		exact[graph.NodeID(i)] = float64(30-i) / 100
	}
	r1 := Evaluate(exact, exact.Clone(), 0) // defaulted to 10
	r2 := Evaluate(exact, exact.Clone(), DefaultTopK)
	if r1 != r2 {
		t.Errorf("Evaluate with k=0 should default to DefaultTopK: %+v vs %+v", r1, r2)
	}
}

func TestAverage(t *testing.T) {
	reports := []Report{
		{KendallTau: 1, Precision: 0.5, RAG: 0.8, L1Similarity: 0.9},
		{KendallTau: 0, Precision: 1.0, RAG: 1.0, L1Similarity: 0.7},
	}
	avg := Average(reports)
	if avg.KendallTau != 0.5 || avg.Precision != 0.75 || math.Abs(avg.RAG-0.9) > 1e-12 || math.Abs(avg.L1Similarity-0.8) > 1e-12 {
		t.Errorf("Average = %+v", avg)
	}
	if got := Average(nil); got != (Report{}) {
		t.Errorf("Average(nil) = %+v, want zero report", got)
	}
}

// TestQuickMetricBounds property-tests that all metrics stay within their
// documented ranges for arbitrary non-negative score vectors.
func TestQuickMetricBounds(t *testing.T) {
	build := func(raw []float64) sparse.Vector {
		v := sparse.New(len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v.Set(graph.NodeID(i%40), math.Abs(math.Mod(x, 1)))
		}
		return v
	}
	f := func(exactRaw, approxRaw []float64) bool {
		exact, approx := build(exactRaw), build(approxRaw)
		r := Evaluate(exact, approx, 10)
		if r.KendallTau < -1-1e-9 || r.KendallTau > 1+1e-9 {
			return false
		}
		if r.Precision < 0 || r.Precision > 1 {
			return false
		}
		if r.RAG < 0 || r.RAG > 1+1e-9 {
			return false
		}
		return r.L1Similarity >= 0 && r.L1Similarity <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

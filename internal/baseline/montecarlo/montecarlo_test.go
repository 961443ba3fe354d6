package montecarlo

import (
	"testing"

	"fastppv/internal/accuracy"
	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/pagerank"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.RandomDirected(150, 4, 9)
	if err != nil {
		t.Fatalf("RandomDirected: %v", err)
	}
	return g
}

func TestQueryApproximatesExactPPV(t *testing.T) {
	g := testGraph(t)
	e, err := New(g, Options{SamplesPerQuery: 20000, NumHubs: 0, Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	res, err := e.Query(3)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	exact, err := pagerank.ExactPPV(g, 3, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := accuracy.Evaluate(exact, res.Estimate, 10)
	if rep.Precision < 0.6 || rep.RAG < 0.9 {
		t.Errorf("MonteCarlo with 20k samples is too inaccurate: %+v", rep)
	}
	if res.Estimate.Sum() > 1+1e-9 {
		t.Errorf("estimate mass %v exceeds 1", res.Estimate.Sum())
	}
	if res.Walks != 20000 {
		t.Errorf("Walks = %d, want 20000", res.Walks)
	}
}

func TestMoreSamplesImproveAccuracy(t *testing.T) {
	g := testGraph(t)
	few, err := New(g, Options{SamplesPerQuery: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := few.Precompute(); err != nil {
		t.Fatal(err)
	}
	many, err := New(g, Options{SamplesPerQuery: 50000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := many.Precompute(); err != nil {
		t.Fatal(err)
	}
	exact, err := pagerank.ExactPPV(g, 0, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := few.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := many.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	if exact.L1Distance(mr.Estimate) >= exact.L1Distance(fr.Estimate) {
		t.Errorf("more samples should reduce the L1 error: %.4f (50k) vs %.4f (200)",
			exact.L1Distance(mr.Estimate), exact.L1Distance(fr.Estimate))
	}
}

func TestQueriesAreDeterministicPerSeed(t *testing.T) {
	g := testGraph(t)
	e, err := New(g, Options{SamplesPerQuery: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	a, err := e.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Estimate.L1Distance(b.Estimate); d != 0 {
		t.Errorf("repeated query differs by %v, want identical results for a fixed seed", d)
	}
}

func TestHubFingerprintsAreUsed(t *testing.T) {
	g := testGraph(t)
	e, err := New(g, Options{SamplesPerQuery: 5000, NumHubs: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	if len(e.Hubs()) != 30 {
		t.Fatalf("Hubs() returned %d, want 30", len(e.Hubs()))
	}
	if e.OfflineStats().IndexEntries == 0 {
		t.Error("offline fingerprints missing")
	}
	res, err := e.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.HubHits == 0 {
		t.Error("expected some walks to finish through hub fingerprints")
	}
	// Accuracy should still be reasonable when reusing hub fingerprints.
	exact, err := pagerank.ExactPPV(g, 2, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := accuracy.Evaluate(exact, res.Estimate, 10)
	if rep.RAG < 0.85 {
		t.Errorf("hub fingerprint reuse degraded RAG to %.3f", rep.RAG)
	}
}

func TestWalkAbsorbedAtDanglingNodes(t *testing.T) {
	// 0 -> 1 with 1 dangling: every walk either stops at 0 or is absorbed at
	// 1 after the first step, so the estimate lives on {0, 1} and sums below 1.
	b := graph.NewBuilder(true)
	b.EnsureNodes(2)
	b.MustAddEdge(0, 1)
	g := b.Finalize()
	e, err := New(g, Options{SamplesPerQuery: 5000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Get(0) == 0 {
		t.Error("query node should retain mass")
	}
	if sum := res.Estimate.Sum(); sum >= 1 {
		t.Errorf("with an absorbing dangling node the estimate should sum below 1, got %v", sum)
	}
}

func TestValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil graph should be rejected")
	}
	if _, err := New(g, Options{Alpha: -1}); err == nil {
		t.Error("invalid alpha should be rejected")
	}
	if _, err := New(g, Options{SamplesPerQuery: -5}); err == nil {
		t.Error("negative sample count should be rejected")
	}
	e, err := New(g, Options{SamplesPerQuery: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(-1); err == nil {
		t.Error("negative query node should fail")
	}
}

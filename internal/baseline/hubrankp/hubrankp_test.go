package hubrankp

import (
	"testing"

	"fastppv/internal/accuracy"
	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/pagerank"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.RandomDirected(200, 4, 3)
	if err != nil {
		t.Fatalf("RandomDirected: %v", err)
	}
	return g
}

func TestQueryApproximatesExactPPV(t *testing.T) {
	g := testGraph(t)
	r, err := New(g, Options{NumHubs: 20, Push: 1e-6, Clip: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := r.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	for q := graph.NodeID(0); q < 5; q++ {
		res, err := r.Query(q)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		exact, err := pagerank.ExactPPV(g, q, pagerank.Options{})
		if err != nil {
			t.Fatalf("ExactPPV: %v", err)
		}
		rep := accuracy.Evaluate(exact, res.Estimate, 10)
		if rep.Precision < 0.8 {
			t.Errorf("q=%d: precision %.3f below 0.8 at a tight push threshold", q, rep.Precision)
		}
		if rep.L1Similarity < 0.95 {
			t.Errorf("q=%d: L1 similarity %.3f below 0.95 at a tight push threshold", q, rep.L1Similarity)
		}
		if res.Estimate.Sum() > 1+1e-9 {
			t.Errorf("q=%d: estimate mass %.6f exceeds 1", q, res.Estimate.Sum())
		}
	}
}

func TestTighterPushImprovesAccuracy(t *testing.T) {
	g := testGraph(t)
	loose, err := New(g, Options{NumHubs: 10, Push: 1e-2, Clip: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := loose.Precompute(); err != nil {
		t.Fatal(err)
	}
	tight, err := New(g, Options{NumHubs: 10, Push: 1e-6, Clip: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tight.Precompute(); err != nil {
		t.Fatal(err)
	}
	exact, err := pagerank.ExactPPV(g, 1, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := loose.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tight.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	if exact.L1Distance(tr.Estimate) > exact.L1Distance(lr.Estimate)+1e-9 {
		t.Errorf("tighter push threshold should not be less accurate: %.4f vs %.4f",
			exact.L1Distance(tr.Estimate), exact.L1Distance(lr.Estimate))
	}
	if tr.Pushes <= lr.Pushes {
		t.Errorf("tighter push threshold should perform more pushes: %d vs %d", tr.Pushes, lr.Pushes)
	}
}

func TestHubReuseReducesOnlinePushes(t *testing.T) {
	g := testGraph(t)
	without, err := New(g, Options{NumHubs: 0, Push: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if err := without.Precompute(); err != nil {
		t.Fatal(err)
	}
	with, err := New(g, Options{NumHubs: 40, Push: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if err := with.Precompute(); err != nil {
		t.Fatal(err)
	}
	var pushesWithout, pushesWith, hubHits int
	for q := graph.NodeID(0); q < 10; q++ {
		a, err := without.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := with.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		pushesWithout += a.Pushes
		pushesWith += b.Pushes
		hubHits += b.HubHits
	}
	if hubHits == 0 {
		t.Error("expected at least one hub PPV splice with 40 indexed hubs")
	}
	if pushesWith >= pushesWithout {
		t.Errorf("hub reuse should reduce online pushes: %d vs %d", pushesWith, pushesWithout)
	}
}

func TestOfflineStatsPopulated(t *testing.T) {
	g := testGraph(t)
	r, err := New(g, Options{NumHubs: 15, Push: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Precompute(); err != nil {
		t.Fatal(err)
	}
	off := r.OfflineStats()
	if off.Hubs != 15 || off.IndexEntries == 0 || off.IndexBytes == 0 {
		t.Errorf("OfflineStats = %+v", off)
	}
	if len(r.Hubs()) != 15 {
		t.Errorf("Hubs() returned %d hubs, want 15", len(r.Hubs()))
	}
}

func TestValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil graph should be rejected")
	}
	if _, err := New(g, Options{Alpha: 2}); err == nil {
		t.Error("invalid alpha should be rejected")
	}
	if _, err := New(g, Options{Push: -1}); err == nil {
		t.Error("negative push threshold should be rejected")
	}
	if _, err := New(g, Options{NumHubs: -1}); err == nil {
		t.Error("negative hub count should be rejected")
	}
	r, err := New(g, Options{NumHubs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Precompute(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Query(graph.NodeID(g.NumNodes())); err == nil {
		t.Error("out-of-range query should fail")
	}
}

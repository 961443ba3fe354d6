package core

import (
	"math"
	"math/rand"
	"testing"

	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/prime"
)

// The push precision rule: unless Epsilon is set, every prime push stops at
// Clip/100, since the index keeps nothing finer than the clip anyway.

func TestDefaultEpsilonDerivedFromClip(t *testing.T) {
	g, err := gen.RandomDirected(50, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
		want float64
	}{
		{"defaults", Options{}, DefaultClip / 100},
		{"explicit clip", Options{Clip: 1e-3}, 1e-5},
		{"clip disabled", Options{Clip: -1}, prime.DefaultEpsilon},
		{"explicit epsilon", Options{Epsilon: 1e-7}, 1e-7},
		{"explicit epsilon, clip disabled", Options{Epsilon: 1e-3, Clip: -1}, 1e-3},
	} {
		e, err := NewEngine(g, nil, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Options().Epsilon; got != tc.want {
			t.Errorf("%s: Epsilon %v, want %v", tc.name, got, tc.want)
		}
	}
}

// precisionStops are the stopping points the soundness check covers.
var precisionStops = []StopCondition{
	{MaxIterations: 0},
	{MaxIterations: 2},
	{MaxIterations: 8},
	{MaxIterations: -1, TargetL1Error: 0.25},
}

// checkSound queries every source at every precisionStops point and asserts
// that the reported bound covers the true L1 error and never grows from one
// iteration to the next.
func checkSound(t *testing.T, label string, e *Engine, sources []graph.NodeID) {
	t.Helper()
	for _, q := range sources {
		exact, err := e.ExactPPV(q)
		if err != nil {
			t.Fatalf("%s: ExactPPV(%d): %v", label, q, err)
		}
		for _, stop := range precisionStops {
			res, err := e.Query(q, stop)
			if err != nil {
				t.Fatalf("%s: Query(%d): %v", label, q, err)
			}
			if d := exact.L1Distance(res.Estimate); d > res.L1ErrorBound+1e-12 {
				t.Errorf("%s q=%d stop=%+v: true L1 error %.15f exceeds the bound %.15f",
					label, q, stop, d, res.L1ErrorBound)
			}
			for i := 1; i < len(res.PerIteration); i++ {
				if prev, cur := res.PerIteration[i-1].L1ErrorBound, res.PerIteration[i].L1ErrorBound; cur > prev {
					t.Errorf("%s q=%d: iteration %d raised the bound %.15f -> %.15f", label, q, i, prev, cur)
				}
			}
		}
	}
}

// mixedSources returns n hubs spread over the hub list and n non-hub nodes.
func mixedSources(e *Engine, n int) []graph.NodeID {
	hubs := e.Hubs().Hubs()
	out := make([]graph.NodeID, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out, hubs[i*len(hubs)/n])
	}
	return append(out, nonHubSources(e, 0, n)...)
}

// randomUpdate returns a batch of two added and one removed edge.
func randomUpdate(rng *rand.Rand, g *graph.Graph) GraphUpdate {
	n := g.NumNodes()
	var upd GraphUpdate
	for len(upd.AddedEdges) < 2 {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			upd.AddedEdges = append(upd.AddedEdges, graph.Edge{From: u, To: v})
		}
	}
	for len(upd.RemovedEdges) < 1 {
		u := graph.NodeID(rng.Intn(n))
		if out := g.OutNeighbors(u); len(out) > 1 {
			upd.RemovedEdges = append(upd.RemovedEdges, graph.Edge{From: u, To: out[rng.Intn(len(out))]})
		}
	}
	return upd
}

// TestBoundSoundAtDefaultPrecision holds Theorem 2's guarantee at the default
// options (default clip, derived epsilon, delta pruning on): on a social and
// a uniform random graph, before and after a sequence of updates, and on an
// index pushed at a finer epsilon than the engine serving it.
func TestBoundSoundAtDefaultPrecision(t *testing.T) {
	social, err := gen.SocialGraph(gen.SocialConfig{Nodes: 1000, OutDegreeMean: 6, Attachment: 0.8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := gen.RandomDirected(1000, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"social", social}, {"uniform", uniform}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{NumHubs: 100}
			e, err := NewEngine(tc.g, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Precompute(); err != nil {
				t.Fatal(err)
			}
			sources := mixedSources(e, 21)
			checkSound(t, "fresh", e, sources)

			fine := opts
			fine.Epsilon = prime.DefaultEpsilon
			pushed, err := NewEngine(tc.g, nil, fine)
			if err != nil {
				t.Fatal(err)
			}
			if err := pushed.Precompute(); err != nil {
				t.Fatal(err)
			}
			mixed, err := NewServingEngine(tc.g, tc.g, pushed.Index().(IndexStore), opts)
			if err != nil {
				t.Fatal(err)
			}
			checkSound(t, "index at 1e-8, served at the default", mixed, sources)

			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 20; i++ {
				if _, err := e.ApplyUpdate(randomUpdate(rng, e.Graph())); err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
			}
			checkSound(t, "after 20 updates", e, sources)
		})
	}
}

// TestDerivedEpsilonAccuracyCost pins the Clip/100 divisor: on a uniform
// out-degree-6 graph the mean eta=2 bound at the default precision stays
// within 1 % of the bound at epsilon = 1e-8 (+0.34 % measured; Clip/10
// measured +3.2 % and fails here).
func TestDerivedEpsilonAccuracyCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the 1e-8 precompute ~20×, and the bound it pins is the same without it")
	}
	g, err := gen.RandomDirected(5000, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	meanBound := func(epsilon float64) float64 {
		e, err := NewEngine(g, nil, Options{NumHubs: 500, Epsilon: epsilon})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Precompute(); err != nil {
			t.Fatal(err)
		}
		var sum float64
		const sources = 40
		for i := 0; i < sources; i++ {
			res, err := e.Query(graph.NodeID(i*g.NumNodes()/sources), StopCondition{MaxIterations: 2})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.L1ErrorBound
		}
		return sum / sources
	}
	fine, derived := meanBound(prime.DefaultEpsilon), meanBound(0)
	cost := (derived - fine) / fine
	t.Logf("mean eta=2 bound: %.6f at epsilon 1e-8, %.6f at the default (%+.2f %%)", fine, derived, 100*cost)
	if math.Abs(cost) > 0.01 {
		t.Errorf("the default push precision moves the mean eta=2 bound by %+.2f %%, more than 1 %%", 100*cost)
	}
}

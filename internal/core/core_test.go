package core

import (
	"math"
	"testing"

	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/hub"
	"fastppv/internal/pagerank"
	"fastppv/internal/sparse"
)

// toyGraph builds the running example of Fig. 1: an 8-node DAG rooted at a.
// Node order: a=0, b=1, c=2, d=3, e=4, f=5, g=6, h=7.
func toyGraph(t testing.TB) (*graph.Graph, map[string]graph.NodeID) {
	t.Helper()
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	b := graph.NewBuilder(true)
	ids := make(map[string]graph.NodeID, len(names))
	for _, n := range names {
		ids[n] = b.AddLabeledNode(n)
	}
	edges := [][2]string{
		{"a", "b"}, {"a", "c"}, {"a", "d"}, {"a", "f"}, {"a", "h"},
		{"b", "c"}, {"b", "d"}, {"b", "e"},
		{"d", "c"}, {"d", "e"},
		{"f", "d"}, {"f", "g"},
		{"g", "d"},
		{"h", "c"},
	}
	for _, e := range edges {
		b.MustAddEdge(ids[e[0]], ids[e[1]])
	}
	return b.Finalize(), ids
}

// exactOptions returns engine options with all approximation knobs disabled,
// so that the engine should converge to the exact PPV when run to exhaustion.
func exactOptions(numHubs int) Options {
	return Options{
		NumHubs: numHubs,
		Delta:   -1, // disable the delta prune
		Clip:    -1, // disable storage clipping
		Epsilon: 1e-14,
	}
}

// storedLoss bounds the mass that storing hub records as 16-bit score codes
// rounded toward zero (sparse.StoredScore) takes from an estimate on a graph
// of n nodes, against the same schedule over float64 records. The constants
// are the format's, not tolerances: a stored score keeps an 11-bit mantissa,
// so it lies below the pushed one by less than 2^-11 of it, and a score below
// 2^-31, the smallest code's, is not stored at all. So a record of at most n
// entries folded at scale s loses less than (2^-11 + n·2^-31)·s (a prime
// PPV's mass is at most 1). A unit of mass lost on a hub also drops that
// hub's later expansions, at most (1-alpha)/alpha more, so a unit lost costs
// at most 1/alpha in all. The query's own record folds at scale 1 (and is
// stored only when the query is a hub); a hub expanded with prefix p folds at
// p/alpha, and the prefixes of every iteration together sum to the estimate's
// mass on hubs, at most 1. So the loss stays below
// (2^-11 + n·2^-31)/alpha·(1 + 1/alpha) whatever the iteration count: about
// 0.025 at the default alpha of 0.15 on a small graph.
func storedLoss(alpha float64, n int) float64 {
	return (0x1p-11 + float64(n)*0x1p-31) / alpha * (1 + 1/alpha)
}

// checkLowerBound asserts the soundness contract that records rounded toward
// zero keep: the estimate exceeds the exact PPV at no node by more than 1e-15
// (float64 rounding), and its L1 distance to it is at most the bound phi. It
// returns that distance.
func checkLowerBound(t testing.TB, exact, est sparse.Vector, phi float64) float64 {
	t.Helper()
	for v, s := range est {
		if s > exact.Get(v)+1e-15 {
			t.Fatalf("estimate %.17g at node %d is above the exact %.17g", s, v, exact.Get(v))
		}
	}
	d := exact.L1Distance(est)
	if d > phi+1e-15 {
		t.Fatalf("L1 distance %.3g to the exact PPV is above the bound %.3g", d, phi)
	}
	return d
}

func newToyEngine(t testing.TB, hubNames []string) (*Engine, map[string]graph.NodeID) {
	t.Helper()
	g, ids := toyGraph(t)
	opts := exactOptions(len(hubNames))
	e, err := NewEngine(g, nil, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// Force the exact hub set {b, d, f} of Fig. 3 regardless of policy by
	// selecting via a custom PageRank vector that ranks them on top.
	pr := make([]float64, g.NumNodes())
	for i := range pr {
		pr[i] = 0.001
	}
	for rank, name := range hubNames {
		pr[ids[name]] = 1 - float64(rank)*0.01
	}
	e.opts.PageRank = pr
	e.opts.HubPolicy = hub.ByPageRank
	if err := e.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	return e, ids
}

func TestToyGraphIteration0Reachability(t *testing.T) {
	e, ids := newToyEngine(t, []string{"b", "d", "f"})
	const alpha = pagerank.DefaultAlpha

	res, err := e.Query(ids["a"], StopCondition{MaxIterations: 0})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// T0 tours ending at c: a->c and a->h->c (h is not a hub).
	wantC := alpha*(1-alpha)/5 + alpha*(1-alpha)*(1-alpha)/5
	if got := res.Estimate.Get(ids["c"]); math.Abs(got-wantC) > 1e-12 {
		t.Errorf("iteration-0 score of c = %.6f, want %.6f", got, wantC)
	}
	// T0 tours ending at d: only a->d (a->f->d and a->b->d pass a hub...
	// no: f and b are hubs, so those tours have hub length 1). Only a->d.
	wantD := alpha * (1 - alpha) / 5
	if got := res.Estimate.Get(ids["d"]); math.Abs(got-wantD) > 1e-12 {
		t.Errorf("iteration-0 score of d = %.6f, want %.6f", got, wantD)
	}
	// e and g are only reachable through hubs, so their iteration-0 score is 0.
	if got := res.Estimate.Get(ids["e"]); got != 0 {
		t.Errorf("iteration-0 score of e = %v, want 0", got)
	}
	if res.Iterations != 0 {
		t.Errorf("Iterations = %d, want 0", res.Iterations)
	}
}

func TestToyGraphIteration1AddsOneHopHubTours(t *testing.T) {
	e, ids := newToyEngine(t, []string{"b", "d", "f"})
	const alpha = pagerank.DefaultAlpha

	res, err := e.Query(ids["a"], StopCondition{MaxIterations: 1})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// After iteration 1 the score of c covers tours with at most 1 interior
	// hub: a->c, a->h->c, a->d->c, a->b->c.
	want := alpha*(1-alpha)/5 +
		alpha*math.Pow(1-alpha, 2)/5 +
		alpha*math.Pow(1-alpha, 2)/(5*2) +
		alpha*math.Pow(1-alpha, 2)/(5*3)
	// The query's own push is not stored; each hub tour folds one stored
	// score, below the pushed one by less than 2^-11 of it. So the score of c
	// lies below want by less than 2^-11·want, never above it.
	if got := res.Estimate.Get(ids["c"]); got > want+1e-15 || want-got > 0x1p-11*want+1e-15 {
		t.Errorf("iteration-1 score of c = %.17g, want %.17g less at most 2^-11 of it", got, want)
	}
}

func TestToyGraphConvergesToExact(t *testing.T) {
	e, ids := newToyEngine(t, []string{"b", "d", "f"})
	exact, err := e.ExactPPV(ids["a"])
	if err != nil {
		t.Fatalf("ExactPPV: %v", err)
	}
	res, err := e.Query(ids["a"], Exhaustive(0))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// 1e-9 is the exhaustive run's own distance over float64 records;
	// storedLoss is what storing them as score codes may add.
	d := checkLowerBound(t, exact, res.Estimate, res.L1ErrorBound)
	if d > 1e-9+storedLoss(pagerank.DefaultAlpha, e.Graph().NumNodes()) {
		t.Fatalf("exhaustive FastPPV differs from exact PPV by L1 %.3g", d)
	}
}

func TestConvergesToExactOnCyclicGraphs(t *testing.T) {
	// Directed cyclic graphs exercise the tour-assembly model where tours
	// revisit hubs; the self-loop-corrected extension (Theorem 4) is required
	// for this test to pass: without it tours are counted twice and the
	// estimate rises above the exact PPV. 1e-5 is the distance 120 iterations
	// leave over float64 records; storedLoss is what the score codes may add.
	configs := []struct {
		nodes, outDeg, hubs int
		seed                int64
	}{
		{nodes: 40, outDeg: 3, hubs: 6, seed: 1},
		{nodes: 80, outDeg: 4, hubs: 10, seed: 2},
		{nodes: 120, outDeg: 2, hubs: 15, seed: 3},
	}
	for _, cfg := range configs {
		g, err := gen.RandomDirected(cfg.nodes, cfg.outDeg, cfg.seed)
		if err != nil {
			t.Fatalf("RandomDirected: %v", err)
		}
		e, err := NewEngine(g, nil, exactOptions(cfg.hubs))
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		if err := e.Precompute(); err != nil {
			t.Fatalf("Precompute: %v", err)
		}
		for q := graph.NodeID(0); q < 5; q++ {
			exact, err := e.ExactPPV(q)
			if err != nil {
				t.Fatalf("ExactPPV: %v", err)
			}
			res, err := e.Query(q, StopCondition{MaxIterations: 120})
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			if d := checkLowerBound(t, exact, res.Estimate, res.L1ErrorBound); d > 1e-5+storedLoss(pagerank.DefaultAlpha, cfg.nodes) {
				t.Errorf("nodes=%d q=%d: L1 distance to exact %.3g after %d iterations",
					cfg.nodes, q, d, res.Iterations)
			}
		}
	}
}

func TestTheorem1MonotonicEstimates(t *testing.T) {
	g, err := gen.RandomDirected(60, 3, 11)
	if err != nil {
		t.Fatalf("RandomDirected: %v", err)
	}
	e, err := NewEngine(g, nil, exactOptions(8))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	qs, err := e.NewQuery(0)
	if err != nil {
		t.Fatalf("NewQuery: %v", err)
	}
	prev := sparse.FromEntries(qs.Result().Entries)
	prevBound := qs.L1ErrorBound()
	for i := 0; i < 10; i++ {
		qs.Step()
		cur := sparse.FromEntries(qs.Result().Entries)
		for node, before := range prev {
			if cur.Get(node) < before-1e-12 {
				t.Fatalf("iteration %d decreased score of node %d: %.12f -> %.12f", i+1, node, before, cur.Get(node))
			}
		}
		if b := qs.L1ErrorBound(); b > prevBound+1e-12 {
			t.Fatalf("iteration %d increased the L1 error bound: %.12f -> %.12f", i+1, prevBound, b)
		}
		prev = cur
		prevBound = qs.L1ErrorBound()
	}
}

func TestTheorem2ErrorBound(t *testing.T) {
	// On a graph with no dangling nodes, phi(k) <= (1-alpha)^(k+2).
	g, err := gen.RandomDirected(100, 4, 5)
	if err != nil {
		t.Fatalf("RandomDirected: %v", err)
	}
	e, err := NewEngine(g, nil, exactOptions(12))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	alpha := e.Options().Alpha
	for q := graph.NodeID(0); q < 3; q++ {
		qs, err := e.NewQuery(q)
		if err != nil {
			t.Fatalf("NewQuery: %v", err)
		}
		for k := 0; k <= 8; k++ {
			bound := math.Pow(1-alpha, float64(k+2))
			if phi := qs.L1ErrorBound(); phi > bound+1e-9 {
				t.Errorf("q=%d k=%d: phi=%.6f exceeds theorem bound %.6f", q, k, phi, bound)
			}
			qs.Step()
		}
	}
}

func TestAccuracyAwareBoundMatchesTrueError(t *testing.T) {
	// With no dangling nodes and all pruning disabled, the computable bound
	// phi = 1 - sum(estimate) equals the true L1 error up to the exact-PPV
	// solver tolerance.
	g, err := gen.RandomDirected(60, 3, 21)
	if err != nil {
		t.Fatalf("RandomDirected: %v", err)
	}
	e, err := NewEngine(g, nil, exactOptions(8))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	exact, err := e.ExactPPV(3)
	if err != nil {
		t.Fatalf("ExactPPV: %v", err)
	}
	qs, err := e.NewQuery(3)
	if err != nil {
		t.Fatalf("NewQuery: %v", err)
	}
	for k := 0; k < 6; k++ {
		trueErr := exact.L1Distance(sparse.FromEntries(qs.Result().Entries))
		phi := qs.L1ErrorBound()
		if math.Abs(trueErr-phi) > 1e-6 {
			t.Errorf("k=%d: computable bound %.8f differs from true L1 error %.8f", k, phi, trueErr)
		}
		qs.Step()
	}
}

func TestQueryOnHubNodeUsesIndex(t *testing.T) {
	e, _ := newToyEngine(t, []string{"b", "d", "f"})
	hubNode := e.Hubs().Hubs()[0]
	res, err := e.Query(hubNode, StopCondition{MaxIterations: 1})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.QueryPPVComputed {
		t.Errorf("query on hub node %d recomputed its prime PPV instead of using the index", hubNode)
	}
	exact, err := e.ExactPPV(hubNode)
	if err != nil {
		t.Fatalf("ExactPPV: %v", err)
	}
	full, err := e.Query(hubNode, Exhaustive(0))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// The hub's own record is stored too; storedLoss counts it (see
	// TestToyGraphConvergesToExact for the 1e-9).
	if d := checkLowerBound(t, exact, full.Estimate, full.L1ErrorBound); d > 1e-9+storedLoss(pagerank.DefaultAlpha, e.Graph().NumNodes()) {
		t.Errorf("hub-node query does not converge to exact PPV (L1 %.3g)", d)
	}
}

func TestStopConditionTargetL1Error(t *testing.T) {
	g, err := gen.RandomDirected(100, 4, 9)
	if err != nil {
		t.Fatalf("RandomDirected: %v", err)
	}
	e, err := NewEngine(g, nil, exactOptions(12))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	target := 0.05
	res, err := e.Query(2, StopCondition{MaxIterations: -1, TargetL1Error: target})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.L1ErrorBound > target {
		t.Errorf("stopped with bound %.4f above target %.4f", res.L1ErrorBound, target)
	}
	// It should not have run to exhaustion: the bound of the second-to-last
	// iteration must have been above the target.
	if n := len(res.PerIteration); n >= 2 {
		if res.PerIteration[n-2].L1ErrorBound <= target {
			t.Errorf("ran an extra iteration after reaching the target")
		}
	}
}

func TestStopConditionMaxIterations(t *testing.T) {
	e, ids := newToyEngine(t, []string{"b", "d", "f"})
	for _, eta := range []int{0, 1, 2, 3} {
		res, err := e.Query(ids["a"], StopCondition{MaxIterations: eta})
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		if res.Iterations > eta {
			t.Errorf("eta=%d but ran %d iterations", eta, res.Iterations)
		}
	}
}

// TestPerIterationSizedOnce: a query that runs its eta records its stats into
// one slice sized from the stop, so a retained answer is charged for exactly
// the stats it holds.
func TestPerIterationSizedOnce(t *testing.T) {
	g, err := gen.RandomDirected(200, 5, 17)
	if err != nil {
		t.Fatal(err)
	}
	opts := exactOptions(40)
	e, err := NewEngine(g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	for eta := 0; eta <= 3; eta++ {
		stop := StopCondition{MaxIterations: eta}
		res, err := e.Query(3, stop)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := e.NewQuery(3)
		if err != nil {
			t.Fatal(err)
		}
		served := qs.Serve(stop, func([]sparse.Entry) {})
		for _, c := range []struct {
			name string
			r    *Result
		}{{"Query", res}, {"Serve", served}} {
			name, r := c.name, c.r
			if r.Iterations != eta {
				t.Fatalf("%s eta=%d: ran %d iterations; the case needs all of them", name, eta, r.Iterations)
			}
			if n, c := len(r.PerIteration), cap(r.PerIteration); n != eta+1 || c != n {
				t.Errorf("%s eta=%d: PerIteration len %d cap %d, want both %d", name, eta, n, c, eta+1)
			}
		}
	}
}

func TestDeltaPruningSkipsLowMassHubs(t *testing.T) {
	g, err := gen.RandomDirected(200, 5, 17)
	if err != nil {
		t.Fatalf("RandomDirected: %v", err)
	}
	strict, err := NewEngine(g, nil, Options{NumHubs: 30, Delta: -1, Clip: -1})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := strict.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	pruned, err := NewEngine(g, nil, Options{NumHubs: 30, Delta: 0.01, Clip: -1})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := pruned.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	rs, err := strict.Query(0, StopCondition{MaxIterations: 3})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	rp, err := pruned.Query(0, StopCondition{MaxIterations: 3})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var strictExpanded, prunedExpanded, prunedSkipped int
	for _, it := range rs.PerIteration {
		strictExpanded += it.HubsExpanded
	}
	for _, it := range rp.PerIteration {
		prunedExpanded += it.HubsExpanded
		prunedSkipped += it.HubsSkipped
	}
	if prunedSkipped == 0 {
		t.Errorf("delta=0.01 pruned no hubs; expected some pruning on this graph")
	}
	if prunedExpanded >= strictExpanded {
		t.Errorf("delta pruning did not reduce expanded hubs: %d >= %d", prunedExpanded, strictExpanded)
	}
	// Pruning only removes tours, so the pruned estimate is a lower
	// approximation of the strict one.
	if rp.Estimate.Sum() > rs.Estimate.Sum()+1e-12 {
		t.Errorf("pruned estimate mass %.6f exceeds unpruned mass %.6f", rp.Estimate.Sum(), rs.Estimate.Sum())
	}
	for node, score := range rp.Estimate {
		if score > rs.Estimate.Get(node)+1e-12 {
			t.Fatalf("pruned score of node %d exceeds unpruned score", node)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	g, _ := toyGraph(t)
	e, err := NewEngine(g, nil, exactOptions(2))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := e.Query(0, StopCondition{}); err == nil {
		t.Errorf("Query before Precompute should fail")
	}
	if err := e.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	if _, err := e.Query(graph.NodeID(g.NumNodes()), StopCondition{}); err == nil {
		t.Errorf("Query with out-of-range node should fail")
	}
	if _, err := e.Query(-1, StopCondition{}); err == nil {
		t.Errorf("Query with negative node should fail")
	}
}

func TestNewEngineValidation(t *testing.T) {
	g, _ := toyGraph(t)
	if _, err := NewEngine(nil, nil, Options{}); err == nil {
		t.Errorf("NewEngine(nil graph) should fail")
	}
	if _, err := NewEngine(g, nil, Options{Alpha: 1.5}); err == nil {
		t.Errorf("NewEngine with alpha > 1 should fail")
	}
	if _, err := NewEngine(g, nil, Options{NumHubs: -3}); err == nil {
		t.Errorf("NewEngine with negative NumHubs should fail")
	}
}

// TestOptionsRejectNonFinite: a NaN compares false with everything, so a
// bound check written as "x <= 0 || x >= 1" lets it through. NaN and the
// infinities are refused for every float option; a negative delta or clip
// still means "disabled".
func TestOptionsRejectNonFinite(t *testing.T) {
	g, _ := toyGraph(t)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"defaults", Options{}, true},
		{"NaN alpha", Options{Alpha: nan}, false},
		{"+Inf alpha", Options{Alpha: inf}, false},
		{"-Inf alpha", Options{Alpha: -inf}, false},
		{"NaN epsilon", Options{Epsilon: nan}, false},
		{"+Inf epsilon", Options{Epsilon: inf}, false},
		{"-Inf epsilon", Options{Epsilon: -inf}, false},
		{"NaN delta", Options{Delta: nan}, false},
		{"+Inf delta", Options{Delta: inf}, false},
		{"-Inf delta", Options{Delta: -inf}, false},
		{"negative delta disables the prune", Options{Delta: -1}, true},
		{"NaN clip", Options{Clip: nan}, false},
		{"+Inf clip", Options{Clip: inf}, false},
		{"-Inf clip", Options{Clip: -inf}, false},
		{"negative clip disables clipping", Options{Clip: -1}, true},
	}
	for _, tc := range cases {
		_, err := NewEngine(g, nil, tc.opts)
		if (err == nil) != tc.ok {
			t.Errorf("%s: NewEngine error %v, want accepted=%v", tc.name, err, tc.ok)
		}
	}
}

func TestEstimateMassNeverExceedsOne(t *testing.T) {
	// The estimate is a lower approximation of a probability vector; its mass
	// must never exceed 1 (this is what the naive, uncorrected assembly would
	// violate by double counting tours ending at hubs).
	bib, err := gen.NewBibliographic(gen.BibliographicConfig{
		Papers: 400, Authors: 250, Venues: 20,
		AuthorsPerPaperMean: 2.5, Zipf: 1.4, YearMin: 2000, YearMax: 2010, Seed: 3,
	})
	if err != nil {
		t.Fatalf("NewBibliographic: %v", err)
	}
	e, err := NewEngine(bib.Graph, nil, exactOptions(40))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	for q := graph.NodeID(0); q < 10; q++ {
		res, err := e.Query(q, StopCondition{MaxIterations: 25})
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		if sum := res.Estimate.Sum(); sum > 1+1e-9 {
			t.Errorf("q=%d: estimate mass %.9f exceeds 1", q, sum)
		}
	}
}

func TestResultTopK(t *testing.T) {
	e, ids := newToyEngine(t, []string{"b", "d", "f"})
	res, err := e.Query(ids["a"], Exhaustive(0))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	top := res.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK(3) returned %d entries", len(top))
	}
	// The query node itself always carries the teleport mass alpha and ranks
	// first; c is the most reachable other node in the running example.
	if top[0].Node != ids["a"] {
		t.Errorf("top-1 node = %s, want the query node a", e.Graph().Label(top[0].Node))
	}
	if top[1].Node != ids["c"] {
		t.Errorf("top-2 node = %s, want c", e.Graph().Label(top[1].Node))
	}
	var _ sparse.Entry = top[0]
}

// sameEntryBits reports whether two entry slices hold the same nodes with
// bit-identical scores, in the same order.
func sameEntryBits(a, b []sparse.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestResultEntriesAndEstimate: a result's sorted Entries are the estimate.
// Engine.Query alone adds the map view, holding exactly those bits; QueryOn,
// Run and QueryState.Result — before and after a Step and after Close —
// build no map, and their entries are Engine.Query's bits.
func TestResultEntriesAndEstimate(t *testing.T) {
	e := socialEngine(t, 1500, 5)
	stop := StopCondition{MaxIterations: 2}
	for _, q := range append(nonHubSources(e, 100, 3), e.Hubs().Hubs()[:2]...) {
		public, err := e.Query(q, stop)
		if err != nil {
			t.Fatal(err)
		}
		if public.Estimate == nil || !sameEntryBits(public.Entries, public.Estimate.AppendSorted(nil)) {
			t.Errorf("q=%d: Engine.Query's Entries (%d) and Estimate (%d) disagree", q, len(public.Entries), len(public.Estimate))
		}
		check := func(label string, res *Result, want []sparse.Entry) {
			t.Helper()
			if res.Estimate != nil {
				t.Errorf("q=%d %s: built the estimate map", q, label)
			}
			if want != nil && !sameEntryBits(res.Entries, want) {
				t.Errorf("q=%d %s: entries differ from Engine.Query's", q, label)
			}
		}
		on, err := e.QueryOn(nil, q, stop)
		if err != nil {
			t.Fatal(err)
		}
		check("QueryOn", on, public.Entries)

		qs, err := e.NewQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		check("Result at iteration 0", qs.Result(), nil)
		qs.Step()
		check("Result after a Step", qs.Result(), nil)
		check("Run", qs.Run(stop), public.Entries)
		qs.Close()
		check("Result after Close", qs.Result(), public.Entries)
	}
}

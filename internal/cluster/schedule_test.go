package cluster

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"fastppv/internal/api"
	"fastppv/internal/core"
	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/hub"
)

// TestStopRuleParity: Router.Query and Engine.Query run one schedule
// (core.QueryState.Run), so for any StopCondition they stop after the same
// number of iterations and record the same iteration stats — frontier size,
// hubs expanded and hubs skipped — whichever rule fires: the eta cap, the
// target error, the time limit, an emptied frontier or the zero-mass guard.
//
// Every routed frontier is pruned by delta before it is scattered — the root
// shard prunes iteration 1's, the router each later sum of shard frontiers —
// so at every iteration the legs carry exactly the hubs that iteration
// expands, and an iteration that expands none sends no leg.
func TestStopRuleParity(t *testing.T) {
	social, err := gen.SocialGraph(gen.SocialConfig{Nodes: 700, OutDegreeMean: 6, Attachment: 0.7, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	// A two-level tree: the root's prime PPV blocks at hubs 1 and 2, whose
	// own records reach only dangling leaves, so the frontier is empty after
	// one expansion.
	b := graph.NewBuilder(true)
	b.EnsureNodes(11)
	for _, e := range [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {1, 5}, {1, 6}, {2, 7}, {2, 8}, {2, 9}, {2, 10}} {
		b.MustAddEdge(e[0], e[1])
	}
	tree := b.Finalize()

	type rule struct {
		name string
		stop core.StopCondition
	}
	etas := func() []rule {
		var out []rule
		for eta := 0; eta <= 4; eta++ {
			out = append(out, rule{"eta", core.StopCondition{MaxIterations: eta}})
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		opts    core.Options
		sources []graph.NodeID
		rules   []rule
		// wantIterations, when >= 0, is what every rule must stop at.
		wantIterations int
	}{
		{"social", social, core.Options{NumHubs: 90}, []graph.NodeID{3, 42, 311}, append(etas(),
			rule{"unbounded eta with a target", core.StopCondition{MaxIterations: -1, TargetL1Error: 0.05}},
			rule{"target met at iteration 0", core.StopCondition{MaxIterations: 4, TargetL1Error: 0.999}},
			rule{"1ns time limit", core.StopCondition{MaxIterations: 4, TimeLimit: time.Nanosecond}},
		), -1},
		{"frontier empties", tree, core.Options{NumHubs: 2, HubPolicy: hub.ByOutDegree}, []graph.NodeID{0},
			[]rule{{"unbounded", core.StopCondition{MaxIterations: -1}}}, 1},
		{"delta prunes every hub", social, core.Options{NumHubs: 90, Delta: 0.9}, []graph.NodeID{3, 42},
			[]rule{{"eta 4", core.StopCondition{MaxIterations: 4}}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			single, shards := clusterOver(t, tc.g, tc.opts, 2)
			r := routerOver(t, RouterConfig{}, shards...)
			for _, q := range tc.sources {
				for _, rl := range tc.rules {
					want, err := single.Query(q, rl.stop)
					if err != nil {
						t.Fatal(err)
					}
					got, err := r.Query(q, rl.stop)
					if err != nil {
						t.Fatal(err)
					}
					if got.Iterations != want.Iterations || len(got.PerIteration) != len(want.PerIteration) {
						t.Errorf("q=%d %s %+v: routed %d iterations / %d stats, engine %d / %d", q, rl.name, rl.stop,
							got.Iterations, len(got.PerIteration), want.Iterations, len(want.PerIteration))
					}
					if len(got.Spans) != len(got.PerIteration) {
						t.Errorf("q=%d %s: %d leg spans for %d iteration stats", q, rl.name, len(got.Spans), len(got.PerIteration))
					}
					if math.Abs(got.L1ErrorBound-want.L1ErrorBound) > 1e-12 {
						t.Errorf("q=%d %s: routed bound %.15f, engine %.15f", q, rl.name, got.L1ErrorBound, want.L1ErrorBound)
					}
					if tc.wantIterations >= 0 && want.Iterations != tc.wantIterations {
						t.Errorf("q=%d %s: engine ran %d iterations, the case is built to stop at %d", q, rl.name, want.Iterations, tc.wantIterations)
					}
					for i := 0; i < len(got.PerIteration) && i < len(want.PerIteration); i++ {
						g, w := got.PerIteration[i], want.PerIteration[i]
						if g.FrontierSize != w.FrontierSize || g.HubsExpanded != w.HubsExpanded || g.HubsSkipped != w.HubsSkipped {
							t.Errorf("q=%d %s iteration %d: routed frontier/expanded/skipped %d/%d/%d, engine %d/%d/%d", q, rl.name, i,
								g.FrontierSize, g.HubsExpanded, g.HubsSkipped, w.FrontierSize, w.HubsExpanded, w.HubsSkipped)
						}
						if i == 0 || i >= len(got.Spans) {
							continue
						}
						routed := 0
						for _, leg := range got.Spans[i].Legs {
							routed += leg.Hubs
						}
						if routed != g.HubsExpanded {
							t.Errorf("q=%d %s iteration %d: legs carry %d hubs, want the %d expanded (skipped %d)",
								q, rl.name, i, routed, g.HubsExpanded, g.HubsSkipped)
						}
					}
				}
			}
		})
	}
}

// TestSplitSubDeltaPrefixIsExpanded: a shard's expansion frontier is one
// addend of the router's sum and is not pruned by delta. Here hub 3's prefix
// after iteration 1 is two sub-delta halves, one from each shard (hub 2 on
// shard 0 and hub 9 on shard 1, each reaching hub 3 by one of six out-edges),
// whose sum exceeds delta: the router must route it and the owner expand it,
// and the routed answer is the engine's, bit for bit.
func TestSplitSubDeltaPrefixIsExpanded(t *testing.T) {
	const delta = 0.01
	b := graph.NewBuilder(true)
	b.EnsureNodes(21)
	edges := [][2]graph.NodeID{{0, 2}, {0, 9}, {2, 3}, {9, 3}}
	for _, leaf := range []graph.NodeID{1, 4, 5, 6, 7} {
		edges = append(edges, [2]graph.NodeID{2, leaf})
	}
	for _, leaf := range []graph.NodeID{8, 10, 11, 12, 13} {
		edges = append(edges, [2]graph.NodeID{9, leaf})
	}
	for leaf := graph.NodeID(14); leaf <= 20; leaf++ {
		edges = append(edges, [2]graph.NodeID{3, leaf})
	}
	for _, e := range edges {
		b.MustAddEdge(e[0], e[1])
	}
	single, shards := clusterOver(t, b.Finalize(), core.Options{NumHubs: 3, HubPolicy: hub.ByOutDegree, Delta: delta}, 2)
	part := core.Partition{Shards: 2}
	for _, h := range []graph.NodeID{2, 3, 9} {
		if !single.Hubs().Contains(h) {
			t.Fatalf("node %d is not a hub; the graph is built to make 2, 3 and 9 the hubs", h)
		}
	}
	if part.Owner(0) != 0 || part.Owner(2) != 0 || part.Owner(9) != 1 {
		t.Fatal("the case needs node 0 and hub 2 on shard 0 and hub 9 on shard 1")
	}

	root, err := shards[0].e.PartialRootSorted(0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(root.FrontierNodes, []graph.NodeID{2, 9}) {
		t.Fatalf("root frontier %v, want hubs 2 and 9", root.FrontierNodes)
	}
	var halves []float64
	for s, h := range []graph.NodeID{2, 9} {
		exp, err := shards[s].e.PartialExpand([]graph.NodeID{h}, root.FrontierScores[s:s+1])
		if err != nil {
			t.Fatal(err)
		}
		k, ok := slices.BinarySearch(exp.FrontierNodes, 3)
		if !ok || exp.FrontierScores[k] <= 0 || exp.FrontierScores[k] > delta {
			t.Fatalf("shard %d frontier %v %v: want a sub-delta prefix on hub 3", s, exp.FrontierNodes, exp.FrontierScores)
		}
		halves = append(halves, exp.FrontierScores[k])
	}
	if halves[0]+halves[1] <= delta {
		t.Fatalf("hub 3's halves %v sum to at most delta %v", halves, delta)
	}

	r := routerOver(t, RouterConfig{}, shards...)
	stop := core.StopCondition{MaxIterations: 2}
	want, err := single.Query(0, stop)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Query(0, stop)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded || got.Iterations != 2 || got.PerIteration[2].HubsExpanded != 1 || want.PerIteration[2].HubsExpanded != 1 {
		t.Fatalf("degraded %v, %d iterations, iteration 2 expanded %d (engine %d): want hub 3 expanded at iteration 2",
			got.Degraded, got.Iterations, got.PerIteration[2].HubsExpanded, want.PerIteration[2].HubsExpanded)
	}
	if math.Float64bits(got.L1ErrorBound) != math.Float64bits(want.L1ErrorBound) || len(got.Entries) != len(want.Entries) {
		t.Fatalf("routed bound %v over %d entries, engine %v over %d", got.L1ErrorBound, len(got.Entries), want.L1ErrorBound, len(want.Entries))
	}
	for k, en := range want.Entries {
		if g := got.Entries[k]; g.Node != en.Node || math.Float64bits(g.Score) != math.Float64bits(en.Score) {
			t.Fatalf("entry %d: routed %d=%v, engine %d=%v", k, g.Node, g.Score, en.Node, en.Score)
		}
	}
}

// TestLostFrontierMassCountsExpandableHubs: every routed frontier is pruned
// by delta, so with shard 1 failing every expansion the lost mass is exactly
// the above-delta prefixes shard 1 owns, summed in ascending hub order: at
// eta=1 those of the root's frontier (less than shard 1's share of the
// unpruned frontier), and at eta=2 those plus the above-delta prefixes shard
// 1 owns in the frontier shard 0's expansion alone produced.
func TestLostFrontierMassCountsExpandableHubs(t *testing.T) {
	single, shards := testCluster(t, 2)
	shards[1].hook = func(_ int, preq *api.PartialRequest) fault {
		if preq.Frontier != nil {
			return fault{err: &api.Error{Code: api.CodeInternal, Message: "boom"}}
		}
		return fault{}
	}
	r := routerOver(t, RouterConfig{}, shards...)
	part := core.Partition{Shards: 2}
	delta := single.Options().Delta
	// lostOn sums, in ascending hub order onto sum, the prefixes above delta
	// of the hubs shard 1 owns; group collects those shard 0 owns.
	lostOn := func(sum float64, nodes []graph.NodeID, scores []float64) (float64, []graph.NodeID, []float64) {
		var gNodes []graph.NodeID
		var gScores []float64
		for k, h := range nodes {
			if scores[k] <= delta {
				continue
			}
			if part.Owner(h) == 1 {
				sum += scores[k]
			} else {
				gNodes, gScores = append(gNodes, h), append(gScores, scores[k])
			}
		}
		return sum, gNodes, gScores
	}
	checked, checked2 := 0, 0
	for q := graph.NodeID(0); checked < 4 || checked2 < 2; q++ {
		if int(q) >= single.Graph().NumNodes() {
			t.Fatalf("only %d queries with pruned root hubs and %d with lost mass at iteration 2", checked, checked2)
		}
		if part.Owner(q) != 0 || single.Hubs().Contains(q) {
			continue
		}
		root, err := shards[0].e.PartialRootSorted(q)
		if err != nil {
			t.Fatal(err)
		}
		if root.HubsSkipped == 0 {
			continue
		}
		want, group0, scores0 := lostOn(0, root.FrontierNodes, root.FrontierScores)
		unpruned := 0.0
		for k, n := range root.IncrementNodes {
			if single.Hubs().Contains(n) && part.Owner(n) == 1 {
				unpruned += root.IncrementScores[k]
			}
		}
		res, err := r.Query(q, core.StopCondition{MaxIterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want == 0 || !res.Degraded {
			t.Fatalf("q=%d: degraded %v with %v above-delta mass routed to shard 1; the case needs both", q, res.Degraded, want)
		}
		if math.Float64bits(res.LostFrontierMass) != math.Float64bits(want) {
			t.Errorf("q=%d eta=1: lost mass %v, want the above-delta prefixes on shard 1, %v", q, res.LostFrontierMass, want)
		}
		if !(res.LostFrontierMass < unpruned) {
			t.Errorf("q=%d: lost mass %v is not below shard 1's unpruned frontier mass %v", q, res.LostFrontierMass, unpruned)
		}
		checked++

		// Iteration 2's frontier is shard 0's expansion frontier alone.
		exp, err := shards[0].e.PartialExpand(group0, scores0)
		if err != nil {
			t.Fatal(err)
		}
		want2, _, _ := lostOn(want, exp.FrontierNodes, exp.FrontierScores)
		res2, err := r.Query(q, core.StopCondition{MaxIterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res2.LostFrontierMass) != math.Float64bits(want2) {
			t.Errorf("q=%d eta=2: lost mass %v, want %v: iteration 1's plus shard 1's above-delta prefixes of shard 0's frontier", q, res2.LostFrontierMass, want2)
		}
		if want2 > want {
			checked2++
		}
	}
}

// TestSubDeltaRoundSendsNoLeg: when no hub of iteration 2's summed frontier
// is above delta, the router prunes them all and sends no leg — the shards
// read as many request frames for the query at eta=2 as at eta=1 — and the
// answer, the bound and the iteration stats are still the engine's, bit for
// bit. The queries are ones whose iteration 1 expands hubs of one shard only,
// so the router's per-node fold is 0 + s0, which is exactly the engine's sum.
func TestSubDeltaRoundSendsNoLeg(t *testing.T) {
	single, shards := testCluster(t, 2)
	r := routerOver(t, RouterConfig{}, shards...)
	frames := func() (n int64) {
		for _, sh := range shards {
			n += sh.partials.Load()
		}
		return n
	}
	stop := core.StopCondition{MaxIterations: 2}
	checked := 0
	for q := graph.NodeID(0); checked < 3; q++ {
		if int(q) >= single.Graph().NumNodes() {
			t.Fatalf("only %d queries expand nothing at iteration 2", checked)
		}
		want, err := single.Query(q, stop)
		if err != nil {
			t.Fatal(err)
		}
		if want.Iterations != 2 || want.PerIteration[1].HubsExpanded == 0 ||
			want.PerIteration[2].HubsExpanded != 0 || want.PerIteration[2].HubsSkipped == 0 {
			continue
		}
		before := frames()
		if _, err := r.Query(q, core.StopCondition{MaxIterations: 1}); err != nil {
			t.Fatal(err)
		}
		eta1 := frames() - before
		got, err := r.Query(q, stop)
		if err != nil {
			t.Fatal(err)
		}
		if eta2 := frames() - before - eta1; eta2 != eta1 {
			t.Errorf("q=%d: %d request frames at eta=2, %d at eta=1: iteration 2 expands nothing and must send no leg", q, eta2, eta1)
		}
		if len(got.Spans) != 3 || len(got.Spans[2].Legs) != 0 {
			t.Fatalf("q=%d: spans %+v, want three with no leg at iteration 2", q, got.Spans)
		}
		if len(got.Spans[1].Legs) != 1 {
			continue // iteration 1 expanded hubs on both shards
		}
		if got.Degraded || got.Iterations != want.Iterations {
			t.Errorf("q=%d: degraded %v after %d iterations, engine %d", q, got.Degraded, got.Iterations, want.Iterations)
		}
		for i, w := range want.PerIteration {
			if g := got.PerIteration[i]; g.FrontierSize != w.FrontierSize || g.HubsExpanded != w.HubsExpanded || g.HubsSkipped != w.HubsSkipped {
				t.Errorf("q=%d iteration %d: routed frontier/expanded/skipped %d/%d/%d, engine %d/%d/%d", q, i,
					g.FrontierSize, g.HubsExpanded, g.HubsSkipped, w.FrontierSize, w.HubsExpanded, w.HubsSkipped)
			}
		}
		if math.Float64bits(got.L1ErrorBound) != math.Float64bits(want.L1ErrorBound) || len(got.Entries) != len(want.Entries) {
			t.Fatalf("q=%d: routed bound %v over %d entries, engine %v over %d", q, got.L1ErrorBound, len(got.Entries), want.L1ErrorBound, len(want.Entries))
		}
		for k, en := range want.Entries {
			if g := got.Entries[k]; g.Node != en.Node || math.Float64bits(g.Score) != math.Float64bits(en.Score) {
				t.Fatalf("q=%d entry %d: routed %d=%v, engine %d=%v", q, k, g.Node, g.Score, en.Node, en.Score)
			}
		}
		checked++
	}
}

// TestDegradedAnswerIsBitStable: with one shard failing every expansion, the
// lost frontier mass — a field of the response body — and the bound are the
// same bits on every repeat and under concurrency: the lost group is summed in
// ascending hub order, not in map order.
func TestDegradedAnswerIsBitStable(t *testing.T) {
	_, shards := testCluster(t, 2)
	shards[1].hook = func(_ int, preq *api.PartialRequest) fault {
		if preq.Frontier != nil {
			return fault{err: &api.Error{Code: api.CodeInternal, Message: "boom"}}
		}
		return fault{}
	}
	r := routerOver(t, RouterConfig{}, shards...)
	part := core.Partition{Shards: 2}
	var q graph.NodeID
	for ; part.Owner(q) != 0; q++ {
	}
	stop := core.StopCondition{MaxIterations: 3}
	query := func() (lost, bound uint64) {
		res, err := r.Query(q, stop)
		if err != nil {
			t.Error(err)
			return 0, 0
		}
		if !res.Degraded || res.LostFrontierMass <= 0 {
			t.Errorf("degraded=%v lost=%v, want a degraded answer with lost mass", res.Degraded, res.LostFrontierMass)
		}
		return math.Float64bits(res.LostFrontierMass), math.Float64bits(res.L1ErrorBound)
	}
	wantLost, wantBound := query()
	for i := 0; i < 50; i++ {
		if lost, bound := query(); lost != wantLost || bound != wantBound {
			t.Fatalf("repeat %d: lost mass bits %x bound bits %x, first answer %x / %x", i, lost, bound, wantLost, wantBound)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if lost, bound := query(); lost != wantLost || bound != wantBound {
				t.Errorf("concurrent: lost mass bits %x bound bits %x, first answer %x / %x", lost, bound, wantLost, wantBound)
			}
		}()
	}
	wg.Wait()
}

// TestRoutedQueryAllocationCeiling sits beside core's TestAllocationCeilings:
// it holds the flat router fold in place. The window covers the whole process
// — the router, both in-process fake shards and the loopback streams — for a
// non-hub query at eta=2 over two shards, so the shards' own flat → map → sort
// round trip per partial is in it; the ceiling is 25 % above what the flat
// router fold measures (147 KB) and below what the map-based fold it replaced
// measured on the same window (199 KB).
func TestRoutedQueryAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled bundles at random under the race detector")
	}
	const ceiling = 184_000 // bytes per routed query
	single, shards := testCluster(t, 2)
	r := routerOver(t, RouterConfig{}, shards...)
	var srcs []graph.NodeID
	for q := graph.NodeID(0); len(srcs) < 32; q++ {
		if !single.Hubs().Contains(q) {
			srcs = append(srcs, q)
		}
	}
	stop := core.StopCondition{MaxIterations: 2}
	run := func() {
		for _, q := range srcs {
			if _, err := r.Query(q, stop); err != nil {
				t.Fatal(err)
			}
		}
	}
	totalAlloc := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run() // warm the pooled bundles and the streams
	before := totalAlloc()
	run()
	perQuery := (totalAlloc() - before) / uint64(len(srcs))
	t.Logf("routed non-hub query: %d B", perQuery)
	if perQuery > ceiling {
		t.Errorf("a routed non-hub query at eta=2 allocates %d B, ceiling %d B", perQuery, ceiling)
	}
}

package cluster

import (
	"math"
	"runtime"
	"runtime/debug"
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
// number of iterations and record the same number of iteration stats —
// whichever rule fires: the eta cap, the target error, the time limit, an
// emptied frontier or the zero-mass guard.
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
			r := routerOver(t, RouterConfig{HealthInterval: -1}, shards...)
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
				}
			}
		})
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
	r := routerOver(t, RouterConfig{HealthInterval: -1}, shards...)
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
	r := routerOver(t, RouterConfig{HealthInterval: -1}, shards...)
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

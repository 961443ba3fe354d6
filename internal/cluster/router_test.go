package cluster

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastppv/internal/api"
	"fastppv/internal/core"
	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/pagerank"
)

// testCluster builds one single-node engine plus n sharded engines over the
// same graph and returns the single-node engine with one fake shard per
// sharded engine.
func testCluster(t *testing.T, shards int) (*core.Engine, []*fakeShard) {
	t.Helper()
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 700, OutDegreeMean: 6, Attachment: 0.7, Seed: 21})
	if err != nil {
		t.Fatalf("SocialGraph: %v", err)
	}
	return clusterOver(t, g, core.Options{NumHubs: 90}, shards)
}

// clusterOver is testCluster over a given graph and engine options.
func clusterOver(t *testing.T, g *graph.Graph, base core.Options, shards int) (*core.Engine, []*fakeShard) {
	t.Helper()
	single, err := core.NewEngine(g, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Precompute(); err != nil {
		t.Fatal(err)
	}
	fakes := make([]*fakeShard, shards)
	for s := 0; s < shards; s++ {
		opts := base
		if shards > 1 {
			opts.Partition = core.Partition{Shard: s, Shards: shards}
		}
		e, err := core.NewEngine(g, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Precompute(); err != nil {
			t.Fatal(err)
		}
		fakes[s] = newFakeShard(t, e)
	}
	return single, fakes
}

func TestRouterMatchesSingleNode(t *testing.T) {
	single, shards := testCluster(t, 2)
	r := routerOver(t, RouterConfig{HealthInterval: -1}, shards...)
	if r.NumNodes() != single.Graph().NumNodes() {
		t.Fatalf("router discovered %d nodes, want %d", r.NumNodes(), single.Graph().NumNodes())
	}

	for _, q := range []graph.NodeID{0, 3, 42, 311, 699} {
		for _, eta := range []int{0, 2, 4} {
			want, err := single.Query(q, core.StopCondition{MaxIterations: eta})
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Query(q, core.StopCondition{MaxIterations: eta})
			if err != nil {
				t.Fatalf("router Query(%d, eta=%d): %v", q, eta, err)
			}
			if got.Degraded || got.ShardsDown != 0 {
				t.Fatalf("q=%d eta=%d: healthy cluster answered degraded (%d shards down)", q, eta, got.ShardsDown)
			}
			if math.Abs(got.L1ErrorBound-want.L1ErrorBound) > 1e-12 {
				t.Errorf("q=%d eta=%d: bound %.15f, single node %.15f", q, eta, got.L1ErrorBound, want.L1ErrorBound)
			}
			if d := got.Estimate.L1Distance(want.Estimate); d > 1e-12 {
				t.Errorf("q=%d eta=%d: estimate L1 distance %.3e from single node", q, eta, d)
			}
			wantTop, gotTop := want.TopK(10), got.TopK(10)
			for i := range wantTop {
				if wantTop[i].Node != gotTop[i].Node {
					t.Errorf("q=%d eta=%d: top-k rank %d node %d, want %d", q, eta, i, gotTop[i].Node, wantTop[i].Node)
				}
			}
		}
	}
}

func TestRouterTargetErrorStop(t *testing.T) {
	single, shards := testCluster(t, 2)
	r := routerOver(t, RouterConfig{HealthInterval: -1}, shards...)
	// Node 5's bound is ~0.70 after iteration 0 and ~0.57 after iteration 1,
	// and it flattens above 0.5 before the frontier runs out: 0.6 is met by
	// one step, which a lower target would never be.
	stop := core.StopCondition{MaxIterations: 8, TargetL1Error: 0.6}
	want, err := single.Query(5, stop)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Query(5, stop)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*core.Result{want, &got.Result} {
		per := res.PerIteration
		if len(per) < 2 || res.Iterations >= stop.MaxIterations {
			t.Fatalf("stopped after %d iterations over %d steps: the query must take a step and stop before eta", res.Iterations, len(per))
		}
		if before, after := per[len(per)-2].L1ErrorBound, per[len(per)-1].L1ErrorBound; before <= stop.TargetL1Error || after > stop.TargetL1Error || after != res.L1ErrorBound {
			t.Errorf("bound %.4f before the last step, %.4f after it (answer %.4f): the target %.2f must be what stopped it",
				before, after, res.L1ErrorBound, stop.TargetL1Error)
		}
	}
	if got.Iterations != want.Iterations {
		t.Errorf("router stopped after %d iterations, single node after %d", got.Iterations, want.Iterations)
	}
	if math.Abs(got.L1ErrorBound-want.L1ErrorBound) > 1e-12 {
		t.Errorf("bound %.15f, want %.15f", got.L1ErrorBound, want.L1ErrorBound)
	}
}

// sentLegs counts the shard requests a routed answer records: the legs of
// every iteration's span the router did not skip.
func sentLegs(res *Result, shard int) int {
	n := 0
	for _, span := range res.Spans {
		for _, leg := range span.Legs {
			if !leg.Skipped && (shard < 0 || leg.Shard == shard) {
				n++
			}
		}
	}
	return n
}

// TestRouterOneFramePerLeg: a routed query sends the shards exactly the
// request frames its spans record — nothing ahead of the schedule's decision,
// so a query that stops on its target error with hubs still on the frontier
// leaves no request behind, not even one that reaches a shard after the
// answer.
func TestRouterOneFramePerLeg(t *testing.T) {
	_, shards := testCluster(t, 2)
	r := routerOver(t, RouterConfig{HealthInterval: -1}, shards...)
	legs := 0
	for _, stop := range []core.StopCondition{
		{MaxIterations: 2},
		{MaxIterations: 8, TargetL1Error: 0.6},
	} {
		for _, q := range []graph.NodeID{0, 5, 42, 311} {
			res, err := r.Query(q, stop)
			if err != nil {
				t.Fatal(err)
			}
			if stop.TargetL1Error > 0 && (res.L1ErrorBound > stop.TargetL1Error || res.Iterations >= stop.MaxIterations) {
				t.Fatalf("q=%d: bound %.4f after %d iterations: the case must stop on its target", q, res.L1ErrorBound, res.Iterations)
			}
			legs += sentLegs(res, -1)
		}
	}
	// A frame sent ahead of the schedule can reach its shard after the answer.
	time.Sleep(100 * time.Millisecond)
	if frames := shards[0].partials.Load() + shards[1].partials.Load(); frames != int64(legs) {
		t.Errorf("shards read %d request frames for %d legs", frames, legs)
	}
}

func TestRouterShardDownWidensBound(t *testing.T) {
	_, shards := testCluster(t, 2)
	r := routerOver(t, RouterConfig{HealthInterval: -1}, shards...)

	// Pick a query node owned by shard 0 so iteration 0 survives shard 1
	// going down.
	part := core.Partition{Shards: 2}
	var q graph.NodeID
	for ; part.Owner(q) != 0; q++ {
	}
	stop := core.StopCondition{MaxIterations: 3}
	healthy, err := r.Query(q, stop)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Degraded {
		t.Fatal("healthy cluster reported degraded")
	}

	shards[1].Close()
	down, err := r.Query(q, stop)
	if err != nil {
		t.Fatalf("query with one shard down must degrade, not fail: %v", err)
	}
	if !down.Degraded || down.ShardsDown != 1 {
		t.Errorf("Degraded=%v ShardsDown=%d, want degraded with 1 shard down", down.Degraded, down.ShardsDown)
	}
	if down.LostFrontierMass <= 0 {
		t.Errorf("LostFrontierMass = %v, want > 0 when a contributing shard is lost", down.LostFrontierMass)
	}
	if down.L1ErrorBound <= healthy.L1ErrorBound {
		t.Errorf("bound with shard down %.12f not wider than healthy %.12f", down.L1ErrorBound, healthy.L1ErrorBound)
	}
	// The reported bound must stay exact: 1 - sum(estimate).
	if got := 1 - down.Estimate.SumOrdered(); math.Abs(got-down.L1ErrorBound) > 1e-12 {
		t.Errorf("reported bound %.15f but 1-mass is %.15f", down.L1ErrorBound, got)
	}
	// Subsequent queries (passive mode re-attempts the dead shard and fails
	// fast on the refused connection) stay degraded, not erroring.
	again, err := r.Query(q, stop)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Degraded {
		t.Error("dead shard came back without a health probe?")
	}

	shards[0].Close()
	if _, err := r.Query(q, stop); err == nil {
		t.Error("query must fail when no shard can answer iteration 0")
	}
}

func TestRouterRootFallsBackToOtherShard(t *testing.T) {
	_, shards := testCluster(t, 2)
	// Pick a query node owned by shard 1, then kill shard 1 before the router
	// ever sees it: iteration 0 must fall back to shard 0.
	part := core.Partition{Shards: 2}
	var q graph.NodeID
	for ; part.Owner(q) != 1; q++ {
	}
	shards[1].Close()
	r := routerOver(t, RouterConfig{HealthInterval: -1}, shards...)
	res, err := r.Query(q, core.StopCondition{MaxIterations: 2})
	if err != nil {
		t.Fatalf("root fallback failed: %v", err)
	}
	if !res.Degraded {
		t.Error("non-owner root must be flagged degraded")
	}
	if res.L1ErrorBound >= 1 || len(res.Estimate) == 0 {
		t.Errorf("fallback answer is empty: bound=%v entries=%d", res.L1ErrorBound, len(res.Estimate))
	}
}

// TestRouterRetriesTransientErrors: a shard answering with the structured
// "retry" code (index descriptor swapped mid-read, e.g. a restart or
// compaction) is retried once instead of being declared down.
// TestRootOrderMatchesStableSort checks rootOrder against the order it
// replaced — owner first, then ascending index, stable-sorted healthy first —
// for every owner and every health mask of a four-shard router.
func TestRootOrderMatchesStableSort(t *testing.T) {
	const n = 4
	r := &Router{}
	for i := 0; i < n; i++ {
		r.shards = append(r.shards, &shardClient{index: i})
	}
	for mask := 0; mask < 1<<n; mask++ {
		for i, s := range r.shards {
			s.healthy.Store(mask&(1<<i) != 0)
		}
		for owner := 0; owner < n; owner++ {
			want := []*shardClient{r.shards[owner]}
			for i, s := range r.shards {
				if i != owner {
					want = append(want, s)
				}
			}
			sort.SliceStable(want, func(i, j int) bool {
				return want[i].healthy.Load() && !want[j].healthy.Load()
			})
			got := r.rootOrder(owner)
			if len(got) != n {
				t.Fatalf("mask %04b owner %d: %d shards, want %d", mask, owner, len(got), n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("mask %04b owner %d: position %d is shard %d, want %d", mask, owner, i, got[i].index, want[i].index)
				}
			}
		}
	}
}

func TestRouterRetriesTransientErrors(t *testing.T) {
	_, shards := testCluster(t, 1)
	shards[0].hook = func(n int, _ *api.PartialRequest) fault {
		if n == 1 {
			return fault{err: &api.Error{Code: api.CodeRetry, Message: "index closed during restart"}}
		}
		return fault{}
	}
	r := routerOver(t, RouterConfig{HealthInterval: -1}, shards...)
	res, err := r.Query(3, core.StopCondition{MaxIterations: 2})
	if err != nil {
		t.Fatalf("query should survive one transient retry-coded failure: %v", err)
	}
	if res.Degraded {
		t.Error("a retried transient failure must not mark the answer degraded")
	}
	if got := r.Stats().Shards[0].Retries; got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
}

// TestRouterRejectsMisconfiguredShardMap: a target answering with the wrong
// partition is treated as failed, not silently merged.
func TestRouterRejectsMisconfiguredShardMap(t *testing.T) {
	_, shards := testCluster(t, 2)
	// Swap the targets: shard 1's server listed as shard 0 and vice versa.
	r := routerOver(t, RouterConfig{HealthInterval: -1}, shards[1], shards[0])
	res, err := r.Query(1, core.StopCondition{MaxIterations: 2})
	if err == nil && !res.Degraded {
		t.Error("swapped shard map must degrade or fail, not answer cleanly")
	}
}

// TestRouterDeterministicUnderConcurrency: concurrent identical queries must
// merge shard increments in the same order and agree bit-for-bit (run under
// -race in CI).
func TestRouterDeterministicUnderConcurrency(t *testing.T) {
	_, shards := testCluster(t, 3)
	r := routerOver(t, RouterConfig{HealthInterval: -1}, shards...)

	const workers = 8
	results := make([]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := r.Query(11, core.StopCondition{MaxIterations: 3})
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			results[w] = res
		}(w)
	}
	wg.Wait()
	ref := results[0]
	if ref == nil {
		t.Fatal("no reference result")
	}
	// The workers raced to a router with no stream yet: each shard is dialled
	// once and the losers wait for that dial instead of faulting the shard.
	for i, sh := range shards {
		if n := sh.upgrades.Load(); n != 1 {
			t.Errorf("shard %d accepted %d streams under concurrent first use, want 1", i, n)
		}
	}
	for w := 1; w < workers; w++ {
		got := results[w]
		if got == nil {
			continue
		}
		if got.Degraded {
			t.Errorf("worker %d answered degraded on a healthy cluster", w)
		}
		if got.L1ErrorBound != ref.L1ErrorBound {
			t.Errorf("worker %d bound %v differs from %v", w, got.L1ErrorBound, ref.L1ErrorBound)
		}
		if len(got.Estimate) != len(ref.Estimate) {
			t.Fatalf("worker %d estimate has %d entries, want %d", w, len(got.Estimate), len(ref.Estimate))
		}
		for n, s := range ref.Estimate {
			if got.Estimate[n] != s {
				t.Fatalf("worker %d estimate[%d] = %v, want bit-identical %v", w, n, got.Estimate[n], s)
			}
		}
	}
}

// anyHealthy reports whether the router sees at least one healthy shard.
func anyHealthy(r *Router) bool { return r.Stats().ShardsHealthy > 0 }

func TestRouterHealthProbeRecovery(t *testing.T) {
	_, shards := testCluster(t, 1)
	r := routerOver(t, RouterConfig{HealthInterval: 20 * time.Millisecond}, shards...)
	if !anyHealthy(r) {
		t.Fatal("shard should be healthy at start")
	}
	shards[0].httpDown.Store(true)
	deadline := time.Now().Add(2 * time.Second)
	for anyHealthy(r) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if anyHealthy(r) {
		t.Fatal("health probe never noticed the shard going down")
	}
	shards[0].httpDown.Store(false)
	for !anyHealthy(r) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !anyHealthy(r) {
		t.Fatal("health probe never restored the shard")
	}
	if res, err := r.Query(2, core.StopCondition{MaxIterations: 2}); err != nil || res.Degraded {
		t.Errorf("recovered shard should serve cleanly: res=%+v err=%v", res, err)
	}
}

// TestRouterPassiveModeRecovers: with the background probe disabled, a shard
// that failed once must be re-attempted by later queries and restored on the
// first success — a transient failure must not disable it forever.
func TestRouterPassiveModeRecovers(t *testing.T) {
	_, shards := testCluster(t, 1)
	var downFlag atomic.Bool
	shards[0].hook = func(int, *api.PartialRequest) fault {
		if downFlag.Load() {
			return fault{err: &api.Error{Code: api.CodeInternal, Message: "boom"}}
		}
		return fault{}
	}
	r := routerOver(t, RouterConfig{HealthInterval: -1}, shards...)

	downFlag.Store(true)
	if _, err := r.Query(2, core.StopCondition{MaxIterations: 1}); err == nil {
		t.Fatal("query against the failing single shard should error (no root)")
	}
	if anyHealthy(r) {
		t.Fatal("shard fault should have marked the shard unhealthy")
	}
	downFlag.Store(false)
	res, err := r.Query(2, core.StopCondition{MaxIterations: 2})
	if err != nil {
		t.Fatalf("passive mode never recovered the shard: %v", err)
	}
	if res.Degraded {
		t.Error("recovered shard answered the whole query; result must not be degraded")
	}
	if !anyHealthy(r) {
		t.Error("a successful request must restore shard health in passive mode")
	}
}

// TestRouterOverloadDoesNotPoisonHealth: a shard shedding one request under
// admission pressure stays healthy — only shard faults flip the flag.
func TestRouterOverloadDoesNotPoisonHealth(t *testing.T) {
	_, shards := testCluster(t, 1)
	shards[0].hook = func(n int, _ *api.PartialRequest) fault {
		// Shed exactly the second partial: the root succeeds, the first
		// frontier expansion is rejected by admission.
		if n == 2 {
			return fault{err: &api.Error{Code: api.CodeOverloaded, Message: "pools full"}}
		}
		return fault{}
	}
	r := routerOver(t, RouterConfig{HealthInterval: -1}, shards...)
	res, err := r.Query(2, core.StopCondition{MaxIterations: 2})
	if err != nil {
		t.Fatalf("a shed expansion must degrade, not fail: %v", err)
	}
	if !res.Degraded || res.LostFrontierMass <= 0 {
		t.Errorf("shed expansion should cost its mass: degraded=%v lost=%v", res.Degraded, res.LostFrontierMass)
	}
	if res.ShardsDown != 0 {
		t.Errorf("ShardsDown = %d: an admission-shed sub-request is not a shard outage", res.ShardsDown)
	}
	if !anyHealthy(r) {
		t.Error("one admission rejection must not mark the shard unhealthy")
	}
}

// TestRouterUpgradeRejectedIsShardFault: a shard that answers the stream
// upgrade with 404 is a shard fault like any other — the query still answers,
// degraded, and the widened bound still covers the true error.
func TestRouterUpgradeRejectedIsShardFault(t *testing.T) {
	single, shards := testCluster(t, 2)
	shards[1].noStream.Store(true)
	r := routerOver(t, RouterConfig{HealthInterval: -1}, shards...)

	part := core.Partition{Shards: 2}
	var q graph.NodeID
	for ; part.Owner(q) != 0; q++ {
	}
	res, err := r.Query(q, core.StopCondition{MaxIterations: 3})
	if err != nil {
		t.Fatalf("query with one shard refusing the upgrade must degrade, not fail: %v", err)
	}
	if !res.Degraded || res.ShardsDown != 1 {
		t.Errorf("Degraded=%v ShardsDown=%d, want degraded with 1 shard down", res.Degraded, res.ShardsDown)
	}
	if shards[1].partials.Load() != 0 {
		t.Errorf("shard 1 served %d partials without a stream", shards[1].partials.Load())
	}
	exact, err := pagerank.ExactPPV(single.Graph(), q, pagerank.Options{Alpha: single.Options().Alpha})
	if err != nil {
		t.Fatal(err)
	}
	if d := exact.L1Distance(res.Estimate); d > res.L1ErrorBound+1e-9 {
		t.Errorf("true L1 error %.12f exceeds the reported bound %.12f", d, res.L1ErrorBound)
	}
}

// TestRouterSlowShardTimesOut: a shard that holds its answers past the request
// timeout is a fault like a dead one — the query answers within a few
// timeouts, degraded, with the bound still exactly 1 - sum(estimate) — and a
// timed-out leg is sent once, not re-sent on a fresh stream.
func TestRouterSlowShardTimesOut(t *testing.T) {
	_, shards := testCluster(t, 2)
	shards[1].hook = func(int, *api.PartialRequest) fault { return fault{delay: 600 * time.Millisecond} }
	r := routerOver(t, RouterConfig{HealthInterval: -1, RequestTimeout: 50 * time.Millisecond}, shards...)

	part := core.Partition{Shards: 2}
	var q graph.NodeID
	for ; part.Owner(q) != 0; q++ {
	}
	start := time.Now()
	res, err := r.Query(q, core.StopCondition{MaxIterations: 3})
	if err != nil {
		t.Fatalf("query with one slow shard must degrade, not fail: %v", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("query took %v: it waited for the slow shard instead of timing it out", d)
	}
	if !res.Degraded || res.ShardsDown != 1 || res.LostFrontierMass <= 0 {
		t.Errorf("Degraded=%v ShardsDown=%d lost=%v, want degraded with 1 shard down and its mass lost",
			res.Degraded, res.ShardsDown, res.LostFrontierMass)
	}
	if got := 1 - res.Estimate.SumOrdered(); math.Abs(got-res.L1ErrorBound) > 1e-12 {
		t.Errorf("reported bound %.15f but 1-mass is %.15f", res.L1ErrorBound, got)
	}
	if got, want := shards[1].partials.Load(), int64(sentLegs(res, 1)); got != want {
		t.Errorf("slow shard read %d request frames for %d attempted legs", got, want)
	}
}

// TestRouterStreamTornMidRequest: a stream torn under a request is re-dialled
// once and the request re-sent — the answer is non-degraded and entry-for-entry
// the unbroken run's.
func TestRouterStreamTornMidRequest(t *testing.T) {
	_, shards := testCluster(t, 2)
	var tearAt atomic.Int64
	shards[1].hook = func(n int, _ *api.PartialRequest) fault {
		return fault{tear: int64(n) == tearAt.Load()}
	}
	r := routerOver(t, RouterConfig{HealthInterval: -1}, shards...)

	stop := core.StopCondition{MaxIterations: 3}
	want, err := r.Query(11, stop)
	if err != nil || want.Degraded {
		t.Fatalf("unbroken run: res=%+v err=%v", want, err)
	}
	tearAt.Store(shards[1].partials.Load() + 2)
	got, err := r.Query(11, stop)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded || got.ShardsDown != 0 {
		t.Errorf("torn stream degraded the answer: degraded=%v shards_down=%d", got.Degraded, got.ShardsDown)
	}
	if tr := r.Stats().Shards[1].Transport; tr.Reconnects != 1 || !tr.StreamConnected {
		t.Errorf("shard 1 transport = %+v, want exactly 1 reconnect and a live stream", tr)
	}
	if shards[1].upgrades.Load() != 2 {
		t.Errorf("shard 1 accepted %d streams, want 2 (the first and one re-dial)", shards[1].upgrades.Load())
	}
	if got.L1ErrorBound != want.L1ErrorBound || len(got.Estimate) != len(want.Estimate) {
		t.Fatalf("bound %v / %d entries after the tear, want %v / %d",
			got.L1ErrorBound, len(got.Estimate), want.L1ErrorBound, len(want.Estimate))
	}
	for n, s := range want.Estimate {
		if got.Estimate[n] != s {
			t.Fatalf("estimate[%d] = %v after the tear, want bit-identical %v", n, got.Estimate[n], s)
		}
	}
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Error("empty target list should be rejected")
	}
	if _, err := NewRouter(RouterConfig{Targets: []string{"  "}}); err == nil {
		t.Error("blank target should be rejected")
	}
	if _, err := NewRouter(RouterConfig{Targets: []string{"127.0.0.1:1"}, Transport: "json"}); err == nil {
		t.Error("a transport other than the binary stream should be rejected")
	}
}

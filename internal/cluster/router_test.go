package cluster

import (
	"fmt"
	"math"
	"net"
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
	r := routerOver(t, RouterConfig{}, shards...)
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
	r := routerOver(t, RouterConfig{}, shards...)
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

// outcome summarises a routed answer for a failure message.
func outcome(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("degraded=%v shards_down=%d legs to shard 1=%d", res.Degraded, res.ShardsDown, sentLegs(res, 1))
}

// TestRouterOneFramePerLeg: a routed query sends the shards exactly the
// request frames its spans record — nothing ahead of the schedule's decision,
// so a query that stops on its target error with hubs still on the frontier
// leaves no request behind, not even one that reaches a shard after the
// answer.
func TestRouterOneFramePerLeg(t *testing.T) {
	_, shards := testCluster(t, 2)
	r := routerOver(t, RouterConfig{}, shards...)
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
	r := routerOver(t, RouterConfig{}, shards...)

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
	// Subsequent queries (the dead shard is skipped inside its backoff
	// window, and a probe after it fails fast on the refused connection) stay
	// degraded, not erroring.
	again, err := r.Query(q, stop)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Degraded {
		t.Error("dead shard answered again?")
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
	r := routerOver(t, RouterConfig{}, shards...)
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

// TestRootOrderMatchesStableSort checks rootOrder against the order it
// replaced — owner first, then ascending index, stable-sorted with shards
// outside their backoff window first — for every owner and every mask of open
// windows of a four-shard router.
func TestRootOrderMatchesStableSort(t *testing.T) {
	const n = 4
	r := &Router{}
	for i := 0; i < n; i++ {
		r.shards = append(r.shards, &shardClient{index: i, tr: &streamTransport{}})
	}
	open := monotonic() + int64(time.Hour)
	for mask := 0; mask < 1<<n; mask++ {
		for i, s := range r.shards {
			s.tr.until.Store(0)
			if mask&(1<<i) == 0 {
				s.tr.until.Store(open)
			}
		}
		for owner := 0; owner < n; owner++ {
			want := []*shardClient{r.shards[owner]}
			for i, s := range r.shards {
				if i != owner {
					want = append(want, s)
				}
			}
			sort.SliceStable(want, func(i, j int) bool {
				return !want[i].tr.down() && want[j].tr.down()
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

// TestRouterRetriesTransientErrors: a shard answering with the structured
// "retry" code (index descriptor swapped mid-read, e.g. a restart or
// compaction) is retried once instead of being declared down.
func TestRouterRetriesTransientErrors(t *testing.T) {
	_, shards := testCluster(t, 1)
	shards[0].hook = func(n int, _ *api.PartialRequest) fault {
		if n == 1 {
			return fault{err: &api.Error{Code: api.CodeRetry, Message: "index closed during restart"}}
		}
		return fault{}
	}
	r := routerOver(t, RouterConfig{}, shards...)
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
	r := routerOver(t, RouterConfig{}, shards[1], shards[0])
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
	r := routerOver(t, RouterConfig{}, shards...)

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

// TestRouterPassiveModeRecovers: a shard that faulted — an internal error
// frame, or a refused stream dial — is skipped inside its backoff window, and
// the first query after the window recovers it. Nothing reaches the shard in
// between: no goroutine probes it.
func TestRouterPassiveModeRecovers(t *testing.T) {
	cases := []struct {
		name string
		// inject arms the fault on sh and returns its switch.
		inject func(sh *fakeShard) func(on bool)
	}{
		{"internal error", func(sh *fakeShard) func(bool) {
			var failing atomic.Bool
			sh.hook = func(int, *api.PartialRequest) fault {
				if failing.Load() {
					return fault{err: &api.Error{Code: api.CodeInternal, Message: "boom"}}
				}
				return fault{}
			}
			return failing.Store
		}},
		{"dial refused", func(sh *fakeShard) func(bool) { return sh.noStream.Store }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, shards := testCluster(t, 2)
			fail := tc.inject(shards[1])
			r := routerOver(t, RouterConfig{}, shards...)
			part := core.Partition{Shards: 2}
			var q graph.NodeID
			for ; part.Owner(q) != 0; q++ {
			}
			stop := core.StopCondition{MaxIterations: 2}

			fail(true)
			res, err := r.Query(q, stop)
			if err != nil || res.ShardsDown != 1 {
				t.Fatalf("faulting shard: %s, want a degraded answer with 1 shard down", outcome(res, err))
			}
			if r.Stats().Shards[1].Healthy {
				t.Fatal("a shard fault must open the shard's backoff window")
			}
			fail(false)
			requests, frames := shards[1].requests.Load(), shards[1].partials.Load()
			res, err = r.Query(q, stop)
			if err != nil || res.ShardsDown != 1 || sentLegs(res, 1) != 0 {
				t.Fatalf("inside the window: %s, want shard 1 down and skipped", outcome(res, err))
			}
			time.Sleep(streamBackoffMin + 20*time.Millisecond)
			if dr, df := shards[1].requests.Load()-requests, shards[1].partials.Load()-frames; dr != 0 || df != 0 {
				t.Fatalf("shard 1 got %d HTTP requests and %d frames inside its window, want none", dr, df)
			}
			if !r.Stats().Shards[1].Healthy {
				t.Error("an elapsed window must count the shard healthy again")
			}
			res, err = r.Query(q, stop)
			if err != nil || res.Degraded {
				t.Fatalf("first query after the window: %s, want a clean answer", outcome(res, err))
			}
			if sentLegs(res, 1) == 0 {
				t.Error("the first query after the window sent shard 1 no leg")
			}
		})
	}
}

// TestRouterLearnsNodeCountFromFirstAnswer: a router whose shard is not up yet
// at NewRouter learns the node count from the first answer.
func TestRouterLearnsNodeCountFromFirstAnswer(t *testing.T) {
	single, shards := testCluster(t, 1)
	shards[0].httpDown.Store(true)
	r := routerOver(t, RouterConfig{}, shards...)
	if n := r.NumNodes(); n != 0 {
		t.Fatalf("NumNodes = %d before any shard answered, want 0", n)
	}
	shards[0].httpDown.Store(false)
	if _, err := r.Query(2, core.StopCondition{MaxIterations: 1}); err != nil {
		t.Fatal(err)
	}
	if got, want := r.NumNodes(), single.Graph().NumNodes(); got != want {
		t.Errorf("NumNodes = %d after the first answer, want %d", got, want)
	}
}

// TestNewRouterSilentShardsDoNotHoldStartup: shards that accept connections
// but never answer hold NewRouter for the capped start-up read, not for the
// full request timeout.
func TestNewRouterSilentShardsDoNotHoldStartup(t *testing.T) {
	var (
		targets []string
		mu      sync.Mutex
		conns   []net.Conn
	)
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	for range 3 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				mu.Lock()
				conns = append(conns, c)
				mu.Unlock()
			}
		}()
		targets = append(targets, "http://"+ln.Addr().String())
	}
	start := time.Now()
	r, err := NewRouter(RouterConfig{Targets: targets, RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if took := time.Since(start); took > 3*time.Second {
		t.Errorf("NewRouter over three silent shards took %v, want under 3s", took)
	}
	if n := r.NumNodes(); n != 0 {
		t.Errorf("NumNodes = %d with no shard answering, want 0", n)
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
	r := routerOver(t, RouterConfig{}, shards...)
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
	r := routerOver(t, RouterConfig{}, shards...)

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
// timed-out leg is sent once, not re-sent on a fresh stream. The timeout opens
// the shard's backoff window, so the queries right after it answer degraded
// at once, without a leg to that shard: it reads one request frame in all.
func TestRouterSlowShardTimesOut(t *testing.T) {
	_, shards := testCluster(t, 2)
	shards[1].hook = func(int, *api.PartialRequest) fault { return fault{delay: 600 * time.Millisecond} }
	const timeout = 50 * time.Millisecond
	r := routerOver(t, RouterConfig{RequestTimeout: timeout}, shards...)

	part := core.Partition{Shards: 2}
	var q graph.NodeID
	for ; part.Owner(q) != 0; q++ {
	}
	stop := core.StopCondition{MaxIterations: 3}
	start := time.Now()
	res, err := r.Query(q, stop)
	if err != nil {
		t.Fatalf("query with one slow shard must degrade, not fail: %v", err)
	}
	if d := time.Since(start); d < timeout || d > 500*time.Millisecond {
		t.Errorf("query took %v: it must wait out the %v timeout, not the slow shard", d, timeout)
	}
	if !res.Degraded || res.ShardsDown != 1 || res.LostFrontierMass <= 0 {
		t.Errorf("Degraded=%v ShardsDown=%d lost=%v, want degraded with 1 shard down and its mass lost",
			res.Degraded, res.ShardsDown, res.LostFrontierMass)
	}
	if got := 1 - res.Estimate.SumOrdered(); math.Abs(got-res.L1ErrorBound) > 1e-12 {
		t.Errorf("reported bound %.15f but 1-mass is %.15f", res.L1ErrorBound, got)
	}
	if got, want := shards[1].partials.Load(), int64(sentLegs(res, 1)); got != 1 || want != 1 {
		t.Errorf("slow shard read %d request frames for %d attempted legs, want 1", got, want)
	}
	for i := 1; i < 5; i++ {
		res, err := r.Query(q, stop)
		if err != nil || !res.Degraded || res.ShardsDown != 1 || sentLegs(res, 1) != 0 {
			t.Fatalf("query %d inside the window: %s, want degraded with shard 1 down and skipped", i, outcome(res, err))
		}
	}
	if got := shards[1].partials.Load(); got != 1 {
		t.Errorf("slow shard read %d request frames over five queries, want 1", got)
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
	r := routerOver(t, RouterConfig{}, shards...)

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

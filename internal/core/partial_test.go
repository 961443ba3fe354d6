package core

import (
	"math"
	"testing"

	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

func TestParsePartition(t *testing.T) {
	cases := []struct {
		in   string
		want Partition
		ok   bool
	}{
		{"0/2", Partition{Shard: 0, Shards: 2}, true},
		{"3/4", Partition{Shard: 3, Shards: 4}, true},
		{"0/1", Partition{Shard: 0, Shards: 1}, true},
		{"2/2", Partition{}, false},
		{"-1/2", Partition{}, false},
		{"1", Partition{}, false},
		{"a/b", Partition{}, false},
		{"1/0", Partition{}, false},
	}
	for _, c := range cases {
		got, err := ParsePartition(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParsePartition(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParsePartition(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestPartitionCoversAndBalances(t *testing.T) {
	const shards = 4
	counts := make([]int, shards)
	for h := graph.NodeID(0); h < 40000; h++ {
		owner := Partition{Shards: shards}.Owner(h)
		if owner < 0 || owner >= shards {
			t.Fatalf("Owner(%d) = %d outside [0,%d)", h, owner, shards)
		}
		counts[owner]++
		// Every shard spec must agree on the owner, and exactly one owns h.
		owned := 0
		for s := 0; s < shards; s++ {
			if (Partition{Shard: s, Shards: shards}).Owns(h) {
				owned++
			}
		}
		if owned != 1 {
			t.Fatalf("hub %d owned by %d shards", h, owned)
		}
	}
	for s, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("shard %d owns %d of 40000 hubs; partition badly skewed", s, c)
		}
	}
	if (Partition{}).Owner(7) != 0 || !(Partition{}).Owns(7) {
		t.Error("unsharded partition must own everything via shard 0")
	}
}

// routeQuery drives the scheduled approximation loop the way a cluster router
// does: PartialRoot on the owner, then per-iteration scatter of the frontier
// to owning shards, deterministic merge, and the exact 1-mass bound.
func routeQuery(t *testing.T, engines []*Engine, q graph.NodeID, eta int) *Result {
	t.Helper()
	p := Partition{Shards: len(engines)}
	root, err := engines[p.Owner(q)].PartialRoot(q)
	if err != nil {
		t.Fatalf("PartialRoot(%d): %v", q, err)
	}
	estimate := root.Increment
	frontier := root.Frontier
	mass := estimate.SumOrdered()
	res := &Result{Query: q, Estimate: estimate, L1ErrorBound: 1 - mass}
	for iter := 1; iter <= eta && len(frontier) > 0; iter++ {
		groups := make([]map[graph.NodeID]float64, len(engines))
		for h, w := range frontier {
			owner := p.Owner(h)
			if groups[owner] == nil {
				groups[owner] = make(map[graph.NodeID]float64)
			}
			groups[owner][h] = w
		}
		merged := sparse.New(64)
		next := make(map[graph.NodeID]float64)
		for s, e := range engines {
			if groups[s] == nil {
				continue
			}
			part, err := e.PartialExpand(groups[s])
			if err != nil {
				t.Fatalf("PartialExpand shard %d: %v", s, err)
			}
			if len(part.Unowned) > 0 {
				t.Fatalf("shard %d rejected hubs %v it should own", s, part.Unowned)
			}
			merged.AddVector(part.Increment)
			for h, w := range part.Frontier {
				next[h] += w
			}
		}
		estimate.AddVector(merged)
		mass += merged.SumOrdered()
		frontier = next
		res.Iterations = iter
		res.L1ErrorBound = 1 - mass
	}
	return res
}

// TestPartialCompositionMatchesSingleNode is the exact-aggregation property:
// hub-partitioned partial queries, merged by the router loop, reproduce the
// single-node engine's estimate and error bound at every eta.
func TestPartialCompositionMatchesSingleNode(t *testing.T) {
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 900, OutDegreeMean: 6, Attachment: 0.7, Seed: 11})
	if err != nil {
		t.Fatalf("SocialGraph: %v", err)
	}
	base := Options{NumHubs: 120}
	single, err := NewEngine(g, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Precompute(); err != nil {
		t.Fatalf("single Precompute: %v", err)
	}

	const shards = 3
	engines := make([]*Engine, shards)
	ownedTotal := 0
	for s := 0; s < shards; s++ {
		opts := base
		opts.Partition = Partition{Shard: s, Shards: shards}
		e, err := NewEngine(g, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Precompute(); err != nil {
			t.Fatalf("shard %d Precompute: %v", s, err)
		}
		if e.Hubs().Size() != single.Hubs().Size() {
			t.Fatalf("shard %d selected %d hubs, single node %d: hub selection must be shard-independent",
				s, e.Hubs().Size(), single.Hubs().Size())
		}
		ownedTotal += e.Index().Len()
		engines[s] = e
	}
	if ownedTotal != single.Index().Len() {
		t.Fatalf("shards index %d hubs in total, single node %d: partition must cover the hub set exactly once",
			ownedTotal, single.Index().Len())
	}

	for _, q := range []graph.NodeID{0, 5, 17, 123, 500, 899} {
		for _, eta := range []int{0, 1, 2, 4} {
			want, err := single.Query(q, StopCondition{MaxIterations: eta})
			if err != nil {
				t.Fatalf("single Query(%d, eta=%d): %v", q, eta, err)
			}
			got := routeQuery(t, engines, q, eta)
			if math.Abs(got.L1ErrorBound-want.L1ErrorBound) > 1e-12 {
				t.Errorf("q=%d eta=%d: routed bound %.15f, single-node %.15f", q, eta, got.L1ErrorBound, want.L1ErrorBound)
			}
			if d := got.Estimate.L1Distance(want.Estimate); d > 1e-12 {
				t.Errorf("q=%d eta=%d: routed estimate differs from single node by L1 %.3e", q, eta, d)
			}
			wantTop := want.TopK(10)
			gotTop := got.Estimate.TopK(10)
			if len(wantTop) != len(gotTop) {
				t.Fatalf("q=%d eta=%d: top-k lengths differ: %d vs %d", q, eta, len(gotTop), len(wantTop))
			}
			for i := range wantTop {
				if wantTop[i].Node != gotTop[i].Node {
					t.Errorf("q=%d eta=%d: top-k rank %d is node %d, single node has %d",
						q, eta, i, gotTop[i].Node, wantTop[i].Node)
				}
			}
		}
	}
}

// TestPartialSingleShardByteIdentical: with one shard the partial path must be
// byte-identical to Step — same expansion order, same accumulation order.
func TestPartialSingleShardByteIdentical(t *testing.T) {
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 400, OutDegreeMean: 5, Attachment: 0.7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, nil, Options{NumHubs: 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	const q, eta = 7, 3
	want, err := e.Query(q, StopCondition{MaxIterations: eta})
	if err != nil {
		t.Fatal(err)
	}
	got := routeQuery(t, []*Engine{e}, q, eta)
	if got.L1ErrorBound != want.L1ErrorBound {
		t.Errorf("bound %v != %v: single-shard partial path must be bit-exact", got.L1ErrorBound, want.L1ErrorBound)
	}
	for n, s := range want.Estimate {
		if got.Estimate[n] != s {
			t.Fatalf("estimate[%d] = %v, want %v (bit-exact)", n, got.Estimate[n], s)
		}
	}
	if len(got.Estimate) != len(want.Estimate) {
		t.Fatalf("estimate has %d entries, want %d", len(got.Estimate), len(want.Estimate))
	}
}

// TestPartialExpandThenFoldEqualsStep: PartialExpand and Step run one per-hub
// kernel, so over a disabled partition a partial expansion of a query's
// frontier, folded into its estimate, is the next Step entry for entry — the
// increment, the next frontier and the hub counts, with ==.
func TestPartialExpandThenFoldEqualsStep(t *testing.T) {
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 400, OutDegreeMean: 5, Attachment: 0.7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, nil, Options{NumHubs: 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	qs, err := e.NewQuery(7)
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	for iter := 1; iter <= 3; iter++ {
		frontier := make(map[graph.NodeID]float64)
		for _, fe := range qs.bufs.frontier {
			frontier[fe.hub] = fe.prefix
		}
		before := qs.Result().Estimate
		part, err := e.PartialExpand(frontier)
		if err != nil {
			t.Fatal(err)
		}
		st := qs.Step()
		if part.HubsExpanded != st.HubsExpanded || part.HubsSkipped != st.HubsSkipped || len(part.Unowned) != 0 {
			t.Fatalf("iteration %d: partial expanded %d skipped %d unowned %v, Step %d and %d",
				iter, part.HubsExpanded, part.HubsSkipped, part.Unowned, st.HubsExpanded, st.HubsSkipped)
		}
		if got := part.Increment.SumOrdered(); got != st.MassAdded {
			t.Errorf("iteration %d: partial increment sums to %v, Step added %v", iter, got, st.MassAdded)
		}
		after := qs.Result().Estimate
		for n, s := range after {
			if want := before[n] + part.Increment[n]; s != want {
				t.Fatalf("iteration %d: estimate[%d] = %v after Step, fold of the partial gives %v", iter, n, s, want)
			}
		}
		for n := range part.Increment {
			if _, ok := after[n]; !ok {
				t.Fatalf("iteration %d: partial increment has node %d, Step's estimate does not", iter, n)
			}
		}
		if len(part.Frontier) != len(qs.bufs.frontier) {
			t.Fatalf("iteration %d: partial frontier has %d hubs, Step's %d", iter, len(part.Frontier), len(qs.bufs.frontier))
		}
		for _, fe := range qs.bufs.frontier {
			if part.Frontier[fe.hub] != fe.prefix {
				t.Fatalf("iteration %d: frontier[%d] = %v in the partial, %v after Step", iter, fe.hub, part.Frontier[fe.hub], fe.prefix)
			}
		}
	}
}

// TestPartialExpandRejectsUnownedHubs: mass routed to the wrong shard is
// refused and reported, never silently dropped or expanded.
func TestPartialExpandRejectsUnownedHubs(t *testing.T) {
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 300, OutDegreeMean: 5, Attachment: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumHubs: 40, Partition: Partition{Shard: 0, Shards: 2}}
	e, err := NewEngine(g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	var owned, foreign graph.NodeID = -1, -1
	for _, h := range e.Hubs().Hubs() {
		if opts.Partition.Owns(h) && owned < 0 {
			owned = h
		}
		if !opts.Partition.Owns(h) && foreign < 0 {
			foreign = h
		}
	}
	if owned < 0 || foreign < 0 {
		t.Skip("partition left a shard empty on this graph")
	}
	part, err := e.PartialExpand(map[graph.NodeID]float64{owned: 0.5, foreign: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if part.HubsExpanded != 1 {
		t.Errorf("expanded %d hubs, want 1", part.HubsExpanded)
	}
	if len(part.Unowned) != 1 || part.Unowned[0] != foreign {
		t.Errorf("Unowned = %v, want [%d]", part.Unowned, foreign)
	}
}

// TestShardedApplyUpdateStaysInPartition: an incremental update on a shard
// must recompute owned hubs only.
func TestShardedApplyUpdateStaysInPartition(t *testing.T) {
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 300, OutDegreeMean: 5, Attachment: 0.7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumHubs: 40, Partition: Partition{Shard: 1, Shards: 2}}
	e, err := NewEngine(g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	before := e.Index().Len()
	stats, err := e.ApplyUpdate(GraphUpdate{AddedEdges: []graph.Edge{{From: 0, To: 42}, {From: 7, To: 9}}})
	if err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	for _, h := range stats.Recomputed {
		if !opts.Partition.Owns(h) {
			t.Errorf("update recomputed hub %d owned by the other shard", h)
		}
	}
	if got := e.Index().Len(); got != before {
		t.Errorf("index grew from %d to %d hubs: update leaked unowned hubs into the shard", before, got)
	}
	if stats.AffectedHubs+stats.UnaffectedHubs != before {
		t.Errorf("affected %d + unaffected %d != owned %d", stats.AffectedHubs, stats.UnaffectedHubs, before)
	}
}

// TestShardedServingEngineValidation: opening a shard index as the wrong
// shard, or with a foreign hub, must fail loudly.
func TestShardedServingEngineValidation(t *testing.T) {
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 300, OutDegreeMean: 5, Attachment: 0.7, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumHubs: 40, Partition: Partition{Shard: 0, Shards: 2}}
	e, err := NewEngine(g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	idx := e.index

	if _, err := NewServingEngine(g, g, idx, opts); err != nil {
		t.Fatalf("reopening the right shard failed: %v", err)
	}
	wrong := opts
	wrong.Partition.Shard = 1
	if _, err := NewServingEngine(g, g, idx, wrong); err == nil {
		t.Error("opening shard 0's index as shard 1 should fail")
	}
}

package core

import (
	"fmt"
	"math"
	"slices"
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
// does: a root partial on the owner, then per-iteration scatter of the sorted
// frontier to owning shards, a deterministic merge of their sorted slices in
// shard order, and the exact 1-mass bound.
func routeQuery(t *testing.T, engines []*Engine, q graph.NodeID, eta int) *Result {
	t.Helper()
	p := Partition{Shards: len(engines)}
	root, err := engines[p.Owner(q)].PartialRootSorted(q)
	if err != nil {
		t.Fatalf("PartialRootSorted(%d): %v", q, err)
	}
	var estimate, merged, frontier sparse.Accumulator
	estimate.AddSorted(root.IncrementNodes, root.IncrementScores)
	frontier.AddSorted(root.FrontierNodes, root.FrontierScores)
	mass := estimate.Sum()
	res := &Result{Query: q, L1ErrorBound: 1 - mass}
	for iter := 1; iter <= eta && frontier.Len() > 0; iter++ {
		hubs := make([][]graph.NodeID, len(engines))
		prefixes := make([][]float64, len(engines))
		for _, en := range frontier.Entries() {
			owner := p.Owner(en.Node)
			hubs[owner] = append(hubs[owner], en.Node)
			prefixes[owner] = append(prefixes[owner], en.Score)
		}
		merged.Reset()
		frontier.Reset()
		for s, e := range engines {
			if hubs[s] == nil {
				continue
			}
			part, err := e.PartialExpand(hubs[s], prefixes[s])
			if err != nil {
				t.Fatalf("PartialExpand shard %d: %v", s, err)
			}
			if len(part.Unowned) > 0 {
				t.Fatalf("shard %d rejected hubs %v it should own", s, part.Unowned)
			}
			merged.AddSorted(part.IncrementNodes, part.IncrementScores)
			frontier.AddSorted(part.FrontierNodes, part.FrontierScores)
		}
		estimate.AddAccumulator(&merged)
		mass += merged.Sum()
		res.Iterations = iter
		res.L1ErrorBound = 1 - mass
	}
	res.Entries = slices.Clone(estimate.Entries())
	res.Estimate = sparse.FromEntries(res.Entries)
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

// TestPartialRootFrontierIsPruned: the root frontier is pruned by delta where
// it is born. Every weight that leaves PartialRootSorted exceeds delta, and
// the kept hubs plus HubsSkipped are exactly the positive-weight hub entries
// of the increment, the query node's own entry less its empty tour.
func TestPartialRootFrontierIsPruned(t *testing.T) {
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
	var sources []graph.NodeID
	hubSources := 0
	for q := graph.NodeID(0); len(sources) < 40; q++ {
		if e.Hubs().Contains(q) {
			if hubSources == 8 {
				continue
			}
			hubSources++
		}
		sources = append(sources, q)
	}
	pruned := 0
	for _, q := range sources {
		root, err := e.PartialRootSorted(q)
		if err != nil {
			t.Fatal(err)
		}
		for k, w := range root.FrontierScores {
			if !(w > e.opts.Delta) {
				t.Errorf("q=%d: frontier hub %d has weight %v, not above delta %v", q, root.FrontierNodes[k], w, e.opts.Delta)
			}
		}
		candidates := 0
		for k, n := range root.IncrementNodes {
			w := root.IncrementScores[k]
			if n == q {
				w -= e.opts.Alpha
			}
			if e.Hubs().Contains(n) && w > 0 {
				candidates++
			}
		}
		if len(root.FrontierNodes)+root.HubsSkipped != candidates {
			t.Errorf("q=%d (hub %v): %d kept + %d pruned, the increment has %d positive hub entries",
				q, e.Hubs().Contains(q), len(root.FrontierNodes), root.HubsSkipped, candidates)
		}
		pruned += root.HubsSkipped
	}
	if hubSources == 0 || pruned == 0 {
		t.Fatalf("%d hub sources, %d hubs pruned: the test exercises neither the self-correction nor the prune", hubSources, pruned)
	}
}

// TestPartialExpandThenFoldEqualsStep: PartialExpand and Step run one per-hub
// kernel, so over a disabled partition a partial expansion of a query's
// frontier, folded into its estimate, is the next Step entry for entry — the
// increment, the next frontier and the hub counts, with == on the bits. The
// query's frontier is pruned by delta where it is born and the partial's is
// not, so the partial's skips plus the query's pruned count are Step's skips,
// and the partial's frontier pruned by delta is the query's next one.
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
	src := qs.src.(*localSource)
	for iter := 1; iter <= 3; iter++ {
		hubs, prefixes := splitEntries(qs.bufs.frontier)
		pruned := src.pruned
		var folded sparse.Accumulator
		folded.SetEntries(qs.bufs.acc.Entries())
		part, err := e.PartialExpand(hubs, prefixes)
		if err != nil {
			t.Fatal(err)
		}
		st := qs.Step()
		if part.HubsExpanded != st.HubsExpanded || part.HubsSkipped+pruned != st.HubsSkipped || len(part.Unowned) != 0 {
			t.Fatalf("iteration %d: partial expanded %d skipped %d (+%d pruned) unowned %v, Step %d and %d",
				iter, part.HubsExpanded, part.HubsSkipped, pruned, part.Unowned, st.HubsExpanded, st.HubsSkipped)
		}
		if part.HubsSkipped != 0 {
			t.Errorf("iteration %d: the pruned frontier still had %d sub-delta hubs", iter, part.HubsSkipped)
		}
		var inc sparse.Accumulator
		inc.AddSorted(part.IncrementNodes, part.IncrementScores)
		if got := inc.Sum(); got != st.MassAdded {
			t.Errorf("iteration %d: partial increment sums to %v, Step added %v", iter, got, st.MassAdded)
		}
		folded.AddAccumulator(&inc)
		sameEntries(t, fmt.Sprintf("iteration %d: estimate after Step vs fold of the partial", iter),
			qs.bufs.acc.Entries(), folded.Entries())
		var next []sparse.Entry
		for k, h := range part.FrontierNodes {
			next = append(next, sparse.Entry{Node: h, Score: part.FrontierScores[k]})
		}
		next, nextPruned := e.frontierOf(next, -1, nil)
		sameEntries(t, fmt.Sprintf("iteration %d: pruned partial frontier vs Step's", iter), next, qs.bufs.frontier)
		if nextPruned != src.pruned || len(part.FrontierNodes) != qs.src.Frontier() {
			t.Errorf("iteration %d: partial frontier of %d hubs prunes %d, the query holds %d pruned of %d",
				iter, len(part.FrontierNodes), nextPruned, src.pruned, qs.src.Frontier())
		}
	}
}

// TestPartialExpandRejectsUnownedHubs: mass routed to the wrong shard, or to
// an id that is no hub at all, is refused and reported in ascending order,
// never silently dropped or expanded — and the owned hubs around it in the
// sorted frontier still expand, exactly as they would alone.
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
	var owned, refused []graph.NodeID
	for n := graph.NodeID(0); int(n) < g.NumNodes(); n++ {
		if e.Hubs().Contains(n) && opts.Partition.Owns(n) {
			owned = append(owned, n)
		} else if len(owned) > 0 {
			refused = append(refused, n) // a foreign hub or a non-hub after an owned hub
		}
	}
	if len(owned) < 2 || len(refused) == 0 {
		t.Skip("partition left too few owned hubs on this graph")
	}

	// Alone: the owned hubs only.
	ownedPrefixes := make([]float64, len(owned))
	for i := range ownedPrefixes {
		ownedPrefixes[i] = 0.5
	}
	alone, err := e.PartialExpand(owned, ownedPrefixes)
	if err != nil {
		t.Fatal(err)
	}
	if alone.HubsExpanded != len(owned) || len(alone.Unowned) != 0 {
		t.Fatalf("owned hubs alone: expanded %d of %d, unowned %v", alone.HubsExpanded, len(owned), alone.Unowned)
	}

	// Mixed: every id from the first owned hub up, owned or not, ascending —
	// so refused ids sit between owned ones.
	var hubs []graph.NodeID
	var prefixes []float64
	for n := owned[0]; int(n) < g.NumNodes(); n++ {
		hubs = append(hubs, n)
		prefixes = append(prefixes, 0.5)
	}
	part, err := e.PartialExpand(hubs, prefixes)
	if err != nil {
		t.Fatal(err)
	}
	if part.HubsExpanded != len(owned) {
		t.Errorf("expanded %d hubs, want the %d owned ones", part.HubsExpanded, len(owned))
	}
	if !slices.Equal(part.Unowned, refused) {
		t.Errorf("Unowned = %v, want %v", part.Unowned, refused)
	}
	sameSlices(t, "mixed frontier increment vs owned hubs alone",
		part.IncrementNodes, part.IncrementScores, alone.IncrementNodes, alone.IncrementScores)
	sameSlices(t, "mixed frontier next frontier vs owned hubs alone",
		part.FrontierNodes, part.FrontierScores, alone.FrontierNodes, alone.FrontierScores)

	// An unsorted frontier is an error, not a silently reordered expansion.
	if _, err := e.PartialExpand([]graph.NodeID{owned[1], owned[0]}, []float64{0.5, 0.5}); err == nil {
		t.Error("PartialExpand accepted a descending frontier")
	}
}

// sameSlices fails unless two sorted parallel vectors are equal bit for bit.
func sameSlices(t *testing.T, what string, gotNodes []graph.NodeID, gotScores []float64, wantNodes []graph.NodeID, wantScores []float64) {
	t.Helper()
	if !slices.Equal(gotNodes, wantNodes) || len(gotScores) != len(wantScores) {
		t.Fatalf("%s: nodes %v, want %v", what, gotNodes, wantNodes)
	}
	for i := range gotScores {
		if math.Float64bits(gotScores[i]) != math.Float64bits(wantScores[i]) {
			t.Fatalf("%s: node %d scores %v, want %v (bit-exact)", what, gotNodes[i], gotScores[i], wantScores[i])
		}
	}
}

// sameEntries fails unless two sorted entry slices are equal bit for bit.
func sameEntries(t *testing.T, what string, got, want []sparse.Entry) {
	t.Helper()
	gotNodes, gotScores := splitEntries(got)
	wantNodes, wantScores := splitEntries(want)
	sameSlices(t, what, gotNodes, gotScores, wantNodes, wantScores)
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

package prime

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/hub"
	"fastppv/internal/pagerank"
	"fastppv/internal/sparse"
)

const alpha = pagerank.DefaultAlpha

// chainWithHub builds q -> h -> c where h is a hub.
func chainWithHub(t testing.TB) (*graph.Graph, *hub.Set) {
	t.Helper()
	b := graph.NewBuilder(true)
	b.EnsureNodes(3)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	return b.Finalize(), hub.NewSet([]graph.NodeID{1})
}

func TestComputePPVStopsAtHub(t *testing.T) {
	g, hubs := chainWithHub(t)
	ppv, stats, err := ComputePPV(g, 0, hubs, Options{})
	if err != nil {
		t.Fatalf("ComputePPV: %v", err)
	}
	// Hub-free tours from node 0: the empty tour and 0->1 (1 is the border
	// hub). The tour 0->1->2 passes through hub 1 and is excluded.
	if got, want := ppv.Get(0), alpha; math.Abs(got-want) > 1e-12 {
		t.Errorf("self score = %v, want %v", got, want)
	}
	if got, want := ppv.Get(1), alpha*(1-alpha); math.Abs(got-want) > 1e-12 {
		t.Errorf("border hub score = %v, want %v", got, want)
	}
	if got := ppv.Get(2); got != 0 {
		t.Errorf("node behind the hub has score %v, want 0", got)
	}
	if stats.BorderHubs != 1 {
		t.Errorf("BorderHubs = %d, want 1", stats.BorderHubs)
	}
	if stats.NodesTouched != 2 {
		t.Errorf("NodesTouched = %d, want 2", stats.NodesTouched)
	}
}

func TestComputePPVOnHubSourceExpandsItself(t *testing.T) {
	g, hubs := chainWithHub(t)
	// The hub's own prime PPV must expand from the hub (the starting
	// occurrence is not an interior hub).
	ppv, _, err := ComputePPV(g, 1, hubs, Options{})
	if err != nil {
		t.Fatalf("ComputePPV: %v", err)
	}
	if got, want := ppv.Get(2), alpha*(1-alpha); math.Abs(got-want) > 1e-12 {
		t.Errorf("score of 2 from hub source = %v, want %v", got, want)
	}
}

func TestComputePPVDoesNotExpandReturningToHubSource(t *testing.T) {
	// h <-> x: tours from hub h that return to h must stop there; the
	// returning occurrence of h is interior for any continuation.
	b := graph.NewBuilder(true)
	b.EnsureNodes(2)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 0)
	g := b.Finalize()
	hubs := hub.NewSet([]graph.NodeID{0})

	ppv, _, err := ComputePPV(g, 0, hubs, Options{Epsilon: 1e-15})
	if err != nil {
		t.Fatalf("ComputePPV: %v", err)
	}
	// Hub-free tours from 0: empty, 0->1, 0->1->0. Any longer tour passes
	// through the interior occurrence of hub 0.
	wantSelf := alpha * (1 + (1-alpha)*(1-alpha))
	wantX := alpha * (1 - alpha)
	if got := ppv.Get(0); math.Abs(got-wantSelf) > 1e-12 {
		t.Errorf("self score = %.8f, want %.8f", got, wantSelf)
	}
	if got := ppv.Get(1); math.Abs(got-wantX) > 1e-12 {
		t.Errorf("score of 1 = %.8f, want %.8f", got, wantX)
	}
}

func TestComputePPVNoHubsEqualsExactPPV(t *testing.T) {
	// With an empty hub set and a negligible epsilon, the prime PPV of a node
	// is its exact PPV.
	b := graph.NewBuilder(true)
	b.EnsureNodes(6)
	for i := 0; i < 6; i++ {
		b.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%6))
		b.MustAddEdge(graph.NodeID(i), graph.NodeID((i+2)%6))
	}
	g := b.Finalize()
	hubs := hub.NewSet(nil)
	prime, _, err := ComputePPV(g, 0, hubs, Options{Epsilon: 1e-14})
	if err != nil {
		t.Fatalf("ComputePPV: %v", err)
	}
	exact, err := pagerank.ExactPPV(g, 0, pagerank.Options{})
	if err != nil {
		t.Fatalf("ExactPPV: %v", err)
	}
	if d := exact.L1Distance(prime); d > 1e-6 {
		t.Errorf("hub-free prime PPV differs from exact PPV by %v", d)
	}
}

func TestComputePPVMassNeverExceedsOne(t *testing.T) {
	g, hubs := chainWithHub(t)
	ppv, _, err := ComputePPV(g, 0, hubs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ppv.Sum() > 1+1e-12 {
		t.Errorf("prime PPV mass %v exceeds 1", ppv.Sum())
	}
}

func TestComputePPVValidation(t *testing.T) {
	g, hubs := chainWithHub(t)
	if _, _, err := ComputePPV(g, 99, hubs, Options{}); err == nil {
		t.Error("out-of-range source should fail")
	}
	if _, _, err := ComputePPV(g, 0, hubs, Options{Alpha: 3}); err == nil {
		t.Error("invalid alpha should fail")
	}
	if _, _, err := ComputePPV(g, 0, hubs, Options{Epsilon: -1}); err == nil {
		t.Error("negative epsilon should fail")
	}
	if _, _, err := ComputePPV(g, 0, hubs, Options{MaxPushes: -1}); err == nil {
		t.Error("negative MaxPushes should fail")
	}
}

func TestComputePPVMaxPushesTruncates(t *testing.T) {
	// A long chain with a tiny push budget gets truncated but still returns
	// a (partial) result.
	b := graph.NewBuilder(true)
	const n = 100
	b.EnsureNodes(n)
	for i := 0; i < n-1; i++ {
		b.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Finalize()
	ppv, stats, err := ComputePPV(g, 0, hub.NewSet(nil), Options{MaxPushes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated {
		t.Error("expected truncation with MaxPushes=5")
	}
	if ppv.Sum() > 1+1e-12 {
		t.Errorf("truncated prime PPV mass %v exceeds 1", ppv.Sum())
	}
}

// TestPrimeSubgraphStats reads the prime subgraph's size and border off the
// kernel's Stats: every node hub-free tours reach is touched, nodes behind the
// border hub are not.
func TestPrimeSubgraphStats(t *testing.T) {
	b := graph.NewBuilder(true)
	b.EnsureNodes(7)
	edges := [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {2, 6}}
	for _, e := range edges {
		b.MustAddEdge(e[0], e[1])
	}
	g := b.Finalize()
	hubs := hub.NewSet([]graph.NodeID{3})

	ppv, stats, err := ComputePPV(g, 0, hubs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The prime subgraph of 0 is {0, 1, 2, 3, 6}; 3 is its only border hub.
	if stats.NodesTouched != 5 || len(ppv) != 5 {
		t.Errorf("NodesTouched = %d over %d entries, want 5", stats.NodesTouched, len(ppv))
	}
	for _, node := range []graph.NodeID{0, 1, 2, 3, 6} {
		if ppv.Get(node) <= 0 {
			t.Errorf("node %d is in the prime subgraph but has no mass", node)
		}
	}
	// Nodes behind the hub (4, 5) are excluded.
	if _, ok := ppv[4]; ok {
		t.Error("node 4 behind the border hub leaked into the prime PPV")
	}
	if _, ok := ppv[5]; ok {
		t.Error("node 5 behind the border hub leaked into the prime PPV")
	}
	if stats.BorderHubs != 1 {
		t.Errorf("BorderHubs = %d, want 1", stats.BorderHubs)
	}
}

// TestQuickPrimePPVBoundedAndHubBlocked property-tests two invariants on
// random graphs: prime PPV mass never exceeds 1, and nodes reachable only
// through hubs receive no mass.
func TestQuickPrimePPVBoundedAndHubBlocked(t *testing.T) {
	f := func(rawEdges []uint16, hubPick uint8) bool {
		const n = 24
		b := graph.NewBuilder(true)
		b.EnsureNodes(n)
		for i := 0; i+1 < len(rawEdges); i += 2 {
			u := graph.NodeID(int(rawEdges[i]) % n)
			v := graph.NodeID(int(rawEdges[i+1]) % n)
			if u != v {
				b.MustAddEdge(u, v)
			}
		}
		g := b.Finalize()
		hubs := hub.NewSet([]graph.NodeID{graph.NodeID(int(hubPick) % n), graph.NodeID((int(hubPick) + 7) % n)})
		ppv, _, err := ComputePPV(g, 0, hubs, Options{})
		if err != nil {
			return false
		}
		return ppv.Sum() <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// referencePPV is the map-based push the dense kernel replaced, kept verbatim
// as the oracle: the kernel must reproduce its processing order exactly, so
// every score is compared with ==, never a tolerance.
func referencePPV(g Adjacency, src graph.NodeID, hubs *hub.Set, opts Options) (sparse.Vector, Stats, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, Stats{}, err
	}
	if src < 0 || int(src) >= g.NumNodes() {
		return nil, Stats{}, fmt.Errorf("prime: %w: source %d", graph.ErrNodeOutOfRange, src)
	}

	reach := make(map[graph.NodeID]float64)
	residual := make(map[graph.NodeID]float64)
	var queue []graph.NodeID
	inQueue := make(map[graph.NodeID]bool)
	var stats Stats

	reach[src] = 1
	stats.Pushes++
	if deg := g.OutDegree(src); deg > 0 {
		share := (1 - opts.Alpha) / float64(deg)
		for _, v := range g.OutNeighbors(src) {
			residual[v] += share
			if !inQueue[v] {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
	}

	for head := 0; head < len(queue); head++ {
		if stats.Pushes >= opts.MaxPushes {
			stats.Truncated = true
			break
		}
		if head > 1<<16 && head*2 > len(queue) {
			queue = append(queue[:0], queue[head:]...)
			head = 0
		}
		u := queue[head]
		inQueue[u] = false
		r := residual[u]
		if r == 0 {
			continue
		}
		delete(residual, u)
		reach[u] += r
		stats.Pushes++

		if hubs.Contains(u) {
			continue
		}
		if r < opts.Epsilon {
			continue
		}
		deg := g.OutDegree(u)
		if deg == 0 {
			continue
		}
		share := r * (1 - opts.Alpha) / float64(deg)
		for _, v := range g.OutNeighbors(u) {
			residual[v] += share
			if !inQueue[v] {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
	}
	for u, r := range residual {
		reach[u] += r
	}

	out := sparse.New(len(reach))
	for u, w := range reach {
		out[u] = opts.Alpha * w
	}
	stats.NodesTouched = len(reach)
	for u := range reach {
		if u != src && hubs.Contains(u) {
			stats.BorderHubs++
		}
	}
	return out, stats, nil
}

// checkAgainstReference pushes src on s and on the map oracle and requires
// equal key sets, == scores, strictly ascending emit order and equal Stats.
func checkAgainstReference(t *testing.T, s *Scratch, g Adjacency, src graph.NodeID, hubs *hub.Set, opts Options) {
	t.Helper()
	want, wantStats, err := referencePPV(g, src, hubs, opts)
	if err != nil {
		t.Fatalf("referencePPV(%d): %v", src, err)
	}
	got, gotStats, err := s.Push(g, src, hubs, opts, 0)
	if err != nil {
		t.Fatalf("Push(%d): %v", src, err)
	}
	if gotStats != wantStats {
		t.Errorf("source %d: Stats = %+v, reference %+v", src, gotStats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("source %d: %d entries, reference has %d", src, len(got), len(want))
	}
	for i, e := range got {
		if i > 0 && got[i-1].Node >= e.Node {
			t.Fatalf("source %d: entries not strictly ascending at %d: %d then %d", src, i, got[i-1].Node, e.Node)
		}
		ref, ok := want[e.Node]
		if !ok {
			t.Fatalf("source %d: node %d emitted but absent from the reference", src, e.Node)
		}
		if e.Score != ref {
			t.Fatalf("source %d: node %d = %v, reference %v (must be ==)", src, e.Node, e.Score, ref)
		}
	}
}

func socialGraph(t testing.TB, nodes int, seed int64) (*graph.Graph, *hub.Set) {
	t.Helper()
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: nodes, OutDegreeMean: 6, Attachment: 0.8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	hubs, err := hub.Select(g, hub.Options{Policy: hub.ByOutDegree, Count: nodes / 10})
	if err != nil {
		t.Fatal(err)
	}
	return g, hubs
}

func buildGraph(nodes int, edges [][2]graph.NodeID) *graph.Graph {
	b := graph.NewBuilder(true)
	b.EnsureNodes(nodes)
	for _, e := range edges {
		b.MustAddEdge(e[0], e[1])
	}
	return b.Finalize()
}

func TestKernelBitIdenticalToReferenceOnSocialGraph(t *testing.T) {
	g, hubs := socialGraph(t, 3000, 11)
	var s Scratch
	for src := 0; src < g.NumNodes(); src += 23 { // hub and non-hub sources alike
		checkAgainstReference(t, &s, g, graph.NodeID(src), hubs, Options{})
	}
}

func TestKernelBitIdenticalToReferenceOnEdgeCases(t *testing.T) {
	// 0 -> {1,2}, 1 -> 3; 2 and 3 absorb the walk.
	dangling := buildGraph(4, [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}})
	selfLoops := buildGraph(3, [][2]graph.NodeID{{0, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 0}})
	cycle := buildGraph(3, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}})
	isolated := buildGraph(3, [][2]graph.NodeID{{1, 2}})
	// A two-lane ladder: mass reaches node k along many paths and decays
	// geometrically, so a far node first strands below Epsilon and — at
	// alpha 0.5, where halving the smallest denormal rounds to zero — finally
	// receives a residual of exactly 0 (which still makes it a touched node).
	const rungs = 8000
	var ladderEdges [][2]graph.NodeID
	for i := 0; i+2 < rungs; i++ {
		ladderEdges = append(ladderEdges, [2]graph.NodeID{graph.NodeID(i), graph.NodeID(i + 1)}, [2]graph.NodeID{graph.NodeID(i), graph.NodeID(i + 2)})
	}
	ladder := buildGraph(rungs, ladderEdges)

	cases := []struct {
		name string
		g    *graph.Graph
		hubs []graph.NodeID
		opts Options
		srcs []graph.NodeID
	}{
		{"dangling", dangling, nil, Options{}, []graph.NodeID{0, 1, 2, 3}},
		{"dangling hub", dangling, []graph.NodeID{1, 3}, Options{}, []graph.NodeID{0, 1}},
		{"self-loops", selfLoops, nil, Options{}, []graph.NodeID{0, 1, 2}},
		{"self-loop on a hub source", selfLoops, []graph.NodeID{0}, Options{}, []graph.NodeID{0, 1}},
		{"hub source re-entered by a cycle", cycle, []graph.NodeID{0}, Options{Epsilon: 1e-15}, []graph.NodeID{0, 1, 2}},
		{"isolated source", isolated, []graph.NodeID{1}, Options{}, []graph.NodeID{0}},
		{"MaxPushes truncation settles the leftover residual", ladder, nil, Options{MaxPushes: 40}, []graph.NodeID{0, 5}},
		{"MaxPushes of one", cycle, nil, Options{MaxPushes: 1}, []graph.NodeID{0}},
		{"Epsilon strands faraway mass", ladder, nil, Options{Epsilon: 0.01}, []graph.NodeID{0}},
		{"residual underflows to zero", ladder, nil, Options{Alpha: 0.5, Epsilon: math.SmallestNonzeroFloat64}, []graph.NodeID{0}},
	}
	var s Scratch // shared on purpose: every case also follows a different graph
	for _, tc := range cases {
		hubs := hub.NewSet(tc.hubs)
		for _, src := range tc.srcs {
			checkAgainstReference(t, &s, tc.g, src, hubs, tc.opts)
		}
	}

	// The cases above must actually reach the branches they are named for.
	_, stats, _ := s.Push(ladder, 0, nil, Options{MaxPushes: 40}, 0)
	if !stats.Truncated || stats.NodesTouched <= stats.Pushes/2 {
		t.Errorf("truncation case: %+v, want Truncated with unsettled nodes beyond the pushed ones", stats)
	}
	got, stats, _ := s.Push(ladder, 0, nil, Options{Alpha: 0.5, Epsilon: math.SmallestNonzeroFloat64}, 0)
	if last := got[len(got)-1]; last.Score != 0 || stats.NodesTouched == rungs {
		t.Errorf("underflow case: last entry %+v of %d touched, want a zero-score entry short of the ladder's end", last, stats.NodesTouched)
	}
}

func TestComputePPVWrapperMatchesKernel(t *testing.T) {
	g, hubs := socialGraph(t, 1500, 3)
	var s Scratch
	for _, src := range []graph.NodeID{0, 1, 17, 700, 1499} {
		entries, kstats, err := s.Push(g, src, hubs, Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		vec, wstats, err := ComputePPV(g, src, hubs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if wstats != kstats || len(vec) != len(entries) {
			t.Fatalf("source %d: wrapper %+v over %d entries, kernel %+v over %d", src, wstats, len(vec), kstats, len(entries))
		}
		for _, e := range entries {
			if got, ok := vec[e.Node]; !ok || got != e.Score {
				t.Fatalf("source %d: wrapper has %v at node %d, kernel %v", src, got, e.Node, e.Score)
			}
		}
	}
}

func TestClipAtEmitMatchesVectorClip(t *testing.T) {
	g, hubs := socialGraph(t, 3000, 11)
	var s Scratch
	for _, clip := range []float64{1e-4, 1e-2, 1} {
		for src := 0; src < g.NumNodes(); src += 97 {
			want, wantStats, err := ComputePPV(g, graph.NodeID(src), hubs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			removed := want.Clip(clip)
			got, stats, err := s.Push(g, graph.NodeID(src), hubs, Options{}, clip)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Clipped != removed || len(got) != len(want) {
				t.Fatalf("source %d clip %g: kept %d dropped %d, Vector.Clip kept %d dropped %d",
					src, clip, len(got), stats.Clipped, len(want), removed)
			}
			// The clip filters the emit; it does not change what the push did.
			stats.Clipped = 0
			if stats != wantStats {
				t.Fatalf("source %d clip %g: Stats %+v, unclipped %+v", src, clip, stats, wantStats)
			}
			for _, e := range got {
				if ref, ok := want[e.Node]; !ok || ref != e.Score {
					t.Fatalf("source %d clip %g: node %d = %v, Vector.Clip kept %v (present %v)", src, clip, e.Node, e.Score, ref, ok)
				}
			}
		}
	}
}

func TestScratchReuseAcrossGraphSizes(t *testing.T) {
	mid, midHubs := socialGraph(t, 2000, 5)
	small := buildGraph(7, [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {2, 6}})
	smallHubs := hub.NewSet([]graph.NodeID{3})
	big, bigHubs := socialGraph(t, 4000, 6)

	var s Scratch
	for round := 0; round < 2; round++ {
		for _, src := range []graph.NodeID{0, 13, 1999} { // grow
			checkAgainstReference(t, &s, mid, src, midHubs, Options{})
		}
		for src := graph.NodeID(0); src < 7; src++ { // shrink: stale cells beyond node 6 stay stamped
			checkAgainstReference(t, &s, small, src, smallHubs, Options{})
		}
		for _, src := range []graph.NodeID{3999, 2500, 6} { // grow past the first size
			checkAgainstReference(t, &s, big, src, bigHubs, Options{})
		}
	}
}

func TestScratchEpochWraparound(t *testing.T) {
	g, hubs := socialGraph(t, 2000, 5)
	var s Scratch
	// Leave a few thousand cells stamped with epoch 1, then jump to the last
	// epoch: the next push restarts the counter at 1 and must not mistake
	// those cells for its own.
	checkAgainstReference(t, &s, g, 0, hubs, Options{})
	s.epoch = math.MaxUint32
	checkAgainstReference(t, &s, g, 1000, hubs, Options{})
	if s.epoch != 1 {
		t.Fatalf("epoch after wraparound = %d, want 1", s.epoch)
	}
	checkAgainstReference(t, &s, g, 0, hubs, Options{})
}

// brokenAdjacency hands the push a neighbour outside the graph.
type brokenAdjacency struct{ *graph.Graph }

func (b brokenAdjacency) OutNeighbors(u graph.NodeID) []graph.NodeID {
	// Copy first: the graph's slice has spare capacity inside the CSR array.
	return append(append([]graph.NodeID(nil), b.Graph.OutNeighbors(u)...), graph.NodeID(b.NumNodes()+5))
}

func TestScratchCleanAfterFailedPush(t *testing.T) {
	g, hubs := socialGraph(t, 2000, 5)
	var s Scratch
	checkAgainstReference(t, &s, g, 3, hubs, Options{})

	if _, _, err := s.Push(g, graph.NodeID(g.NumNodes()), hubs, Options{}, 0); !errors.Is(err, graph.ErrNodeOutOfRange) {
		t.Fatalf("out-of-range source: err = %v, want ErrNodeOutOfRange", err)
	}
	if _, _, err := s.Push(g, -1, hubs, Options{}, 0); err == nil {
		t.Fatal("negative source should fail")
	}
	if _, _, err := s.Push(g, 3, hubs, Options{Alpha: 3}, 0); err == nil {
		t.Fatal("invalid options should fail")
	}
	checkAgainstReference(t, &s, g, 4, hubs, Options{})

	// A push that dies half way (a bug in an Adjacency, not input) leaves
	// touched bits behind; the next push must not emit them.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an out-of-range neighbour should have panicked")
			}
		}()
		s.Push(brokenAdjacency{g}, 5, hubs, Options{}, 0)
	}()
	checkAgainstReference(t, &s, g, 1500, hubs, Options{})
}

// TestKernelSteadyStateAllocatesNothing is the deterministic gate on the
// kernel: once a scratch has served a graph, a push on it allocates no object.
func TestKernelSteadyStateAllocatesNothing(t *testing.T) {
	g, hubs := socialGraph(t, 3000, 11)
	var s Scratch
	srcs := []graph.NodeID{1, 500, 1500, 2999}
	for _, src := range srcs { // warm: cells, bitmap, worklist and emit buffer reach their sizes
		if _, _, err := s.Push(g, src, hubs, Options{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(40, func() {
		s.Push(g, srcs[i%len(srcs)], hubs, Options{}, 1e-4)
		i++
	})
	if allocs != 0 {
		t.Errorf("a push on a warmed scratch allocated %v objects, want 0", allocs)
	}
}

func BenchmarkPush(b *testing.B) {
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 60000, OutDegreeMean: 8, Attachment: 0.85, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	hubs, err := hub.Select(g, hub.Options{Count: 6000})
	if err != nil {
		b.Fatal(err)
	}
	var srcs []graph.NodeID
	for q := graph.NodeID(0); len(srcs) < 256; q += 211 {
		if !hubs.Contains(q) {
			srcs = append(srcs, q)
		}
	}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Push(g, srcs[i%len(srcs)], hubs, Options{}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

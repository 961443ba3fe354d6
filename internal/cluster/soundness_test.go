package cluster

import (
	"math/rand"
	"path/filepath"
	"testing"

	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/pagerank"
	"fastppv/internal/ppvindex"
	"fastppv/internal/sparse"
)

// danglingLoopGraph is a seeded directed graph of n nodes in which every
// ninth node has no out-edge (a dangling node, where the exact walk loses its
// mass) and every fifth keeps a self-loop. Every third node of the first
// tenth, which draws half the edges and so holds the hubs, links to dangling
// nodes only: its prime PPV is its whole PPV, so a hub query there answers
// the exact scores at eta 0, and a stored score rounded up would show.
func danglingLoopGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(true)
	b.AllowSelfLoops(true)
	for i := 0; i < n; i++ {
		b.AddNode()
	}
	for u := 0; u < n; u++ {
		if u%9 == 4 {
			continue
		}
		if u < n/10 && u%3 == 1 {
			for d := 2 + rng.Intn(5); d > 0; d-- {
				b.MustAddEdge(graph.NodeID(u), graph.NodeID(9*rng.Intn(n/9)+4))
			}
			continue
		}
		if u%5 == 0 {
			b.MustAddEdge(graph.NodeID(u), graph.NodeID(u))
		}
		for d := 1 + rng.Intn(6); d > 0; d-- {
			// Half the edges go to the first tenth of the nodes, so the
			// graph has hubs worth the name.
			v := rng.Intn(n)
			if rng.Intn(2) == 0 {
				v = rng.Intn(n / 10)
			}
			b.MustAddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return b.Finalize()
}

// TestStoredRecordsKeepTheBoundSound: hub records hold each score as a
// 16-bit code rounded toward zero (sparse.StoredScore), never above the pushed
// one, so every answer stays a pointwise lower bound of the exact PPV and its
// L1 distance to it stays within the reported bound phi (Theorem 2). It is
// checked at the default options, storage clip included, on a graph with
// dangling nodes and self-loops, for eta 0-8, through an in-memory engine, an
// engine over a disk store and a 2-shard router.
func TestStoredRecordsKeepTheBoundSound(t *testing.T) {
	const nodes = 400
	g := danglingLoopGraph(t, nodes, 5)
	opts := core.Options{NumHubs: 60}
	mem, shards := clusterOver(t, g, opts, 2)
	r := routerOver(t, RouterConfig{}, shards...)

	store, err := ppvindex.CreateStore(filepath.Join(t.TempDir(), "index.ppv"),
		ppvindex.GraphBinding{Nodes: g.NumNodes(), Edges: g.NumEdges(), Directed: true},
		ppvindex.StoreOptions{BlockCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := core.NewEngine(g, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Precompute(); err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	backends := []struct {
		name  string
		query func(graph.NodeID, core.StopCondition) (*core.Result, error)
	}{
		{"engine", mem.Query},
		{"disk", disk.Query},
		{"router/2", func(q graph.NodeID, stop core.StopCondition) (*core.Result, error) {
			res, err := r.Query(q, stop)
			if err != nil {
				return nil, err
			}
			if res.Degraded {
				t.Fatalf("q=%d: a healthy router answered degraded", q)
			}
			return &res.Result, nil
		}},
	}
	hubSources := 0
	for q := graph.NodeID(0); q < nodes; q++ {
		if q >= nodes/10 && q%3 != 0 {
			continue // every source among the hubs, every third beyond
		}
		if mem.Hubs().Contains(q) {
			hubSources++
		}
		// Run the power iteration until (1-alpha)^k is far below float64
		// resolution, so the reference is exact to rounding.
		exact, err := pagerank.ExactPPV(g, q, pagerank.Options{Tolerance: 1e-17, MaxIterations: 400})
		if err != nil {
			t.Fatal(err)
		}
		exactEntries := exact.AppendSorted(nil)
		for eta := 0; eta <= 8; eta++ {
			for _, b := range backends {
				res, err := b.query(q, core.StopCondition{MaxIterations: eta})
				if err != nil {
					t.Fatalf("%s q=%d eta=%d: %v", b.name, q, eta, err)
				}
				checkSound(t, b.name, q, eta, exactEntries, res)
			}
		}
	}
	if hubSources == 0 {
		t.Fatal("no source is a hub; the stored root record goes unchecked")
	}
}

// checkSound asserts est <= exact + 1e-15 at every node and L1 <= phi for
// one answer.
func checkSound(t *testing.T, name string, q graph.NodeID, eta int, exact []sparse.Entry, res *core.Result) {
	t.Helper()
	est := res.Estimate
	l1, i := 0.0, 0
	for _, e := range est.AppendSorted(nil) {
		for i < len(exact) && exact[i].Node < e.Node {
			l1 += exact[i].Score
			i++
		}
		x := 0.0
		if i < len(exact) && exact[i].Node == e.Node {
			x = exact[i].Score
			i++
		}
		if e.Score > x+1e-15 {
			t.Fatalf("%s q=%d eta=%d: estimate %.17g at node %d is above the exact %.17g", name, q, eta, e.Score, e.Node, x)
		}
		l1 += x - e.Score
	}
	for ; i < len(exact); i++ {
		l1 += exact[i].Score
	}
	if l1 > res.L1ErrorBound {
		t.Fatalf("%s q=%d eta=%d: L1 error %.17g is above the bound %.17g", name, q, eta, l1, res.L1ErrorBound)
	}
}

package diskgraph

import (
	"os"
	"strings"
	"testing"

	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/hub"
	"fastppv/internal/prime"
)

func buildStore(t *testing.T, clusters int) (*graph.Graph, *Store) {
	t.Helper()
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 800, OutDegreeMean: 5, Attachment: 0.8, Seed: 6})
	if err != nil {
		t.Fatalf("SocialGraph: %v", err)
	}
	clustering, err := Partition(g, ClusterOptions{NumClusters: clusters, Seed: 2})
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	store, err := Build(g, clustering, t.TempDir())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, store
}

func TestViewMatchesInMemoryGraph(t *testing.T) {
	g, store := buildStore(t, 6)
	view := store.NewView(0)
	for u := 0; u < g.NumNodes(); u += 17 {
		id := graph.NodeID(u)
		if got, want := view.OutDegree(id), g.OutDegree(id); got != want {
			t.Fatalf("OutDegree(%d) = %d, want %d", u, got, want)
		}
		got := view.OutNeighbors(id)
		want := g.OutNeighbors(id)
		if len(got) != len(want) {
			t.Fatalf("OutNeighbors(%d) has %d entries, want %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("OutNeighbors(%d)[%d] = %d, want %d", u, i, got[i], want[i])
			}
		}
	}
	if err := view.Err(); err != nil {
		t.Fatalf("view error: %v", err)
	}
	if view.Faults() == 0 {
		t.Error("scanning nodes across clusters should have caused faults")
	}
	if view.NumNodes() != g.NumNodes() {
		t.Errorf("NumNodes = %d, want %d", view.NumNodes(), g.NumNodes())
	}
}

// TestViewReportsTruncatedClusterFile cuts a cluster file inside its count,
// inside a node header and inside an adjacency list: the fault fails with the
// truncation error instead of serving a partial cluster.
func TestViewReportsTruncatedClusterFile(t *testing.T) {
	_, store := buildStore(t, 4)
	path := clusterFileName(store.dir, 0)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var member graph.NodeID
	for store.ClusterOf(member) != 0 {
		member++
	}
	for _, size := range []int{2, 4 + 6, 4 + 8 + 2, len(whole) - 1} {
		if err := os.WriteFile(path, whole[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		view := store.NewView(0)
		if nbrs := view.OutNeighbors(member); nbrs != nil || view.Faults() != 0 {
			t.Errorf("cut at %d: served %d neighbours and counted %d faults from a truncated file", size, len(nbrs), view.Faults())
		}
		if err := view.Err(); err == nil || !strings.Contains(err.Error(), "truncated cluster file") {
			t.Errorf("cut at %d: view error = %v, want the truncated-cluster-file error", size, err)
		}
	}
}

func TestViewCountsFaultsOnlyOnClusterSwitch(t *testing.T) {
	g, store := buildStore(t, 5)
	view := store.NewView(0)
	// Repeatedly touching nodes of a single cluster costs exactly one fault.
	target := 0
	var sameCluster []graph.NodeID
	for u := 0; u < g.NumNodes(); u++ {
		if store.ClusterOf(graph.NodeID(u)) == target {
			sameCluster = append(sameCluster, graph.NodeID(u))
		}
		if len(sameCluster) == 10 {
			break
		}
	}
	for _, u := range sameCluster {
		view.OutNeighbors(u)
	}
	if view.Faults() != 1 {
		t.Errorf("touching one cluster caused %d faults, want 1", view.Faults())
	}
}

func TestViewFaultCapTruncatesTraversal(t *testing.T) {
	const clusters = 8
	g, store := buildStore(t, clusters)
	capped := store.NewView(1)
	// Touch one node per cluster: after the first fault the budget is spent
	// and out-of-cluster nodes return empty adjacency.
	seenEmpty := false
	for c := 0; c < clusters; c++ {
		for u := 0; u < g.NumNodes(); u++ {
			if store.ClusterOf(graph.NodeID(u)) == c {
				nbrs := capped.OutNeighbors(graph.NodeID(u))
				if c > 0 && len(nbrs) == 0 && g.OutDegree(graph.NodeID(u)) > 0 {
					seenEmpty = true
				}
				break
			}
		}
	}
	if capped.Faults() != 1 {
		t.Errorf("fault cap 1 but %d faults were taken", capped.Faults())
	}
	if !seenEmpty {
		t.Error("expected truncated adjacency after the fault budget was spent")
	}
}

func TestStoreSizes(t *testing.T) {
	_, store := buildStore(t, 4)
	largest, err := store.LargestClusterBytes()
	if err != nil {
		t.Fatal(err)
	}
	total, err := store.TotalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if largest <= 0 || total < largest {
		t.Errorf("sizes look wrong: largest %d total %d", largest, total)
	}
}

func TestBuildValidation(t *testing.T) {
	g, err := gen.RandomDirected(50, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Clustering{Assignment: make([]int32, 10), Anchors: []graph.NodeID{0}}
	if _, err := Build(g, bad, t.TempDir()); err == nil {
		t.Error("mismatched clustering should be rejected")
	}
}

// TestPrimePPVOnViewMatchesInMemory is the integration test of the disk-based
// path: a prime PPV computed through a fault-counting view (with an ample
// fault budget) equals the one computed on the in-memory graph.
func TestPrimePPVOnViewMatchesInMemory(t *testing.T) {
	g, store := buildStore(t, 6)
	hubs, err := hub.Select(g, hub.Options{Policy: hub.ByOutDegree, Count: 50})
	if err != nil {
		t.Fatal(err)
	}
	for q := graph.NodeID(0); q < 5; q++ {
		mem, _, err := prime.ComputePPV(g, q, hubs, prime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		view := store.NewView(0)
		disk, _, err := prime.ComputePPV(view, q, hubs, prime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := view.Err(); err != nil {
			t.Fatal(err)
		}
		if d := mem.L1Distance(disk); d > 1e-12 {
			t.Errorf("q=%d: disk-based prime PPV differs from in-memory by %v", q, d)
		}
		if view.Faults() == 0 {
			t.Errorf("q=%d: expected at least one cluster fault", q)
		}
	}
}

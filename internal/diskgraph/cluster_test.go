package diskgraph

import (
	"testing"

	"fastppv/internal/gen"
	"fastppv/internal/graph"
)

func TestPartitionCoversEveryNode(t *testing.T) {
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 1500, OutDegreeMean: 5, Attachment: 0.8, Seed: 2})
	if err != nil {
		t.Fatalf("SocialGraph: %v", err)
	}
	c, err := Partition(g, ClusterOptions{NumClusters: 8, Seed: 1})
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if c.NumClusters() != 8 {
		t.Fatalf("NumClusters = %d, want 8", c.NumClusters())
	}
	if len(c.Assignment) != g.NumNodes() {
		t.Fatalf("Assignment covers %d nodes, want %d", len(c.Assignment), g.NumNodes())
	}
	total := 0
	for id, size := range c.Sizes {
		if size <= 0 {
			t.Errorf("cluster %d is empty", id)
		}
		total += size
		if got := len(c.Members(id)); got != size {
			t.Errorf("Members(%d) has %d nodes, Sizes says %d", id, got, size)
		}
	}
	if total != g.NumNodes() {
		t.Errorf("cluster sizes sum to %d, want %d", total, g.NumNodes())
	}
	for node, cl := range c.Assignment {
		if cl < 0 || int(cl) >= c.NumClusters() {
			t.Fatalf("node %d assigned to invalid cluster %d", node, cl)
		}
	}
	// Anchors belong to their own cluster.
	for id, anchor := range c.Anchors {
		if int(c.Assignment[anchor]) != id {
			t.Errorf("anchor %d of cluster %d assigned to cluster %d", anchor, id, c.Assignment[anchor])
		}
	}
}

func TestPartitionDeterministicPerSeed(t *testing.T) {
	g, err := gen.RandomDirected(300, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Partition(g, ClusterOptions{NumClusters: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, ClusterOptions{NumClusters: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("clustering is not deterministic for a fixed seed")
		}
	}
}

func TestPartitionLocalityOnDisconnectedComponents(t *testing.T) {
	// Two disjoint cliques: nodes of one clique should never be split across
	// the other clique's anchor when both cliques contain an anchor.
	b := graph.NewBuilder(true)
	const half = 30
	b.EnsureNodes(2 * half)
	for u := 0; u < half; u++ {
		for v := 0; v < half; v++ {
			if u != v {
				b.MustAddEdge(graph.NodeID(u), graph.NodeID(v))
				b.MustAddEdge(graph.NodeID(u+half), graph.NodeID(v+half))
			}
		}
	}
	g := b.Finalize()
	c, err := Partition(g, ClusterOptions{NumClusters: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	firstAnchorSide := c.Anchors[0] < half
	secondAnchorSide := c.Anchors[1] < half
	if firstAnchorSide == secondAnchorSide {
		t.Skip("both anchors landed in the same component; locality not testable for this seed")
	}
	// Every node should be assigned to the anchor of its own component.
	for node, cl := range c.Assignment {
		nodeSide := graph.NodeID(node) < half
		anchorSide := c.Anchors[cl] < half
		if nodeSide != anchorSide {
			t.Errorf("node %d assigned to the anchor of the other component", node)
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	g, err := gen.RandomDirected(20, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(g, ClusterOptions{NumClusters: 0}); err == nil {
		t.Error("zero clusters should be rejected")
	}
	if _, err := Partition(g, ClusterOptions{NumClusters: 3, Alpha: 5}); err == nil {
		t.Error("invalid alpha should be rejected")
	}
	if _, err := Partition(graph.NewBuilder(true).Finalize(), ClusterOptions{NumClusters: 2}); err == nil {
		t.Error("empty graph should be rejected")
	}
	// More clusters than nodes clamps to the node count.
	c, err := Partition(g, ClusterOptions{NumClusters: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClusters() != g.NumNodes() {
		t.Errorf("NumClusters = %d, want clamp to %d", c.NumClusters(), g.NumNodes())
	}
}

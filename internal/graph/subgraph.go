package graph

import "math/rand"

// SampleEdges returns a new graph over the same node set containing a uniform
// random sample of numEdges logical edges (without replacement), reproducibly
// seeded. It is used to build the LiveJournal-style growth series S1..S5
// (Fig. 13b of the paper).
func SampleEdges(g *Graph, numEdges int, seed int64) *Graph {
	logical := collectLogicalEdges(g)
	if numEdges > len(logical) {
		numEdges = len(logical)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(logical), func(i, j int) { logical[i], logical[j] = logical[j], logical[i] })
	b := NewBuilder(g.Directed())
	b.EnsureNodes(g.NumNodes())
	if g.HasLabels() {
		for u := 0; u < g.NumNodes(); u++ {
			// Builder labels must align with node ids; rebuild them in order.
			if u == 0 {
				b.labels = make([]string, g.NumNodes())
			}
			b.labels[u] = g.Label(NodeID(u))
		}
	}
	for _, e := range logical[:numEdges] {
		b.MustAddEdge(e.From, e.To)
	}
	return b.Finalize()
}

// collectLogicalEdges lists each logical edge exactly once.
func collectLogicalEdges(g *Graph) []Edge {
	edges := make([]Edge, 0, g.NumLogicalEdges())
	g.Edges(func(e Edge) bool {
		if !g.Directed() && e.From > e.To {
			return true
		}
		edges = append(edges, e)
		return true
	})
	return edges
}

package pagerank

import (
	"fmt"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// Dangling-node convention
//
// The paper defines a PPV through the inverse P-distance (Eq. 1-2): the score
// of p is the total reachability of all tours from the query q to p, where a
// tour's reachability decays by (1-alpha)/|Out(v)| per step. A tour cannot be
// extended past a node with no out-edges, so in this formulation the walk is
// absorbed at dangling nodes. We adopt the same convention everywhere (exact
// PPV, prime PPVs, FastPPV assembly, and both baselines) so that every method
// approximates exactly the same target vector. On graphs with dangling nodes
// the exact PPV then sums to slightly less than 1 and the accuracy-aware
// bound phi(k) = 1 - sum(estimate) (Eq. 6) becomes a conservative upper bound
// on the true L1 error; on dangling-free graphs it is exact, as in the paper.

// ExactPPV computes the exact Personalized PageRank Vector with respect to a
// single query node by power iteration over the full graph:
//
//	r = alpha * e_q + (1-alpha) * P^T r
//
// It is the ground-truth oracle used by the accuracy experiments; it is far
// too slow for online use on large graphs, which is the problem FastPPV
// solves.
func ExactPPV(g *graph.Graph, q graph.NodeID, opts Options) (sparse.Vector, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if !g.Valid(q) {
		return nil, fmt.Errorf("pagerank: %w: query %d", graph.ErrNodeOutOfRange, q)
	}
	n := g.NumNodes()
	cur := make([]float64, n)
	next := make([]float64, n)
	cur[q] = 1
	for iter := 0; iter < opts.MaxIterations; iter++ {
		for i := range next {
			next[i] = 0
		}
		next[q] = opts.Alpha
		for u := 0; u < n; u++ {
			score := cur[u]
			if score == 0 {
				continue
			}
			deg := g.OutDegree(graph.NodeID(u))
			if deg == 0 {
				continue // absorbed at dangling node
			}
			share := (1 - opts.Alpha) * score / float64(deg)
			for _, v := range g.OutNeighbors(graph.NodeID(u)) {
				next[v] += share
			}
		}
		delta := 0.0
		for u := 0; u < n; u++ {
			d := next[u] - cur[u]
			if d < 0 {
				d = -d
			}
			delta += d
		}
		cur, next = next, cur
		if delta < opts.Tolerance {
			break
		}
	}
	return sparse.FromDense(cur), nil
}

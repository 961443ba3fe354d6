// cluster.go segments the graph into the clusters a Store keeps on disk:
// following the technique the paper adopts from Sarkar & Moore (Sect. 5.3),
// anchor nodes are chosen at random and every node is assigned to the anchor
// with the highest personalized PageRank score, which produces tight clusters
// even with random anchors.

package diskgraph

import (
	"errors"
	"fmt"
	"math/rand"

	"fastppv/internal/graph"
	"fastppv/internal/pagerank"
	"fastppv/internal/sparse"
)

// ClusterOptions configure the clustering.
type ClusterOptions struct {
	// NumClusters is the number of anchors/clusters to create.
	NumClusters int
	// Alpha is the teleporting probability of the anchor PPVs; zero means
	// pagerank.DefaultAlpha.
	Alpha float64
	// PushThreshold is the residual threshold of the approximate anchor PPV
	// computation; zero means 1e-6. Smaller assigns faraway nodes more
	// faithfully but costs more time.
	PushThreshold float64
	// Seed makes anchor selection deterministic.
	Seed int64
}

func (o ClusterOptions) withDefaults() (ClusterOptions, error) {
	if o.NumClusters <= 0 {
		return o, fmt.Errorf("diskgraph: NumClusters must be positive, got %d", o.NumClusters)
	}
	if o.Alpha == 0 {
		o.Alpha = pagerank.DefaultAlpha
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return o, fmt.Errorf("diskgraph: alpha %v outside (0,1)", o.Alpha)
	}
	if o.PushThreshold == 0 {
		o.PushThreshold = 1e-6
	}
	if o.PushThreshold < 0 {
		return o, errors.New("diskgraph: negative PushThreshold")
	}
	return o, nil
}

// Clustering is a partition of the node set into clusters.
type Clustering struct {
	// Assignment maps every node to its cluster in [0, NumClusters).
	Assignment []int32
	// Anchors are the anchor nodes, indexed by cluster id.
	Anchors []graph.NodeID
	// Sizes is the number of nodes per cluster.
	Sizes []int
}

// NumClusters returns the number of clusters.
func (c *Clustering) NumClusters() int { return len(c.Anchors) }

// Members returns the nodes assigned to cluster id.
func (c *Clustering) Members(id int) []graph.NodeID {
	var out []graph.NodeID
	for node, cl := range c.Assignment {
		if int(cl) == id {
			out = append(out, graph.NodeID(node))
		}
	}
	return out
}

// Partition clusters g around randomly chosen anchors by personalized
// PageRank affinity. Nodes unreachable from every anchor are distributed
// round-robin so that every node belongs to exactly one cluster.
func Partition(g *graph.Graph, opts ClusterOptions) (*Clustering, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("diskgraph: empty graph")
	}
	k := opts.NumClusters
	if k > n {
		k = n
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	perm := rng.Perm(n)
	anchors := make([]graph.NodeID, k)
	for i := 0; i < k; i++ {
		anchors[i] = graph.NodeID(perm[i])
	}

	assignment := make([]int32, n)
	bestScore := make([]float64, n)
	for i := range assignment {
		assignment[i] = -1
	}
	// Affinity of node v to anchor a is the PPV score of v with respect to a;
	// assign each node to its best anchor.
	for clusterID, anchor := range anchors {
		ppv := approximatePPV(g, anchor, opts.Alpha, opts.PushThreshold)
		//lint:ordered each node occurs once per anchor PPV and the strict-improvement update is per-node independent
		for node, score := range ppv {
			if assignment[node] == -1 || score > bestScore[node] {
				assignment[node] = int32(clusterID)
				bestScore[node] = score
			}
		}
	}
	// Anchors always belong to their own cluster.
	for clusterID, anchor := range anchors {
		assignment[anchor] = int32(clusterID)
	}
	// Nodes with no affinity to any anchor are spread round-robin.
	next := 0
	for node := range assignment {
		if assignment[node] == -1 {
			assignment[node] = int32(next % k)
			next++
		}
	}

	sizes := make([]int, k)
	for _, cl := range assignment {
		sizes[cl]++
	}
	return &Clustering{Assignment: assignment, Anchors: anchors, Sizes: sizes}, nil
}

// approximatePPV is a forward-push PPV approximation used only for clustering
// affinity; accuracy requirements here are mild.
func approximatePPV(g *graph.Graph, src graph.NodeID, alpha, threshold float64) sparse.Vector {
	estimate := sparse.New(256)
	residual := map[graph.NodeID]float64{src: 1}
	queue := []graph.NodeID{src}
	inQueue := map[graph.NodeID]bool{src: true}
	// FIFO processing keeps residual batched (see prime.ComputePPV).
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		inQueue[u] = false
		mass := residual[u]
		if mass < threshold {
			continue
		}
		delete(residual, u)
		estimate.Add(u, alpha*mass)
		deg := g.OutDegree(u)
		if deg == 0 {
			continue
		}
		share := (1 - alpha) * mass / float64(deg)
		for _, v := range g.OutNeighbors(u) {
			residual[v] += share
			if !inQueue[v] && residual[v] >= threshold {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
	}
	//lint:ordered each node occurs once in the residual map, so the per-node Add calls are independent
	for u, mass := range residual {
		estimate.Add(u, alpha*mass)
	}
	return estimate
}

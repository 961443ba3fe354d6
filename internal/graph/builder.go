package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Builder accumulates nodes and edges and produces an immutable Graph.
// The zero value is not usable; create one with NewBuilder.
//
// Duplicate edges are preserved by default (parallel arcs increase the
// transition probability between the endpoints, mirroring multigraph
// semantics); call DedupEdges before Finalize to collapse them.
type Builder struct {
	directed bool
	numNodes int
	edges    []Edge
	arcs     int64 // arcs Finalize will materialize from edges, at most maxArcs
	labels   []string
	selfLoop bool
}

// NewBuilder returns a Builder for a directed or undirected graph.
func NewBuilder(directed bool) *Builder {
	return &Builder{directed: directed}
}

// AllowSelfLoops controls whether AddEdge accepts u == v edges. The default is
// to silently drop them, matching the random-surfer model where a self loop
// only delays the walk.
func (b *Builder) AllowSelfLoops(allow bool) { b.selfLoop = allow }

// AddNode adds a single unlabeled node and returns its identifier.
func (b *Builder) AddNode() NodeID {
	id := NodeID(b.numNodes)
	b.numNodes++
	return id
}

// AddLabeledNode adds a node carrying a label and returns its identifier.
func (b *Builder) AddLabeledNode(label string) NodeID {
	id := b.AddNode()
	for len(b.labels) < int(id) {
		b.labels = append(b.labels, "")
	}
	b.labels = append(b.labels, label)
	return id
}

// CopyLabels gives the builder's nodes the labels of g's nodes; nodes beyond
// g's have none.
func (b *Builder) CopyLabels(g *Graph) { b.labels = slices.Clip(g.labels) }

// EnsureNodes grows the node set so that at least n nodes exist.
func (b *Builder) EnsureNodes(n int) {
	if n > b.numNodes {
		b.numNodes = n
	}
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return b.numNodes }

// NumEdges returns the number of edges added so far (as added, i.e. logical
// edges for an undirected graph).
func (b *Builder) NumEdges() int { return len(b.edges) }

// AddEdge records an edge between two already-added nodes. For an undirected
// builder the edge is logically {u,v}; both orientations are materialized by
// Finalize. Self loops are dropped unless AllowSelfLoops(true) was called. An
// edge whose arcs would take the graph past maxArcs fails with ErrTooManyArcs.
func (b *Builder) AddEdge(u, v NodeID) error {
	if int(u) >= b.numNodes || u < 0 || int(v) >= b.numNodes || v < 0 {
		return fmt.Errorf("%w: edge (%d,%d) with %d nodes", ErrNodeOutOfRange, u, v, b.numNodes)
	}
	if u == v && !b.selfLoop {
		return nil
	}
	arcs := b.arcsOf(Edge{From: u, To: v})
	if b.arcs > maxArcs-arcs {
		return fmt.Errorf("%w: edge (%d,%d) after %d arcs", ErrTooManyArcs, u, v, b.arcs)
	}
	b.edges = append(b.edges, Edge{From: u, To: v})
	b.arcs += arcs
	return nil
}

// arcsOf is the number of arcs Finalize materializes for e: two for an
// undirected edge between distinct nodes, one otherwise.
func (b *Builder) arcsOf(e Edge) int64 {
	if !b.directed && e.From != e.To {
		return 2
	}
	return 1
}

// MustAddEdge is AddEdge that panics on error; intended for tests and
// generators that construct edges from trusted indices.
func (b *Builder) MustAddEdge(u, v NodeID) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// DedupEdges removes duplicate edges (and, for undirected builders, duplicate
// orientations of the same logical edge).
func (b *Builder) DedupEdges() {
	seen := make(map[Edge]struct{}, len(b.edges))
	out := b.edges[:0]
	for _, e := range b.edges {
		key := e
		if !b.directed && key.From > key.To {
			key.From, key.To = key.To, key.From
		}
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, e)
	}
	b.edges = out
	b.arcs = 0
	for _, e := range out {
		b.arcs += b.arcsOf(e)
	}
}

// Finalize builds the immutable CSR graph. The Builder can be reused
// afterwards (additional nodes/edges produce a new graph on the next call).
func (b *Builder) Finalize() *Graph {
	n := b.numNodes
	arcs := b.edges
	if !b.directed {
		// Materialize both orientations.
		doubled := make([]Edge, 0, b.arcs)
		for _, e := range b.edges {
			doubled = append(doubled, e)
			if e.From != e.To {
				doubled = append(doubled, Edge{From: e.To, To: e.From})
			}
		}
		arcs = doubled
	}

	outDeg := make([]uint32, n)
	inDeg := make([]int32, n)
	for _, e := range arcs {
		outDeg[e.From]++
		inDeg[e.To]++
	}
	offsets := make([]uint32, n+1)
	for u := 0; u < n; u++ {
		offsets[u+1] = offsets[u] + outDeg[u]
	}
	targets := make([]NodeID, len(arcs))
	cursor := make([]uint32, n)
	copy(cursor, offsets[:n])
	for _, e := range arcs {
		targets[cursor[e.From]] = e.To
		cursor[e.From]++
	}
	// Sort each adjacency run for deterministic traversal order.
	for u := 0; u < n; u++ {
		run := targets[offsets[u]:offsets[u+1]]
		sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
	}

	labels := b.labels
	if len(labels) > 0 && len(labels) < n {
		padded := make([]string, n)
		copy(padded, labels)
		labels = padded
	}
	return &Graph{
		directed:   b.directed,
		outOffsets: offsets,
		outTargets: targets,
		inDegree:   inDeg,
		labels:     labels,
	}
}

// FromEdges is a convenience constructor building a graph directly from an
// edge slice over nodes [0, numNodes).
func FromEdges(numNodes int, directed bool, edges []Edge) (*Graph, error) {
	b := NewBuilder(directed)
	b.EnsureNodes(numNodes)
	for _, e := range edges {
		if err := b.AddEdge(e.From, e.To); err != nil {
			return nil, err
		}
	}
	return b.Finalize(), nil
}

// Package graph provides the directed/undirected graph substrate used by the
// FastPPV reproduction: a compact adjacency representation (CSR), an
// incremental builder, text and binary serialization, induced subgraphs and
// edge sampling.
//
// Node identifiers are dense int32 indices in [0, NumNodes). The CSR offsets
// are 32-bit, so a graph holds at most math.MaxUint32 arcs (an undirected
// edge is two): the resident graph costs 4 bytes per arc plus 8 per node (the
// out-offset and the in-degree), and the Builder refuses the arc past the
// limit with ErrTooManyArcs. Optional string labels can be attached to nodes,
// which the synthetic dataset generators use to mark node kinds
// (author/paper/venue, user ...).
package graph

import (
	"errors"
	"fmt"
	"math"
)

// NodeID identifies a node. IDs are dense indices in [0, Graph.NumNodes()).
type NodeID int32

// InvalidNode is returned by lookups that find no node.
const InvalidNode NodeID = -1

// Edge is a single directed edge. For undirected graphs both orientations are
// materialized in the adjacency structure but an Edge value keeps the original
// orientation as added to the Builder.
type Edge struct {
	From NodeID
	To   NodeID
}

// Graph is an immutable graph in compressed sparse row (CSR) layout.
// Construct one with a Builder, with the I/O readers, or with the generators
// in internal/gen. The zero value is an empty graph.
//
// A Graph is safe for concurrent readers; it is never mutated after Finalize.
type Graph struct {
	directed bool

	// CSR over out-edges: the out-neighbours of node u are
	// outTargets[outOffsets[u]:outOffsets[u+1]]. Offsets fit in 32 bits
	// because a graph holds at most maxArcs arcs.
	outOffsets []uint32
	outTargets []NodeID

	// In-degrees are kept for policy computations (e.g. in-degree hub
	// selection). Full in-adjacency is built lazily on demand.
	inDegree []int32

	// inOffsets/inTargets form the reverse CSR; nil until BuildReverse or
	// the first call to InNeighbors.
	inOffsets []uint32
	inTargets []NodeID

	labels       []string
	labelToNode  map[string]NodeID
	haveLabelIdx bool
}

// ErrNodeOutOfRange reports a node identifier outside [0, NumNodes).
var ErrNodeOutOfRange = errors.New("graph: node id out of range")

// maxArcs is the most arcs a graph holds: its CSR offsets are uint32.
const maxArcs = math.MaxUint32

// ErrTooManyArcs reports an edge that would take a graph past maxArcs arcs.
var ErrTooManyArcs = errors.New("graph: more than 2^32-1 arcs")

// Directed reports whether the graph is directed. In an undirected graph every
// edge {u,v} appears as both u->v and v->u in the adjacency structure.
func (g *Graph) Directed() bool { return g.directed }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	if len(g.outOffsets) == 0 {
		return 0
	}
	return len(g.outOffsets) - 1
}

// NumEdges returns the number of stored arcs. For an undirected graph this is
// twice the number of logical edges (each edge is stored in both directions).
func (g *Graph) NumEdges() int { return len(g.outTargets) }

// NumLogicalEdges returns the number of edges as a user would count them:
// arcs for a directed graph, unordered pairs for an undirected graph.
func (g *Graph) NumLogicalEdges() int {
	if g.directed {
		return g.NumEdges()
	}
	return g.NumEdges() / 2
}

// Valid reports whether id addresses a node of g.
func (g *Graph) Valid(id NodeID) bool { return id >= 0 && int(id) < g.NumNodes() }

// OutDegree returns the out-degree of u. It panics if u is out of range.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.outOffsets[u+1] - g.outOffsets[u])
}

// InDegree returns the in-degree of u. It panics if u is out of range.
func (g *Graph) InDegree(u NodeID) int { return int(g.inDegree[u]) }

// OutNeighbors returns the out-neighbours of u as a shared slice. Callers must
// not modify the returned slice.
func (g *Graph) OutNeighbors(u NodeID) []NodeID {
	return g.outTargets[g.outOffsets[u]:g.outOffsets[u+1]]
}

// InNeighbors returns the in-neighbours of u as a shared slice, building the
// reverse adjacency on first use. Callers must not modify the returned slice.
// InNeighbors is not safe to call concurrently with itself until the reverse
// CSR exists; call BuildReverse first if concurrent readers need it.
func (g *Graph) InNeighbors(u NodeID) []NodeID {
	if g.inOffsets == nil {
		g.BuildReverse()
	}
	return g.inTargets[g.inOffsets[u]:g.inOffsets[u+1]]
}

// BuildReverse materializes the reverse (in-edge) CSR. It is idempotent.
func (g *Graph) BuildReverse() {
	if g.inOffsets != nil {
		return
	}
	n := g.NumNodes()
	offsets := make([]uint32, n+1)
	for u := 0; u < n; u++ {
		offsets[u+1] = offsets[u] + uint32(g.inDegree[u])
	}
	targets := make([]NodeID, len(g.outTargets))
	cursor := make([]uint32, n)
	copy(cursor, offsets[:n])
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(NodeID(u)) {
			targets[cursor[v]] = NodeID(u)
			cursor[v]++
		}
	}
	g.inOffsets = offsets
	g.inTargets = targets
}

// Label returns the label attached to u, or the empty string if the graph has
// no labels.
func (g *Graph) Label(u NodeID) string {
	if int(u) >= len(g.labels) {
		return ""
	}
	return g.labels[u]
}

// HasLabels reports whether any node label is attached to the graph.
func (g *Graph) HasLabels() bool { return len(g.labels) > 0 }

// NodeByLabel returns the node with the given label, or InvalidNode when the
// label is unknown. The label index is built on first use.
func (g *Graph) NodeByLabel(label string) NodeID {
	if !g.haveLabelIdx {
		g.labelToNode = make(map[string]NodeID, len(g.labels))
		for i, l := range g.labels {
			if l != "" {
				g.labelToNode[l] = NodeID(i)
			}
		}
		g.haveLabelIdx = true
	}
	if id, ok := g.labelToNode[label]; ok {
		return id
	}
	return InvalidNode
}

// Edges iterates over every stored arc in source order and calls fn for each;
// iteration stops early when fn returns false.
func (g *Graph) Edges(fn func(Edge) bool) {
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.OutNeighbors(NodeID(u)) {
			if !fn(Edge{From: NodeID(u), To: v}) {
				return
			}
		}
	}
}

// EdgeList returns all stored arcs. For undirected graphs every logical edge
// appears twice (once per orientation).
func (g *Graph) EdgeList() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	g.Edges(func(e Edge) bool {
		edges = append(edges, e)
		return true
	})
	return edges
}

// HasEdge reports whether the arc u->v is present. It runs in O(OutDegree(u)).
func (g *Graph) HasEdge(u, v NodeID) bool {
	if !g.Valid(u) || !g.Valid(v) {
		return false
	}
	for _, w := range g.OutNeighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}

// DanglingNodes returns the nodes with no out-edges. Random-walk based
// algorithms treat these specially (the surfer teleports).
func (g *Graph) DanglingNodes() []NodeID {
	var out []NodeID
	for u := 0; u < g.NumNodes(); u++ {
		if g.OutDegree(NodeID(u)) == 0 {
			out = append(out, NodeID(u))
		}
	}
	return out
}

// MaxOutDegree returns the largest out-degree in the graph, or 0 for an empty
// graph.
func (g *Graph) MaxOutDegree() int {
	max := 0
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.OutDegree(NodeID(u)); d > max {
			max = d
		}
	}
	return max
}

// Validate performs internal consistency checks and returns a descriptive
// error when the CSR structure is corrupt. It is primarily used by tests and
// by the binary reader.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if len(g.outOffsets) != 0 && len(g.outOffsets) != n+1 {
		return fmt.Errorf("graph: offsets length %d does not match %d nodes", len(g.outOffsets), n)
	}
	if n > 0 && g.outOffsets[0] != 0 {
		return errors.New("graph: first offset is not zero")
	}
	for u := 0; u < n; u++ {
		if g.outOffsets[u+1] < g.outOffsets[u] {
			return fmt.Errorf("graph: offsets not monotone at node %d", u)
		}
	}
	if n > 0 && int(g.outOffsets[n]) != len(g.outTargets) {
		return fmt.Errorf("graph: last offset %d does not match %d targets", g.outOffsets[n], len(g.outTargets))
	}
	for _, v := range g.outTargets {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("graph: target %d out of range [0,%d)", v, n)
		}
	}
	if len(g.inDegree) != n {
		return fmt.Errorf("graph: in-degree length %d does not match %d nodes", len(g.inDegree), n)
	}
	var totalIn int64
	for _, d := range g.inDegree {
		if d < 0 {
			return errors.New("graph: negative in-degree")
		}
		totalIn += int64(d)
	}
	if totalIn != int64(len(g.outTargets)) {
		return fmt.Errorf("graph: in-degree sum %d does not match %d arcs", totalIn, len(g.outTargets))
	}
	if len(g.labels) != 0 && len(g.labels) != n {
		return fmt.Errorf("graph: labels length %d does not match %d nodes", len(g.labels), n)
	}
	return nil
}

// Stats summarizes a graph for logging and experiment reports.
type Stats struct {
	Nodes        int
	Arcs         int
	LogicalEdges int
	Directed     bool
	MaxOutDegree int
	Dangling     int
}

// Stats computes summary statistics of the graph.
func (g *Graph) Stats() Stats {
	return Stats{
		Nodes:        g.NumNodes(),
		Arcs:         g.NumEdges(),
		LogicalEdges: g.NumLogicalEdges(),
		Directed:     g.directed,
		MaxOutDegree: g.MaxOutDegree(),
		Dangling:     len(g.DanglingNodes()),
	}
}

// String implements fmt.Stringer with a short human readable summary.
func (s Stats) String() string {
	kind := "undirected"
	if s.Directed {
		kind = "directed"
	}
	return fmt.Sprintf("%s graph: %d nodes, %d edges (%d arcs), max out-degree %d, %d dangling",
		kind, s.Nodes, s.LogicalEdges, s.Arcs, s.MaxOutDegree, s.Dangling)
}

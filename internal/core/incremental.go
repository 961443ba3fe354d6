package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
	"fastppv/internal/sparse"
)

// GraphUpdate describes a batch of edge insertions and deletions applied to
// the engine's graph; it is the mutation each frame of the disk store's
// update log persists, declared once in package ppvindex.
type GraphUpdate = ppvindex.GraphMutation

// UpdateStats reports the cost of an incremental index maintenance pass.
type UpdateStats struct {
	// AffectedHubs is the number of hubs whose prime PPV was recomputed.
	AffectedHubs int
	// UnaffectedHubs is the number of hubs whose indexed prime PPV was kept.
	UnaffectedHubs int
	// Recomputed lists the recomputed hubs in ascending order.
	Recomputed []graph.NodeID
	// TouchedNodes lists, in ascending order, the nodes whose outgoing
	// transition behaviour changed. A cached answer whose estimate reaches one
	// of these nodes may be stale. One that reaches none is not: a hub is
	// recomputed only when it is touched or its record holds a touched node,
	// so an estimate that expanded it has a positive entry at a touched node,
	// and an on-the-fly prime PPV has one at every node it pushed from.
	TouchedNodes []graph.NodeID
	// Epoch is the engine's index epoch after this update committed.
	Epoch uint64
	// Duration is the wall time of the whole update.
	Duration time.Duration
}

// ErrCommit marks an ApplyUpdate error from the index's commit, whose durable
// outcome is unknown: the engine keeps its version, but a restart may replay
// the batch. Every other ApplyUpdate error leaves nothing written.
var ErrCommit = errors.New("core: committing the update batch")

// uncachedViewer is implemented by indexes that can read a record past their
// block cache (ppvindex.Store).
type uncachedViewer interface {
	GetViewUncached(h graph.NodeID) (ppvindex.HubRecordView, bool, error)
}

// ApplyUpdate implements the dynamic-graph extension sketched in the paper's
// future work (Sect. 7): when the graph changes, only the prime PPVs whose
// prime subgraph can reach a modified node are recomputed, the rest of the
// index is reused. The hub set itself is kept fixed.
//
// A hub h is conservatively considered affected when its stored prime PPV has
// a non-zero entry at the source endpoint of any added or removed edge: tours
// from h change only if they pass through such a node. Because stored prime
// PPVs are clipped, entries below the clip threshold may be missed; callers
// that require exact maintenance should precompute with Clip disabled or call
// Precompute for a full rebuild.
//
// It scans the published version v and recomputes beside it while queries
// keep reading v, commits the mutation and every recomputed record to the
// index in one call, and then publishes the new graph, epoch+1 and the
// committed index state as the next version. On any error v stays published.
// Updates must not run concurrently with each other.
func (e *Engine) ApplyUpdate(upd GraphUpdate) (UpdateStats, error) {
	var stats UpdateStats
	v := e.cur.Load()
	if v.index == nil {
		return stats, fmt.Errorf("core: ApplyUpdate before Precompute")
	}
	start := time.Now()

	newGraph, err := ReplayGraphUpdates(v.g, upd)
	if err != nil {
		return stats, err
	}

	// Identify the nodes whose outgoing transition behaviour changes, in
	// ascending order, so one merge pass tests a record against all of them.
	var touched []graph.NodeID
	for _, ed := range slices.Concat(upd.AddedEdges, upd.RemovedEdges) {
		touched = append(touched, ed.From)
		if !v.g.Directed() {
			touched = append(touched, ed.To)
		}
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)

	// The scan reads every owned hub's record once; a store with a block
	// cache serves it past the cache, so an update does not evict the
	// records the queries are using.
	read := v.index.GetView
	if u, ok := v.index.(uncachedViewer); ok {
		read = u.GetViewUncached
	}
	var affected []graph.NodeID
	for _, h := range e.hubs.Hubs() {
		// A sharded engine maintains only the hubs its partition owns: an
		// unowned hub is absent from the index by design, and recomputing it
		// here would both duplicate its owner's work and insert a foreign hub
		// into this shard's index (breaking the partition invariant the disk
		// store's update-log replay checks).
		if !e.opts.Partition.Owns(h) {
			continue
		}
		view, ok, err := read(h)
		if err != nil {
			return stats, fmt.Errorf("core: reading prime PPV of hub %d: %w", h, err)
		}
		if !ok {
			affected = append(affected, h)
			continue
		}
		_, hit := slices.BinarySearch(touched, h)
		hit = hit || view.ContainsAny(touched)
		view.Release()
		if hit {
			affected = append(affected, h)
		} else {
			stats.UnaffectedHubs++
		}
	}

	// Recompute against the new graph; nothing is written yet.
	b := getQueryBufs()
	defer putQueryBufs(b)
	records := make([]ppvindex.Record, len(affected))
	for i, h := range affected {
		entries, _, err := b.scratch.Push(newGraph, h, e.hubs, e.opts.primeOptions(), e.opts.Clip)
		if err != nil {
			return stats, fmt.Errorf("core: recomputing prime PPV of hub %d: %w", h, err)
		}
		records[i] = ppvindex.Record{Hub: h, Payload: sparse.AppendEncoded(nil, entries)}
	}
	// A store that logs updates fsyncs one frame for the whole batch here.
	// The commit and its publish are one step for a compaction (republish).
	e.pub.Lock()
	snap, err := e.index.Commit(upd, records)
	if err == nil {
		stats.Epoch = v.epoch + 1
		e.cur.Store(&version{g: newGraph, epoch: stats.Epoch, index: snap})
	}
	e.pub.Unlock()
	if err != nil {
		return stats, fmt.Errorf("%w: %w", ErrCommit, err)
	}
	slices.Sort(affected)
	stats.AffectedHubs = len(affected)
	stats.Recomputed = affected
	stats.TouchedNodes = touched
	stats.Duration = time.Since(start)
	return stats, nil
}

// ReplayGraphUpdates applies update batches to g in order and returns the
// resulting graph, without touching any index: it is the pure graph half of
// ApplyUpdate, also used to replay the mutations of the logged batches when a
// disk index opens (the store replays the batches' recomputed hub PPVs into
// its overlay). However many batches there are, the graph is built once, and
// each batch keeps its own semantics:
//   - a removal takes away one copy of an edge present before the batch's
//     additions, and is ignored when there is none;
//   - parallel edges keep their counts, and self loops are dropped;
//   - the node count grows to the largest NumNodes seen so far, and an added
//     edge must lie within it; a NumNodes past the NodeID range (2³¹−1) is
//     refused with graph.ErrNodeOutOfRange before anything is built;
//   - node labels are kept, and added nodes have none.
//
// With no batches it returns g itself.
func ReplayGraphUpdates(g *graph.Graph, upds ...GraphUpdate) (*graph.Graph, error) {
	if len(upds) == 0 {
		return g, nil
	}
	numNodes := g.NumNodes()
	// added lists the edges the batches add, and live counts the copies of
	// each still present after the later batches' removals. removed counts the
	// removals left over for g's edges; the build takes away at most the
	// copies g has, so a removal of an absent edge is ignored there.
	removed := make(map[graph.Edge]int)
	live := make(map[graph.Edge]int)
	var added []graph.Edge
	for _, upd := range upds {
		if upd.NumNodes > math.MaxInt32 {
			return nil, fmt.Errorf("%w: %d nodes, past the NodeID range", graph.ErrNodeOutOfRange, upd.NumNodes)
		}
		numNodes = max(numNodes, upd.NumNodes)
		for _, ed := range upd.RemovedEdges {
			if key := canonicalEdge(g, ed); live[key] > 0 {
				live[key]--
			} else {
				removed[key]++
			}
		}
		for _, ed := range upd.AddedEdges {
			if ed.From < 0 || int(ed.From) >= numNodes || ed.To < 0 || int(ed.To) >= numNodes {
				return nil, fmt.Errorf("%w: edge (%d,%d) with %d nodes", graph.ErrNodeOutOfRange, ed.From, ed.To, numNodes)
			}
			key := canonicalEdge(g, ed)
			added = append(added, key)
			live[key]++
		}
	}

	b := graph.NewBuilder(g.Directed())
	b.EnsureNodes(numNodes)
	b.CopyLabels(g)
	g.Edges(func(ed graph.Edge) bool {
		if !g.Directed() && ed.From > ed.To {
			return true // visit each undirected edge once
		}
		if key := canonicalEdge(g, ed); removed[key] > 0 {
			removed[key]--
			return true
		}
		_ = b.AddEdge(ed.From, ed.To) // cannot fail: ed is an edge of g, which is within the arc limit
		return true
	})
	for _, key := range added {
		if live[key] > 0 {
			live[key]--
			// In range (checked above), but the batch may pass the arc limit.
			if err := b.AddEdge(key.From, key.To); err != nil {
				return nil, err
			}
		}
	}
	return b.Finalize(), nil
}

// canonicalEdge normalizes an edge key so that, on undirected graphs, both
// orientations identify the same logical edge.
func canonicalEdge(g *graph.Graph, ed graph.Edge) graph.Edge {
	if !g.Directed() && ed.From > ed.To {
		ed.From, ed.To = ed.To, ed.From
	}
	return ed
}

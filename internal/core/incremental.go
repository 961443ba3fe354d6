package core

import (
	"fmt"
	"sort"
	"time"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// GraphUpdate describes a batch of edge insertions and deletions applied to
// the engine's graph. Node identifiers must already exist; adding nodes is
// expressed by growing NumNodes (new isolated nodes become valid targets of
// added edges).
type GraphUpdate struct {
	// AddedEdges are edges to insert (interpreted as logical edges: a single
	// entry on an undirected graph adds both orientations).
	AddedEdges []graph.Edge
	// RemovedEdges are edges to delete. On an undirected graph either
	// orientation identifies the edge.
	RemovedEdges []graph.Edge
	// NumNodes, when larger than the current node count, grows the node set.
	NumNodes int
}

// UpdateStats reports the cost of an incremental index maintenance pass.
type UpdateStats struct {
	// AffectedHubs is the number of hubs whose prime PPV was recomputed.
	AffectedHubs int
	// UnaffectedHubs is the number of hubs whose indexed prime PPV was kept.
	UnaffectedHubs int
	// Recomputed lists the recomputed hubs in ascending order; result caches
	// invalidate every cached answer that depends on one of them.
	Recomputed []graph.NodeID
	// TouchedNodes lists, in ascending order, the nodes whose outgoing
	// transition behaviour changed. A cached answer whose estimate reaches one
	// of these nodes may be stale even if it expanded no recomputed hub (its
	// own prime PPV was computed on the fly over the old graph).
	TouchedNodes []graph.NodeID
	// Epoch is the engine's index epoch after this update committed.
	Epoch uint64
	// Duration is the wall time of the whole update.
	Duration time.Duration
}

// UpdateCommitter is implemented by index stores that stage incremental
// update writes durably (e.g. behind a write-ahead log) and need an explicit
// commit: ApplyUpdate calls CommitUpdates exactly once, after every staged
// Put of one update has been handed to the store, so the store can make the
// whole batch durable with a single fsync. Stores without durability concerns
// (the in-memory index) simply don't implement it.
type UpdateCommitter interface {
	CommitUpdates() error
}

// GraphUpdateLogger is implemented by index stores that persist the graph
// mutations themselves (fastppv's disk store, behind a graph-mutation log):
// ApplyUpdate hands the batch over after every staged Put and before
// CommitUpdates, so the store can make the recomputed PPVs and the mutation
// that caused them durable in the same commit. Reopening such a store replays
// the logged batches into the graph, so on-the-fly PPVs of non-hub queries do
// not revert to the original graph after a restart.
type GraphUpdateLogger interface {
	AppendGraphUpdate(upd GraphUpdate) error
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
func (e *Engine) ApplyUpdate(upd GraphUpdate) (UpdateStats, error) {
	var stats UpdateStats
	if !e.precomputed {
		return stats, fmt.Errorf("core: ApplyUpdate before Precompute")
	}
	start := time.Now()

	newGraph, err := rebuildGraph(e.g, upd)
	if err != nil {
		return stats, err
	}

	// Identify the nodes whose outgoing transition behaviour changes.
	touched := make(map[graph.NodeID]struct{})
	for _, ed := range upd.AddedEdges {
		touched[ed.From] = struct{}{}
		if !e.g.Directed() {
			touched[ed.To] = struct{}{}
		}
	}
	for _, ed := range upd.RemovedEdges {
		touched[ed.From] = struct{}{}
		if !e.g.Directed() {
			touched[ed.To] = struct{}{}
		}
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
		view, ok, err := e.index.GetView(h)
		if err != nil {
			return stats, fmt.Errorf("core: reading prime PPV of hub %d: %w", h, err)
		}
		if !ok {
			affected = append(affected, h)
			continue
		}
		hit := false
		//lint:ordered membership OR over a set; the result is order-free
		for t := range touched {
			if t == h || view.Contains(t) {
				hit = true
				break
			}
		}
		view.Release()
		if hit {
			affected = append(affected, h)
		} else {
			stats.UnaffectedHubs++
		}
	}

	// Stage every recomputation against the new graph before mutating any
	// engine state, so a failed push leaves the engine fully on the old graph
	// and old index (the common failure; only an index write error during the
	// commit below can still leave a partial update).
	b := getQueryBufs()
	defer putQueryBufs(b)
	staged := make([][]byte, len(affected))
	for i, h := range affected {
		entries, _, err := b.scratch.Push(newGraph, h, e.hubs, e.opts.primeOptions(), e.opts.Clip)
		if err != nil {
			return stats, fmt.Errorf("core: recomputing prime PPV of hub %d: %w", h, err)
		}
		staged[i] = sparse.AppendEncoded(nil, entries)
	}
	for i, h := range affected {
		if err := e.index.PutEncoded(h, staged[i]); err != nil {
			return stats, fmt.Errorf("core: re-indexing hub %d: %w", h, err)
		}
	}
	// Stage the graph mutation itself alongside the PPV rewrites: a store
	// with a graph-mutation log appends the batch here and fsyncs it in
	// CommitUpdates below, so a restart replays the same graph this update
	// produced.
	if gl, ok := e.index.(GraphUpdateLogger); ok {
		if err := gl.AppendGraphUpdate(upd); err != nil {
			return stats, fmt.Errorf("core: logging graph update: %w", err)
		}
	}
	// Commit the staged writes as one durable batch before adopting the new
	// graph: a store that logs updates fsyncs here, so either the whole batch
	// is durable or the update reports failure (and the serving layer flips
	// the replica to inconsistent).
	if c, ok := e.index.(UpdateCommitter); ok {
		if err := c.CommitUpdates(); err != nil {
			return stats, fmt.Errorf("core: committing index update: %w", err)
		}
	}
	e.g = newGraph
	stats.Epoch = e.epoch.Add(1)
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
	stats.AffectedHubs = len(affected)
	stats.Recomputed = affected
	stats.TouchedNodes = make([]graph.NodeID, 0, len(touched))
	//lint:ordered collect-then-sort: the slice is sorted by node id on the next line
	for t := range touched {
		stats.TouchedNodes = append(stats.TouchedNodes, t)
	}
	sort.Slice(stats.TouchedNodes, func(i, j int) bool { return stats.TouchedNodes[i] < stats.TouchedNodes[j] })
	stats.Duration = time.Since(start)
	return stats, nil
}

// ReplayGraphUpdate applies one update batch to g and returns the resulting
// graph, without touching any index: it is the pure graph half of ApplyUpdate,
// used to replay a graph-mutation log on open (the recomputed hub PPVs are
// replayed separately, from the index update log).
func ReplayGraphUpdate(g *graph.Graph, upd GraphUpdate) (*graph.Graph, error) {
	return rebuildGraph(g, upd)
}

// rebuildGraph applies the update to a copy of g and returns the new graph.
func rebuildGraph(g *graph.Graph, upd GraphUpdate) (*graph.Graph, error) {
	numNodes := g.NumNodes()
	if upd.NumNodes > numNodes {
		numNodes = upd.NumNodes
	}
	removed := make(map[graph.Edge]int)
	for _, ed := range upd.RemovedEdges {
		key := canonicalEdge(g, ed)
		removed[key]++
	}
	b := graph.NewBuilder(g.Directed())
	b.EnsureNodes(numNodes)
	var buildErr error
	g.Edges(func(ed graph.Edge) bool {
		if !g.Directed() && ed.From > ed.To {
			return true // visit each undirected edge once
		}
		key := canonicalEdge(g, ed)
		if removed[key] > 0 {
			removed[key]--
			return true
		}
		if err := b.AddEdge(ed.From, ed.To); err != nil {
			buildErr = err
			return false
		}
		return true
	})
	if buildErr != nil {
		return nil, buildErr
	}
	for _, ed := range upd.AddedEdges {
		if err := b.AddEdge(ed.From, ed.To); err != nil {
			return nil, err
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

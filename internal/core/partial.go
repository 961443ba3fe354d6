package core

import (
	"fmt"
	"sort"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// PartialIncrement is the outcome of one shard-local evaluation step of a
// distributed PPV query. The cluster router runs the scheduled-approximation
// loop (QueryState, over its own Source): iteration 0 is one PartialRoot on
// the query node's owner, and every further iteration scatters the frontier to
// the owning shards, gathers their PartialExpand increments, and merges them
// deterministically. Because the estimate only ever accumulates non-negative
// tour mass, the exact accuracy-aware bound 1 - sum(estimate) survives the
// split unchanged: mass a shard fails to contribute (down, slow, or pruned)
// widens the reported bound instead of corrupting the answer.
type PartialIncrement struct {
	// Increment is the partial PPV mass contributed by this step: the query
	// node's prime PPV for a root, or the sum of this shard's hub extensions
	// for an expansion. Hubs are accumulated in ascending id order, so equal
	// inputs produce byte-identical increments.
	Increment sparse.Vector
	// Frontier holds the hub entries of Increment: the prefix weights with
	// which the next iteration extends each border hub (Theorem 4). The hub
	// set here is the full one — a shard reports frontier mass landing on
	// hubs it does not own, because the router must route that mass to them.
	Frontier map[graph.NodeID]float64
	// HubsExpanded and HubsSkipped count the hubs whose prime PPV was
	// assembled and the hubs pruned by the delta threshold, respectively.
	HubsExpanded int
	HubsSkipped  int
	// Unowned lists frontier hubs this shard refused because its partition
	// does not own them (a router bug or a stale shard map); their mass was
	// not expanded.
	Unowned []graph.NodeID
	// FromIndex reports, for a root, whether the query node's prime PPV came
	// from the stored index (true exactly when the query node is a hub this
	// shard owns).
	FromIndex bool
}

// PartialRoot performs iteration 0 of a distributed query: the prime PPV of
// q, loaded from this shard's index when q is a hub it owns and computed on
// the fly otherwise. The returned frontier is the full initial border-hub
// frontier (with the empty-tour self-correction already applied), ready to be
// partitioned across shards by the router.
func (e *Engine) PartialRoot(q graph.NodeID) (*PartialIncrement, error) {
	qs, err := e.NewQuery(q)
	if err != nil {
		return nil, err
	}
	// Materialize at the boundary: the increment and frontier escape into the
	// router (and the wire), so they must be copies, not the pooled state
	// that release recycles. The increment is the map itself; no Entries copy
	// is taken.
	frontier := make(map[graph.NodeID]float64, len(qs.bufs.frontier))
	for _, fe := range qs.bufs.frontier {
		frontier[fe.hub] = fe.prefix
	}
	out := &PartialIncrement{
		Increment: qs.bufs.acc.ToVector(),
		Frontier:  frontier,
		FromIndex: !qs.result.QueryPPVComputed,
	}
	qs.release()
	return out, nil
}

// PartialExpand applies one expansion restricted to the hubs this engine's
// partition owns: the same per-hub kernel localSource.Expand runs (stageHub,
// then foldStaged), but stateless — the caller owns the estimate, the
// frontier merge and the stopping rule — and with two policies of its own.
// Frontier hubs outside the partition are refused into Unowned. And an index
// read error is returned instead of recovered by recomputing the hub: in a
// cluster the read path failing usually means this shard is restarting or
// compacting away its descriptor, and the router's retry (or its degradation
// to a wider bound) is the correct recovery, not a local recomputation racing
// a dying store. A hub that is merely absent (partially built index) is still
// recomputed on the fly.
func (e *Engine) PartialExpand(frontier map[graph.NodeID]float64) (*PartialIncrement, error) {
	if !e.precomputed {
		return nil, fmt.Errorf("core: PartialExpand before Precompute")
	}
	out := &PartialIncrement{
		Frontier: make(map[graph.NodeID]float64),
	}
	b := getQueryBufs()
	defer putQueryBufs(b)
	//lint:ordered collect-then-sort: the frontier is sorted by hub id before expansion
	for h, w := range frontier {
		b.frontier = append(b.frontier, frontierEntry{hub: h, prefix: w})
	}
	sort.Slice(b.frontier, func(i, j int) bool { return b.frontier[i].hub < b.frontier[j].hub })
	inc := &b.inc
	for _, fe := range b.frontier {
		if !e.hubs.Contains(fe.hub) || !e.opts.Partition.Owns(fe.hub) {
			out.Unowned = append(out.Unowned, fe.hub)
			continue
		}
		ok, err := e.stageHub(b, inc, fe, false)
		if err != nil {
			return nil, err
		}
		if ok {
			out.HubsExpanded++
		} else {
			out.HubsSkipped++
		}
	}
	b.nextFrontier = e.foldStaged(inc, b.nextFrontier[:0])
	for _, fe := range b.nextFrontier {
		out.Frontier[fe.hub] = fe.prefix
	}
	out.Increment = inc.ToVector()
	return out, nil
}

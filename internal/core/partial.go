package core

import (
	"fmt"
	"sort"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// PartialIncrement is the outcome of one shard-local evaluation step of a
// distributed PPV query. A cluster router drives the scheduled approximation
// loop itself: iteration 0 is one PartialRoot on the query node's owner, and
// every further iteration scatters the frontier to the owning shards, gathers
// their PartialExpand increments, and merges them deterministically. Because
// the estimate only ever accumulates non-negative tour mass, the exact
// accuracy-aware bound 1 - sum(estimate) survives the split unchanged: mass a
// shard fails to contribute (down, slow, or pruned) widens the reported bound
// instead of corrupting the answer.
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
	// that Close recycles.
	qs.syncEstimate()
	frontier := make(map[graph.NodeID]float64, len(qs.bufs.frontier))
	for _, fe := range qs.bufs.frontier {
		frontier[fe.hub] = fe.prefix
	}
	out := &PartialIncrement{
		Increment: qs.result.Estimate,
		Frontier:  frontier,
		FromIndex: !qs.result.QueryPPVComputed,
	}
	qs.Close()
	return out, nil
}

// PartialExpand applies one scheduled-approximation iteration restricted to
// the hubs this engine's partition owns: for every frontier hub above the
// delta threshold it assembles prefix/alpha times the hub's extension vector,
// exactly as QueryState.Step does, but stateless — the caller owns the
// estimate, the frontier merge and the stopping rule.
//
// Unlike Step, an index read error is returned instead of silently recomputing
// the hub: in a cluster the read path failing usually means this shard is
// restarting or compacting away its descriptor, and the router's retry (or its
// degradation to a wider bound) is the correct recovery, not a local
// recomputation racing a dying store. A hub that is merely absent (partially
// built index) is still recomputed on the fly.
func (e *Engine) PartialExpand(frontier map[graph.NodeID]float64) (*PartialIncrement, error) {
	if !e.precomputed {
		return nil, fmt.Errorf("core: PartialExpand before Precompute")
	}
	out := &PartialIncrement{
		Frontier: make(map[graph.NodeID]float64),
	}
	b := getQueryBufs()
	defer putQueryBufs(b)
	hubs := make([]graph.NodeID, 0, len(frontier))
	//lint:ordered collect-then-sort: hubs are sorted by id before expansion
	for h := range frontier {
		hubs = append(hubs, h)
	}
	sort.Slice(hubs, func(i, j int) bool { return hubs[i] < hubs[j] })
	inc := &b.inc
	for _, h := range hubs {
		if !e.hubs.Contains(h) || !e.opts.Partition.Owns(h) {
			out.Unowned = append(out.Unowned, h)
			continue
		}
		prefix := frontier[h]
		if prefix <= e.opts.Delta {
			out.HubsSkipped++
			continue
		}
		scale := prefix / e.opts.Alpha
		view, ok, err := e.index.GetView(h)
		if err != nil {
			return nil, fmt.Errorf("core: loading prime PPV of hub %d: %w", h, err)
		}
		if ok {
			inc.StageEncodedExtension(view.EntryBytes(), scale, h, e.opts.Alpha)
			view.Release()
		} else if !e.stageRecomputed(b, inc, h, scale) {
			out.HubsSkipped++
			continue
		}
		out.HubsExpanded++
	}
	inc.Combine()
	out.Increment = inc.ToVector()
	for _, en := range inc.Entries() {
		if en.Score > 0 && e.hubs.Contains(en.Node) {
			out.Frontier[en.Node] = en.Score
		}
	}
	return out, nil
}

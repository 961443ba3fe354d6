package core

import (
	"fmt"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// PartialIncrement is the outcome of one shard-local evaluation step of a
// distributed PPV query. The cluster router runs the scheduled-approximation
// loop (QueryState, over its own Source): iteration 0 is one PartialRootSorted
// on the query node's owner, and every further iteration scatters the
// frontier to the owning shards, gathers their PartialExpand increments, and
// merges them deterministically. Because the estimate only ever accumulates non-negative
// tour mass, the exact accuracy-aware bound 1 - sum(estimate) survives the
// split unchanged: mass a shard fails to contribute (down, slow, or pruned)
// widens the reported bound instead of corrupting the answer.
type PartialIncrement struct {
	// IncrementNodes and IncrementScores are the partial PPV mass of this step
	// in the wire layout of api.Vector (strictly ascending ids): the query
	// node's prime PPV for a root, or the sum of this shard's hub extensions
	// for an expansion, accumulated in ascending hub order, so equal inputs
	// produce bit-identical increments.
	IncrementNodes  []graph.NodeID
	IncrementScores []float64
	// FrontierNodes and FrontierScores, in the same layout, hold the hub
	// entries of the increment: the prefix weights with which the next
	// iteration extends each border hub (Theorem 4). The hub set here is the
	// full one — a shard reports frontier mass landing on hubs it does not
	// own, because the router must route that mass to them.
	FrontierNodes  []graph.NodeID
	FrontierScores []float64
	// Increment and Frontier are map views of the slices, built only by
	// PartialRoot.
	Increment sparse.Vector
	Frontier  map[graph.NodeID]float64
	// HubsExpanded and HubsSkipped count the hubs whose prime PPV was
	// assembled and the hubs pruned by the delta threshold, respectively. For
	// a root, HubsSkipped is the number of border hubs pruned from the frontier
	// (prefix at most delta); they are not in it, and the expansion that
	// retires the frontier counts them as its skipped hubs.
	HubsExpanded int
	HubsSkipped  int
	// Unowned lists, in ascending order, frontier hubs this shard refused
	// because its partition does not own them (a router bug or a stale shard
	// map); their mass was not expanded.
	Unowned []graph.NodeID
	// FromIndex reports, for a root, whether the query node's prime PPV came
	// from the stored index (true exactly when the query node is a hub this
	// shard owns).
	FromIndex bool
	// Delta is, for a root, this engine's Options.Delta: the threshold the
	// router applies to the frontiers it sums, so a hub the owner's kernel
	// would skip is never routed. Zero for an expansion.
	Delta float64
	Epoch uint64 // of the engine version the step read
}

// PartialRootSorted performs iteration 0 of a distributed query: the prime PPV
// of q, loaded from this shard's index when q is a hub it owns and computed on
// the fly otherwise. The returned frontier is the initial border-hub frontier
// (with the empty-tour self-correction already applied) pruned by delta, ready
// to be partitioned across shards by the router; HubsSkipped counts the hubs
// pruned, and Delta carries the threshold for the router's later frontiers.
// Only the sorted slices are filled.
func (e *Engine) PartialRootSorted(q graph.NodeID) (*PartialIncrement, error) {
	qs, err := e.NewQuery(q)
	if err != nil {
		return nil, err
	}
	out := &PartialIncrement{
		FromIndex:   !qs.result.QueryPPVComputed,
		HubsSkipped: qs.src.(*localSource).pruned,
		Delta:       e.opts.Delta,
		Epoch:       qs.Epoch(),
	}
	out.IncrementNodes, out.IncrementScores = splitEntries(qs.bufs.acc.Entries())
	out.FrontierNodes, out.FrontierScores = splitEntries(qs.bufs.frontier)
	qs.release()
	return out, nil
}

// PartialRoot is PartialRootSorted plus the Increment and Frontier map views.
// Only the benchmark harness reads them; it is deleted with ROADMAP item 1.
func (e *Engine) PartialRoot(q graph.NodeID) (*PartialIncrement, error) {
	out, err := e.PartialRootSorted(q)
	if err != nil {
		return nil, err
	}
	out.Increment = make(sparse.Vector, len(out.IncrementNodes))
	for i, n := range out.IncrementNodes {
		out.Increment[n] = out.IncrementScores[i]
	}
	out.Frontier = make(map[graph.NodeID]float64, len(out.FrontierNodes))
	for i, h := range out.FrontierNodes {
		out.Frontier[h] = out.FrontierScores[i]
	}
	return out, nil
}

// PartialExpand applies one expansion of a frontier given as parallel hub and
// prefix slices, hubs strictly ascending (as the wire decoder delivers them),
// restricted to the hubs this engine's partition owns: localSource.Expand's
// per-hub kernel, but stateless — the caller owns the estimate, the frontier
// merge and the stopping rule. Its next frontier is left unpruned: it is one
// addend of the router's sum, which the router prunes by the root's Delta (see
// frontierOf). Frontier hubs outside the partition are refused into
// Unowned. An index read error is returned, not recovered by recomputing
// the hub: in a cluster it usually means this shard is restarting or
// compacting away its descriptor, and the router's retry (or a wider bound) is
// the correct recovery, not a local recomputation racing a dying store. A hub
// merely absent (partially built index) is still recomputed on the fly.
func (e *Engine) PartialExpand(hubs []graph.NodeID, prefixes []float64) (*PartialIncrement, error) {
	v := e.cur.Load()
	if v.index == nil {
		return nil, fmt.Errorf("core: PartialExpand before Precompute")
	}
	if len(hubs) != len(prefixes) {
		return nil, fmt.Errorf("core: PartialExpand frontier has %d hubs but %d prefixes", len(hubs), len(prefixes))
	}
	out := &PartialIncrement{Epoch: v.epoch}
	b := getQueryBufs()
	defer putQueryBufs(b)
	inc := &b.inc
	for i, h := range hubs {
		if i > 0 && h <= hubs[i-1] {
			return nil, fmt.Errorf("core: PartialExpand frontier not strictly ascending at hub %d", h)
		}
		if !e.hubs.Contains(h) || !e.opts.Partition.Owns(h) {
			out.Unowned = append(out.Unowned, h)
			continue
		}
		ok, err := e.stageHub(v, b, inc, h, prefixes[i], false)
		if err != nil {
			return nil, err
		}
		if ok {
			out.HubsExpanded++
		} else {
			out.HubsSkipped++
		}
	}
	// One merge of the staged records' sorted runs (per-node contributions
	// sum in ascending-hub order, bit-equal to merging hub by hub), then the
	// next frontier: every hub entry of the increment, unpruned.
	inc.Combine()
	for _, en := range inc.Entries() {
		if en.Score > 0 && e.hubs.Contains(en.Node) {
			b.frontier = append(b.frontier, en)
		}
	}
	out.IncrementNodes, out.IncrementScores = splitEntries(inc.Entries())
	out.FrontierNodes, out.FrontierScores = splitEntries(b.frontier)
	return out, nil
}

// splitEntries copies sorted entries out of the pooled bundle, which release
// recycles, as parallel node and score slices.
func splitEntries(entries []sparse.Entry) ([]graph.NodeID, []float64) {
	nodes := make([]graph.NodeID, len(entries))
	scores := make([]float64, len(entries))
	for i, en := range entries {
		nodes[i], scores[i] = en.Node, en.Score
	}
	return nodes, scores
}

package core

import (
	"fmt"
	"sort"
	"time"

	"fastppv/internal/graph"
	"fastppv/internal/prime"
	"fastppv/internal/sparse"
)

// IterationStat records what one online iteration did.
type IterationStat struct {
	// Iteration is the iteration number (0 is the query node's prime PPV).
	Iteration int
	// HubsExpanded is the number of hub prime PPVs fetched and assembled in
	// this iteration (0 for iteration 0).
	HubsExpanded int
	// HubsSkipped counts candidate hubs pruned by the delta threshold.
	HubsSkipped int
	// FrontierSize is the number of border hubs in the frontier this iteration
	// expanded (candidates before delta pruning); for iteration 0 it is the
	// size of the frontier the root produced for iteration 1.
	FrontierSize int
	// MassAdded is the total score mass contributed by this iteration's PPV
	// increment; Theorem 2 predicts it shrinks exponentially with the
	// iteration number.
	MassAdded float64
	// L1ErrorBound is phi(i) = 1 - sum(estimate) after this iteration.
	L1ErrorBound float64
	// Duration is the wall time of the iteration.
	Duration time.Duration
}

// Result is the outcome of an online FastPPV query.
type Result struct {
	// Query is the query node.
	Query graph.NodeID
	// Estimate is the approximate PPV accumulated over all processed
	// iterations.
	Estimate sparse.Vector
	// Iterations is the number of PPV increments applied beyond iteration 0.
	Iterations int
	// L1ErrorBound is the accuracy-aware error phi after the last iteration:
	// an upper bound on the L1 distance to the exact PPV, computable without
	// knowing the exact PPV (Eq. 6).
	L1ErrorBound float64
	// PerIteration holds one entry per processed iteration, including
	// iteration 0.
	PerIteration []IterationStat
	// QueryPPVComputed reports whether the query node's prime PPV had to be
	// computed on the fly (true when the query is not a hub).
	QueryPPVComputed bool
	// Duration is the total query wall time.
	Duration time.Duration
}

// TopK returns the k best nodes of the estimate.
func (r *Result) TopK(k int) []sparse.Entry { return r.Estimate.TopK(k) }

// Query runs online FastPPV query processing (Algorithm 2) for query node q
// under the stopping condition stop, assembling PPV increments from the
// precomputed hub prime PPVs.
func (e *Engine) Query(q graph.NodeID, stop StopCondition) (*Result, error) {
	qs, err := e.NewQuery(q)
	if err != nil {
		return nil, err
	}
	res := qs.Run(stop)
	qs.Close()
	return res, nil
}

// QueryState is an in-progress incremental query. It exposes the scheduled
// approximation directly: Step applies one more PPV increment and returns the
// updated accuracy bound, so callers can trade accuracy for time dynamically
// (the "accuracy-aware" property of Sect. 3).
//
// The working state — the running estimate, the per-step increment and the
// frontier — lives in a pooled flat-slice bundle, not in maps: Step reads each
// hub record as a view of the index's flat payload and folds its bytes into a
// sorted accumulator with linear merges, and the map-based Result.Estimate is
// materialized lazily at the API boundary (Result, Run, Close). Callers that
// drive QueryState directly should Close it when done to recycle the bundle;
// a state that is never Closed is still correct, just not pooled.
type QueryState struct {
	engine *Engine
	query  graph.NodeID

	// bufs holds the pooled working set: bufs.acc is the running estimate,
	// bufs.inc the per-step increment, bufs.frontier the border hubs of the
	// next iteration (sorted by ascending hub, prefix weights of Theorem 4).
	// nil after Close.
	bufs      *queryBufs
	iteration int
	result    *Result
	// estimateDirty marks that bufs.acc has advanced past the materialized
	// result.Estimate (or that no materialization happened yet).
	estimateDirty bool
	started       time.Time
	// mass is the running total of the estimate, accumulated increment by
	// increment in deterministic (node-ordered) summation order so the error
	// bound 1-mass is byte-reproducible without re-summing the whole estimate
	// on every Step.
	mass float64
	// deps records the hubs whose indexed prime PPV this query consumed
	// (iteration 0 when the query node is a hub, plus every hub expanded by a
	// Step). Result caches use it for targeted invalidation after a graph
	// update: a cached answer is stale once any of these hubs is recomputed.
	deps map[graph.NodeID]struct{}
}

// NewQuery starts incremental query processing for q and performs iteration 0
// (the prime PPV of the query node, loaded from the index when q is a hub).
func (e *Engine) NewQuery(q graph.NodeID) (*QueryState, error) {
	return e.NewQueryOn(e.g, q)
}

// QueryOn is Query, but prime-subgraph identification for the query node runs
// against the supplied adjacency view instead of the in-memory graph. The
// disk-based configuration of Sect. 5.3 passes a diskgraph.View here so that
// cluster faults are charged to the query.
func (e *Engine) QueryOn(adj prime.Adjacency, q graph.NodeID, stop StopCondition) (*Result, error) {
	qs, err := e.NewQueryOn(adj, q)
	if err != nil {
		return nil, err
	}
	res := qs.Run(stop)
	qs.Close()
	return res, nil
}

// NewQueryOn is NewQuery over an alternative adjacency view (see QueryOn).
func (e *Engine) NewQueryOn(adj prime.Adjacency, q graph.NodeID) (*QueryState, error) {
	if !e.precomputed {
		return nil, fmt.Errorf("core: Query before Precompute")
	}
	if q < 0 || int(q) >= adj.NumNodes() {
		return nil, fmt.Errorf("core: %w: query %d", graph.ErrNodeOutOfRange, q)
	}
	started := time.Now()

	b := getQueryBufs()
	// Iteration 0: the query node's prime PPV, from its index record when q
	// is an indexed hub and pushed on the fly otherwise.
	view, fromIndex, err := e.index.GetView(q)
	if err != nil {
		putQueryBufs(b)
		return nil, fmt.Errorf("core: loading prime PPV of query %d: %w", q, err)
	}
	if fromIndex {
		b.acc.SetEncoded(view.EntryBytes())
		view.Release()
	} else {
		queryPPV, _, err := b.scratch.Push(adj, q, e.hubs, e.opts.primeOptions(), 0)
		if err != nil {
			putQueryBufs(b)
			return nil, fmt.Errorf("core: prime PPV of query %d: %w", q, err)
		}
		b.acc.SetEntries(queryPPV) // born sorted: a copy, no sort
	}
	computed := !fromIndex

	qs := &QueryState{
		engine:        e,
		query:         q,
		bufs:          b,
		deps:          make(map[graph.NodeID]struct{}),
		estimateDirty: true,
		started:       started,
		iteration:     0,
	}
	if !computed {
		qs.deps[q] = struct{}{}
	}
	// The frontier after iteration 0 is the hub entries of the query's prime
	// PPV. If the query node is itself a hub, its self-entry includes the
	// empty tour, which must not be extended (the starting node is excluded
	// from hub length), so subtract alpha from it. Scanning the sorted
	// accumulator entries yields the frontier already in expansion order.
	for _, en := range b.acc.Entries() {
		if !e.hubs.Contains(en.Node) {
			continue
		}
		w := en.Score
		if en.Node == q {
			w -= e.opts.Alpha
		}
		if w > 0 {
			b.frontier = append(b.frontier, frontierEntry{hub: en.Node, prefix: w})
		}
	}
	qs.mass = b.acc.Sum()
	bound := 1 - qs.mass
	qs.result = &Result{
		Query:            q,
		L1ErrorBound:     bound,
		QueryPPVComputed: computed,
		PerIteration: []IterationStat{{
			Iteration:    0,
			MassAdded:    qs.mass,
			L1ErrorBound: bound,
			FrontierSize: len(b.frontier),
			Duration:     time.Since(started),
		}},
	}
	qs.result.Duration = time.Since(started)
	return qs, nil
}

// syncEstimate materializes the accumulator into the public map-based
// Result.Estimate if it is stale. This is the only place the hot-loop state
// crosses into the map representation.
func (qs *QueryState) syncEstimate() {
	if qs.bufs == nil {
		return // Closed: the last sync already produced the final estimate.
	}
	if qs.estimateDirty || qs.result.Estimate == nil {
		qs.result.Estimate = qs.bufs.acc.ToVector()
		qs.estimateDirty = false
	}
}

// Result returns the current result snapshot. The estimate is shared with the
// query state; callers that keep iterating should not modify it.
func (qs *QueryState) Result() *Result {
	qs.syncEstimate()
	return qs.result
}

// Close materializes the final result and returns the query's pooled working
// buffers for reuse. The returned Result (and everything previously obtained
// via Result or Run) stays valid; further Steps are no-ops. Close is
// idempotent. Long-running servers should Close every query they finish so
// the per-query working set is recycled instead of re-allocated.
func (qs *QueryState) Close() {
	if qs.bufs == nil {
		return
	}
	qs.syncEstimate()
	putQueryBufs(qs.bufs)
	qs.bufs = nil
}

// L1ErrorBound returns the current accuracy-aware error bound.
func (qs *QueryState) L1ErrorBound() float64 { return qs.result.L1ErrorBound }

// Iteration returns the number of Steps applied so far (0 right after
// NewQuery). Serving layers use it to report how far a degraded answer got.
func (qs *QueryState) Iteration() int { return qs.iteration }

// HubDeps returns, in ascending order, the hubs whose indexed prime PPV this
// query has consumed so far. A cached result derived from this state must be
// invalidated when any of these hubs' prime PPVs is recomputed.
func (qs *QueryState) HubDeps() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(qs.deps))
	//lint:ordered collect-then-sort: deps are sorted by id before returning
	for h := range qs.deps {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Exhausted reports whether no extendable hubs remain, i.e. further Steps
// cannot improve the estimate.
func (qs *QueryState) Exhausted() bool {
	return qs.bufs == nil || len(qs.bufs.frontier) == 0
}

// Step applies the next PPV increment (one more iteration of Algorithm 2's
// while loop) and returns its statistics. Calling Step when Exhausted is a
// no-op that returns a zero-mass stat.
func (qs *QueryState) Step() IterationStat {
	e := qs.engine
	iterStart := time.Now()
	qs.iteration++
	stat := IterationStat{Iteration: qs.iteration}
	b := qs.bufs
	if b != nil {
		stat.FrontierSize = len(b.frontier)
	}

	if b == nil || len(b.frontier) == 0 {
		stat.L1ErrorBound = qs.result.L1ErrorBound
		qs.result.PerIteration = append(qs.result.PerIteration, stat)
		return stat
	}

	inc := &b.inc
	inc.Reset()
	// The frontier slice is already sorted by ascending hub id, so hubs are
	// expanded in deterministic order and floating-point accumulation is
	// reproducible: two queries at the same eta return entry-wise identical
	// estimates, which lets serving-layer caches promise byte-identical
	// cached responses.
	for _, fe := range b.frontier {
		if fe.prefix <= e.opts.Delta {
			stat.HubsSkipped++
			continue
		}
		// Theorem 4: extend the prefix ending at hub h by h's prime PPV,
		// excluding h's empty tour (an extension must advance the walk). The
		// self-correction is applied inline by the accumulate kernel — no
		// per-hub clone of the prime PPV.
		scale := fe.prefix / e.opts.Alpha
		// A hub missing from the index (or an I/O error) is recovered by
		// computing its prime PPV on the fly; this keeps queries usable with
		// partially built indexes at the cost of extra work.
		if view, ok, err := e.index.GetView(fe.hub); err == nil && ok {
			inc.StageEncodedExtension(view.EntryBytes(), scale, fe.hub, e.opts.Alpha)
			view.Release()
		} else if !e.stageRecomputed(b, inc, fe.hub, scale) {
			stat.HubsSkipped++
			continue
		}
		qs.deps[fe.hub] = struct{}{}
		stat.HubsExpanded++
	}
	// One stable-sort fold of everything staged: per-node contributions sum
	// in ascending-hub order, bit-equal to merging hub by hub.
	inc.Combine()

	b.acc.AddAccumulator(inc)
	qs.estimateDirty = true
	// The next frontier is the hub entries of the increment; the increment is
	// sorted, so the frontier slice is born sorted.
	b.nextFrontier = b.nextFrontier[:0]
	for _, en := range inc.Entries() {
		if en.Score > 0 && e.hubs.Contains(en.Node) {
			b.nextFrontier = append(b.nextFrontier, frontierEntry{hub: en.Node, prefix: en.Score})
		}
	}
	b.frontier, b.nextFrontier = b.nextFrontier, b.frontier

	stat.MassAdded = inc.Sum()
	qs.mass += stat.MassAdded
	stat.L1ErrorBound = 1 - qs.mass
	stat.Duration = time.Since(iterStart)

	qs.result.Iterations = qs.iteration
	qs.result.L1ErrorBound = stat.L1ErrorBound
	qs.result.PerIteration = append(qs.result.PerIteration, stat)
	qs.result.Duration = time.Since(qs.started)
	return stat
}

// stageRecomputed is the fallback of Step and PartialExpand for a hub whose
// record the index could not serve: its prime PPV is pushed on the fly,
// unclipped, encoded into the bundle's record buffer and staged as a stored
// record would be. It reports false when the push failed (nothing staged).
func (e *Engine) stageRecomputed(b *queryBufs, inc *sparse.Accumulator, h graph.NodeID, scale float64) bool {
	entries, _, err := b.scratch.Push(e.g, h, e.hubs, e.opts.primeOptions(), 0)
	if err != nil {
		return false
	}
	b.record = sparse.AppendEncoded(b.record[:0], entries)
	inc.StageEncodedExtension(b.record, scale, h, e.opts.Alpha)
	return true
}

// Run keeps stepping until the stopping condition is met and returns the
// final result.
func (qs *QueryState) Run(stop StopCondition) *Result {
	maxIter := stop.maxIterations()
	for qs.iteration < maxIter {
		if stop.TargetL1Error > 0 && qs.result.L1ErrorBound <= stop.TargetL1Error {
			break
		}
		if stop.TimeLimit > 0 && time.Since(qs.started) >= stop.TimeLimit {
			break
		}
		if qs.Exhausted() {
			break
		}
		prev := qs.result.L1ErrorBound
		st := qs.Step()
		// Defensive convergence guard: if an iteration added no mass (all
		// candidate hubs pruned by delta), further iterations cannot help.
		if st.MassAdded == 0 && st.L1ErrorBound >= prev {
			break
		}
	}
	qs.result.Duration = time.Since(qs.started)
	qs.syncEstimate()
	return qs.result
}

package core

import (
	"fmt"
	"slices"
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
	// Entries is the estimate: the approximate PPV accumulated over all
	// processed iterations, sorted by ascending node id. It is owned by the
	// Result, and it is what TopK ranks and the serving layer caches.
	Entries []sparse.Entry
	// Estimate is the map view of Entries, built only by the public entry
	// points — Engine.Query/QueryOn, QueryState.Result, cluster.Router.Query —
	// and nil in what QueryState.Run returns.
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
func (r *Result) TopK(k int) []sparse.Entry { return sparse.TopKEntries(r.Entries, k) }

// Query runs online FastPPV query processing (Algorithm 2) for query node q
// under the stopping condition stop, assembling PPV increments from the
// precomputed hub prime PPVs.
func (e *Engine) Query(q graph.NodeID, stop StopCondition) (*Result, error) {
	return e.QueryOn(e.g, q, stop)
}

// Source is where a scheduled-approximation query gets its mass from. The loop
// itself — fold the increment, tighten phi = 1 - sum(estimate) (Eq. 6), stop
// on eta, target error, time or an empty frontier — is stated once, in
// QueryState; a Source only says how iteration 0 and the increment of a
// frontier are obtained. There are two: the engine's own index (localSource)
// and a cluster router's scatter/gather over hub-partitioned shards
// (internal/cluster). A Source holds the frontier between calls and serves
// one query.
type Source interface {
	// Root performs iteration 0: it folds the query node's prime PPV into the
	// empty estimate and takes the initial border-hub frontier. computed
	// reports that the prime PPV was pushed on the fly rather than read from a
	// stored record.
	Root(q graph.NodeID, estimate *sparse.Accumulator) (computed bool, err error)
	// Frontier returns the number of border hubs awaiting expansion,
	// counting those already pruned by delta: the next Expand reports them
	// skipped without expanding them.
	Frontier() int
	// Expand retires the held frontier as iteration iter: it leaves the PPV
	// increment in inc (empty on entry; sorted and combined on return), holds
	// the next frontier, and reports the hubs expanded and skipped.
	Expand(iter int, inc *sparse.Accumulator) (expanded, skipped int)
}

// QueryState is an in-progress incremental query: the one
// scheduled-approximation loop of the tree (Algorithm 2), over a Source. It
// exposes the schedule directly: Step applies one more PPV increment and
// returns the updated accuracy bound, so callers can trade accuracy for time
// dynamically (the "accuracy-aware" property of Sect. 3); Run steps until a
// StopCondition says stop.
//
// The working state — the running estimate and the per-step increment — lives
// in a pooled flat-slice bundle, not in maps: increments arrive sorted by node
// id and fold into the estimate with linear merges. Run and Close copy the
// estimate out as the sorted Result.Entries; only Result builds the map view
// Result.Estimate. Callers that drive QueryState directly should Close it when
// done to recycle the bundle; a state that is never Closed is still correct,
// just not pooled.
type QueryState struct {
	src Source

	// bufs holds the pooled working set: bufs.acc is the running estimate,
	// bufs.inc the per-step increment (the rest serves a localSource). nil
	// after Close.
	bufs      *queryBufs
	iteration int
	result    *Result
	// entriesDirty marks that bufs.acc has advanced past result.Entries (or
	// that no copy was taken yet).
	entriesDirty bool
	started      time.Time
	// mass is the running total of the estimate, accumulated increment by
	// increment in deterministic (node-ordered) summation order so the error
	// bound 1-mass is byte-reproducible without re-summing the whole estimate
	// on every Step.
	mass float64
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
	qs.Run(stop)
	qs.Close()
	return qs.Result(), nil
}

// NewQueryOn is NewQuery over an alternative adjacency view (see QueryOn).
func (e *Engine) NewQueryOn(adj prime.Adjacency, q graph.NodeID) (*QueryState, error) {
	if !e.precomputed {
		return nil, fmt.Errorf("core: Query before Precompute")
	}
	if q < 0 || int(q) >= adj.NumNodes() {
		return nil, fmt.Errorf("core: %w: query %d", graph.ErrNodeOutOfRange, q)
	}
	b := getQueryBufs()
	return startQuery(q, &localSource{e: e, adj: adj, b: b}, b)
}

// StartQuery starts a query for q over src and performs iteration 0. It is how
// a source outside this package (the cluster router's) runs the schedule.
func StartQuery(q graph.NodeID, src Source) (*QueryState, error) {
	return startQuery(q, src, getQueryBufs())
}

func startQuery(q graph.NodeID, src Source, b *queryBufs) (*QueryState, error) {
	started := time.Now()
	computed, err := src.Root(q, &b.acc)
	if err != nil {
		putQueryBufs(b)
		return nil, err
	}
	qs := &QueryState{
		src:          src,
		bufs:         b,
		entriesDirty: true,
		started:      started,
		mass:         b.acc.Sum(),
	}
	bound := 1 - qs.mass
	qs.result = &Result{
		Query:            q,
		L1ErrorBound:     bound,
		QueryPPVComputed: computed,
		PerIteration: []IterationStat{{
			Iteration:    0,
			MassAdded:    qs.mass,
			L1ErrorBound: bound,
			FrontierSize: src.Frontier(),
			Duration:     time.Since(started),
		}},
	}
	qs.result.Duration = time.Since(started)
	return qs, nil
}

// localSource is the Source over an engine's own index: iteration 0 is the
// query node's record (or an on-the-fly push), an expansion is the per-hub
// kernel over every frontier hub. Its frontier lives in the query's pooled
// bundle.
type localSource struct {
	e   *Engine
	adj prime.Adjacency
	b   *queryBufs
	// pruned counts the border hubs dropped from the held frontier because
	// their prefix is at most delta; the next Expand reports them skipped.
	pruned int
}

func (s *localSource) Root(q graph.NodeID, estimate *sparse.Accumulator) (bool, error) {
	e, b := s.e, s.b
	// The query node's prime PPV, from its index record when q is an indexed
	// hub and pushed on the fly otherwise.
	view, fromIndex, err := e.index.GetView(q)
	if err != nil {
		return false, fmt.Errorf("core: loading prime PPV of query %d: %w", q, err)
	}
	if fromIndex {
		estimate.SetEncoded(view.EntryBytes())
		view.Release()
		b.deps = append(b.deps, q)
	} else {
		queryPPV, _, err := b.scratch.Push(s.adj, q, e.hubs, e.opts.primeOptions(), 0)
		if err != nil {
			return false, fmt.Errorf("core: prime PPV of query %d: %w", q, err)
		}
		estimate.SetEntries(queryPPV) // born sorted: a copy, no sort
	}
	// The frontier after iteration 0 is the hub entries of the query's prime
	// PPV. If the query node is itself a hub, its self-entry includes the
	// empty tour, which must not be extended (the starting node is excluded
	// from hub length), so subtract alpha from it. Scanning the sorted
	// accumulator entries yields the frontier already in expansion order.
	for _, en := range estimate.Entries() {
		if !e.hubs.Contains(en.Node) {
			continue
		}
		w := en.Score
		if en.Node == q {
			w -= e.opts.Alpha
		}
		if w > 0 {
			b.frontier = append(b.frontier, sparse.Entry{Node: en.Node, Score: w})
		}
	}
	b.frontier, s.pruned = e.pruneFrontier(b.frontier)
	return !fromIndex, nil
}

func (s *localSource) Frontier() int { return len(s.b.frontier) + s.pruned }

// Expand runs the kernel over every frontier hub. The frontier slice is
// sorted by ascending hub id, so hubs are expanded in deterministic order and
// floating-point accumulation is reproducible: two queries at the same eta
// return entry-wise identical estimates, which lets serving-layer caches
// promise byte-identical cached responses. A record the index cannot read is
// recovered by recomputing the hub; this keeps queries usable with partially
// built indexes at the cost of extra work.
func (s *localSource) Expand(_ int, inc *sparse.Accumulator) (expanded, skipped int) {
	b := s.b
	skipped = s.pruned
	consumed := len(b.deps)
	for _, fe := range b.frontier {
		if ok, _ := s.e.stageHub(b, inc, fe.Node, fe.Score, true); ok {
			b.deps = append(b.deps, fe.Node)
			expanded++
		} else {
			skipped++
		}
	}
	b.mergeDeps(consumed)
	b.frontier, b.nextFrontier = s.e.foldStaged(inc, b.nextFrontier[:0]), b.frontier
	b.frontier, s.pruned = s.e.pruneFrontier(b.frontier)
	return expanded, skipped
}

// expandable is Algorithm 2's delta rule: a border hub is extended only when
// its prefix exceeds delta. stageHub applies it to every hub it is handed, and
// pruneFrontier applies it once where a complete frontier is born.
func (e *Engine) expandable(prefix float64) bool { return prefix > e.opts.Delta }

// pruneFrontier filters a complete frontier in place down to the hubs the
// kernel will expand and returns them with the number dropped. Only a
// frontier that holds each hub's whole prefix may be pruned: a shard's
// PartialExpand frontier is one addend of the router's sum, and two sub-delta
// addends can exceed delta, so that frontier is left to stageHub.
func (e *Engine) pruneFrontier(frontier []sparse.Entry) (kept []sparse.Entry, pruned int) {
	kept = frontier[:0]
	for _, en := range frontier {
		if e.expandable(en.Score) {
			kept = append(kept, en)
		}
	}
	return kept, len(frontier) - len(kept)
}

// stageHub is the per-hub expansion kernel (Algorithm 2 lines 8-11): prune by
// delta, then stage prefix/alpha times hub h's extension vector into inc.
// Theorem 4 extends the prefix ending at the hub by its prime PPV, excluding
// the hub's empty tour (an extension must advance the walk); that
// self-correction is applied inline by the staging call, with no per-hub clone
// of the prime PPV. It reports whether anything was staged.
//
// A hub absent from the index (a partially built one) is pushed on the fly.
// What a failed read does is the caller's policy: with recompute the hub is
// pushed on the fly too and err is always nil; without it the read error is
// returned.
func (e *Engine) stageHub(b *queryBufs, inc *sparse.Accumulator, h graph.NodeID, prefix float64, recompute bool) (bool, error) {
	if !e.expandable(prefix) {
		return false, nil
	}
	scale := prefix / e.opts.Alpha
	view, ok, err := e.index.GetView(h)
	if err != nil && !recompute {
		return false, fmt.Errorf("core: loading prime PPV of hub %d: %w", h, err)
	}
	if err == nil && ok {
		inc.StageEncodedExtension(view.EntryBytes(), scale, h, e.opts.Alpha)
		view.Release()
		return true, nil
	}
	return e.stageRecomputed(b, inc, h, scale), nil
}

// foldStaged closes an expansion: one merge of the staged records' sorted
// runs (per-node contributions sum in ascending-hub order, bit-equal to
// merging hub by hub), then the next frontier — the hub entries of the
// increment, born sorted because the increment is — appended to next.
func (e *Engine) foldStaged(inc *sparse.Accumulator, next []sparse.Entry) []sparse.Entry {
	inc.Combine()
	for _, en := range inc.Entries() {
		if en.Score > 0 && e.hubs.Contains(en.Node) {
			next = append(next, en)
		}
	}
	return next
}

// syncEntries copies the accumulator out as result.Entries if it has advanced
// since the last copy, retiring the map view built from the old copy. Earlier
// copies and maps stay valid: each sync makes new ones.
func (qs *QueryState) syncEntries() {
	if qs.bufs == nil || !qs.entriesDirty {
		return // Closed (the last sync took the final estimate), or current.
	}
	qs.result.Entries = slices.Clone(qs.bufs.acc.Entries())
	qs.result.Estimate = nil
	qs.entriesDirty = false
}

// syncEstimate brings Result.Estimate, the map view of the entries, up to
// date. It is the one place a query's estimate becomes a map, and only the
// public entry points reach it.
func (qs *QueryState) syncEstimate() {
	qs.syncEntries()
	if qs.result.Estimate == nil {
		qs.result.Estimate = sparse.FromEntries(qs.result.Entries)
	}
}

// Result returns the current result snapshot, Estimate map included. The
// estimate is shared with the query state; callers that keep iterating should
// not modify it.
func (qs *QueryState) Result() *Result {
	qs.syncEstimate()
	return qs.result
}

// Close takes the final estimate as Result.Entries and returns the query's
// pooled working buffers for reuse. The returned Result (and everything
// previously obtained via Result or Run) stays valid; further Steps are
// no-ops. Close is idempotent. Long-running servers should Close every query
// they finish so the per-query working set is recycled instead of
// re-allocated.
func (qs *QueryState) Close() {
	qs.syncEntries()
	qs.release()
}

// release returns the pooled bundle without copying the estimate out.
func (qs *QueryState) release() {
	if qs.bufs != nil {
		putQueryBufs(qs.bufs)
		qs.bufs = nil
	}
}

// L1ErrorBound returns the current accuracy-aware error bound.
func (qs *QueryState) L1ErrorBound() float64 { return qs.result.L1ErrorBound }

// Iteration returns the number of Steps applied so far (0 right after
// NewQuery). Serving layers use it to report how far a degraded answer got.
func (qs *QueryState) Iteration() int { return qs.iteration }

// HubDeps returns a copy, in ascending order, of the hubs whose indexed prime
// PPV this local query has consumed so far (iteration 0 when the query node is
// a hub, plus every hub a Step expanded); a remote source consumes none.
// Result caches use it for targeted invalidation after a graph update: a
// cached answer derived from this state is stale once any of these hubs is
// recomputed. The list lives in the pooled bundle, so call HubDeps before
// Close; after Close it returns nil.
func (qs *QueryState) HubDeps() []graph.NodeID {
	if qs.bufs == nil {
		return nil
	}
	return slices.Clone(qs.bufs.deps)
}

// Exhausted reports whether no extendable hubs remain, i.e. further Steps
// cannot improve the estimate.
func (qs *QueryState) Exhausted() bool {
	return qs.bufs == nil || qs.src.Frontier() == 0
}

// Step applies the next PPV increment (one more iteration of Algorithm 2's
// while loop) and returns its statistics. Calling Step when Exhausted is a
// no-op that returns a zero-mass stat.
func (qs *QueryState) Step() IterationStat {
	iterStart := time.Now()
	qs.iteration++
	stat := IterationStat{Iteration: qs.iteration}
	if qs.Exhausted() {
		stat.L1ErrorBound = qs.result.L1ErrorBound
		qs.result.PerIteration = append(qs.result.PerIteration, stat)
		return stat
	}
	stat.FrontierSize = qs.src.Frontier()

	inc := &qs.bufs.inc
	inc.Reset()
	stat.HubsExpanded, stat.HubsSkipped = qs.src.Expand(qs.iteration, inc)
	qs.bufs.acc.AddAccumulator(inc)
	qs.entriesDirty = true

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

// stageRecomputed is stageHub's fallback for a hub whose record the index
// could not serve: its prime PPV is pushed on the fly,
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
// final result. It is the one statement of the stop schedule: Engine.Query and
// the cluster router's Query both end here.
//
// The result carries the estimate as the sorted Entries only; its Estimate map
// is nil (unless Result built one since the last Step). Call Result for the
// map view.
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
	qs.syncEntries()
	return qs.result
}

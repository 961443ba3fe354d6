// Package cluster shards the hub index of the FastPPV reproduction across
// processes: a scatter-gather Router over fastppvd shards that each serve one
// hub partition of the index (see internal/core.Partition).
//
// The scheduled approximation of the paper decomposes a PPV query into
// per-hub sub-queries aggregated in decreasing order of importance; the
// router distributes exactly that decomposition. It does not restate the
// loop: a routed query is a core.QueryState — the schedule Engine.Query runs —
// over the router's own core.Source (routedQuery). Iteration 0 (the query
// node's prime PPV) is answered by the node's owner shard; every further
// iteration partitions the border-hub frontier by hub owner, scatters one
// partial-expansion request per owning shard over that shard's stream
// (transport.go), and merges the returned increments in ascending shard order
// so responses stay deterministic. The frontier is pruned by delta before it is
// routed, as the engine prunes its own: the root shard prunes iteration 1's,
// and the router prunes each later one, the sum of the shards' frontiers, by
// the delta the root reply carries. A hub the owner's kernel would skip never
// crosses the wire, and a round with no hub above delta sends no leg. The
// estimate only accumulates non-negative tour mass, so the accuracy-aware
// bound 1 - sum(estimate) remains exact under any failure: a down or slow
// shard simply leaves its share of the mass unexpanded and the answer is
// returned with a correctly widened error bound instead of an error. So the
// router treats a suspect shard as down at no cost to correctness: a shard is
// down exactly while its backoff window (transport.go) is open.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fastppv/internal/api"
	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
	"fastppv/internal/telemetry"
)

// RouterConfig configures a shard router.
type RouterConfig struct {
	// Targets are the shard base URLs; Targets[i] must be the shard serving
	// partition i/len(Targets). The order is part of the partition contract.
	Targets []string
	// RequestTimeout bounds one partial sub-request; zero means 10s.
	RequestTimeout time.Duration
	// Transport must be "" or TransportBinary. There is one shard transport;
	// the field survives only because the frozen benchmark harness sets it.
	Transport string
	// HealthInterval is ignored: a shard's backoff window is the only liveness
	// rule and nothing probes in the background. The field survives only
	// because the frozen benchmark harness sets it.
	HealthInterval time.Duration
	// Registry optionally receives the router's metrics (per-shard leg
	// latency, degraded answers and lost mass, and a scrape-time collector for
	// epochs and health); nil records into a private, unexported registry.
	Registry *telemetry.Registry
	// Logger optionally receives structured router logs (backoff windows
	// opening and closing, epoch raises, update fan-outs, traced queries); nil
	// discards them.
	Logger *slog.Logger
}

// Router fans PPV queries out across hub-partitioned shards and aggregates
// the partial results. It is safe for concurrent use.
type Router struct {
	part    core.Partition
	shards  []*shardClient
	client  *http.Client
	timeout time.Duration
	logger  *slog.Logger
	met     routerMetrics

	// numNodes is the node count of the served graph: 0 until discovered,
	// then only raised (raiseNodes).
	numNodes atomic.Int64
	// clusterEpoch is the highest index epoch the router has observed on any
	// shard (from partial responses, update fan-outs and stats probes); -1
	// until the first observation. It is the reference a query measures every
	// shard against: a shard answering below it is serving an older graph and
	// its mass is folded into the error bound instead of merged.
	clusterEpoch atomic.Int64

	// updateMu serializes update fan-outs: batches are applied cluster-wide
	// in one deterministic order, so every shard sees the same sequence and
	// equal epochs imply equal graphs.
	updateMu sync.Mutex
}

// shardClient is the router's view of one shard.
type shardClient struct {
	index  int
	target string
	// epoch is the shard's last observed index epoch; -1 while unknown.
	epoch atomic.Int64

	failures atomic.Int64
	retries  atomic.Int64

	// leg is the shard's pre-resolved latency histogram child, so the hot
	// path never touches the registry's label map. Its count and sum are the
	// shard's request total and latency total.
	leg *telemetry.Histogram

	// tr carries this shard's partial sub-requests and holds its backoff
	// window.
	tr *streamTransport
}

// setEpoch records the shard's last observed epoch.
func (s *shardClient) setEpoch(e uint64) { s.epoch.Store(int64(e)) }

// knownEpoch returns the shard's last observed epoch, if any.
func (s *shardClient) knownEpoch() (uint64, bool) {
	e := s.epoch.Load()
	if e < 0 {
		return 0, false
	}
	return uint64(e), true
}

func (s *shardClient) observe(d time.Duration, failed bool) {
	if failed {
		s.failures.Add(1)
	}
	s.leg.ObserveDuration(d)
}

// NewRouter creates a router over the given shard targets and reads the
// shards' stats for their epochs and the graph's node count. It leaves no
// goroutine running; call Close when done. Shards that are still starting are fine: the first
// leg that reaches one connects it, and the first answered root teaches the
// router the node count if no shard answered here.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one shard target")
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	// The client serves the shards' plain HTTP surface: stats reads and update
	// fan-out legs. The stdlib zero client has no timeout and keeps only 2
	// idle connections per host. Size the idle pool to the fan-out width (an
	// update fan-out touches every shard) and give every call a real deadline.
	client := &http.Client{
		Timeout: cfg.RequestTimeout + time.Second,
		Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   5 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			MaxIdleConns:        32 * len(cfg.Targets),
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	if cfg.Transport != "" && cfg.Transport != TransportBinary {
		return nil, fmt.Errorf("cluster: unknown transport %q (the only transport is %q)",
			cfg.Transport, TransportBinary)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = telemetry.NopLogger()
	}
	r := &Router{
		part:    core.Partition{Shards: len(cfg.Targets)},
		client:  client,
		timeout: cfg.RequestTimeout,
		logger:  logger,
		met:     newRouterMetrics(reg),
	}
	r.clusterEpoch.Store(-1)
	for i, t := range cfg.Targets {
		target, err := api.NormalizeTarget(t)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard target at position %d: %w", i, err)
		}
		s := &shardClient{
			index:  i,
			target: target,
			leg:    r.met.legLatency.With(strconv.Itoa(i)),
			tr:     newStreamTransport(target, i, r.timeout, logger),
		}
		s.epoch.Store(-1)
		r.shards = append(r.shards, s)
	}
	r.registerCollector(reg)
	// Read every shard's stats at once: silent shards cost one timeout
	// together, not one each, and that timeout is short. Nothing here needs
	// the answer: a shard not read now is connected by its first leg, and
	// the first answered root teaches the node count.
	var wg sync.WaitGroup
	for _, s := range r.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.fetchShardStats(s, min(r.timeout, startupStatsTimeout))
		}()
	}
	wg.Wait()
	return r, nil
}

// Close tears down the shard transports.
func (r *Router) Close() {
	for _, s := range r.shards {
		s.tr.Close()
	}
}

// NumNodes returns the node count of the served graph, read off shard stats
// and raised by every update fan-out that adds nodes; zero while no shard has
// answered yet.
func (r *Router) NumNodes() int { return int(r.numNodes.Load()) }

// raiseNodes raises the node count to n if n is larger. An update may add
// nodes and none removes them, so the count never lowers.
func (r *Router) raiseNodes(n int) {
	for {
		old := r.numNodes.Load()
		if int64(n) <= old || r.numNodes.CompareAndSwap(old, int64(n)) {
			return
		}
	}
}

// ClusterEpoch returns the highest index epoch observed on any shard, and
// whether any epoch has been observed yet. The serving layer serves a cached
// answer only at the epoch it was computed at, so an accepted update instantly
// retires every pre-update answer.
func (r *Router) ClusterEpoch() (uint64, bool) {
	e := r.clusterEpoch.Load()
	if e < 0 {
		return 0, false
	}
	return uint64(e), true
}

// observeEpoch raises the cluster epoch to e if it is the highest seen. The
// epoch never lowers: a shard reporting less than the maximum is the shard
// being behind, not the cluster.
func (r *Router) observeEpoch(e uint64) {
	for {
		old := r.clusterEpoch.Load()
		if int64(e) <= old {
			return
		}
		if r.clusterEpoch.CompareAndSwap(old, int64(e)) {
			r.logger.Info("cluster epoch raised", "epoch", e, "previous", old)
			return
		}
	}
}

// startupStatsTimeout caps NewRouter's stats read, so that a shard that
// accepts connections but never answers holds start-up for at most this long.
const startupStatsTimeout = 2 * time.Second

// fetchShardStats reads the shard's /v1/stats for the graph size and index
// epoch within timeout, recording the epoch on the shard (and raising the
// cluster epoch) and raising the node count.
func (r *Router) fetchShardStats(s *shardClient, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.target+"/v1/stats", nil)
	if err != nil {
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return
	}
	var st struct {
		Graph struct {
			Nodes int `json:"nodes"`
		} `json:"graph"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return
	}
	s.setEpoch(st.Epoch)
	r.observeEpoch(st.Epoch)
	r.raiseNodes(st.Graph.Nodes)
}

// shardFault reports whether a failed shard call indicates the shard itself
// is unusable (transport failure, internal error, persistent retry condition)
// rather than a property of this one request. Admission rejection
// (overloaded) and client-class errors open no backoff window: one shed
// sub-request under a load spike must not take the shard out of every query.
func shardFault(err error) bool {
	var aerr *api.Error
	if errors.As(err, &aerr) {
		switch aerr.Code {
		case api.CodeBadRequest, api.CodeOverloaded, api.CodeConflict, api.CodeUnsupported:
			return false
		}
	}
	return true
}

// partial performs one partial sub-request against shard s over its
// transport, retrying once when the shard reports the transient CodeRetry
// condition (its index descriptor was swapped mid-read, e.g. by a compaction
// or restart). Its outcome settles the shard's backoff window.
func (r *Router) partial(s *shardClient, preq *api.PartialRequest, traceID string) (*api.PartialResponse, error) {
	start := time.Now()
	resp, err := s.tr.Partial(preq, traceID)
	if aerr, ok := err.(*api.Error); ok && aerr.Code == api.CodeRetry {
		s.retries.Add(1)
		resp, err = s.tr.Partial(preq, traceID)
	}
	s.observe(time.Since(start), err != nil)
	if err == nil && (resp.Shards != len(r.shards) || resp.Shard != s.index) {
		err = fmt.Errorf("cluster: target %s answers as shard %d/%d, expected %d/%d: shard map misconfigured",
			s.target, resp.Shard, resp.Shards, s.index, len(r.shards))
	}
	s.tr.settle(start, err)
	if err != nil {
		return nil, err
	}
	s.setEpoch(resp.Epoch)
	r.observeEpoch(resp.Epoch)
	return resp, nil
}

// errDown is the error of a leg not sent because the shard is inside its
// backoff window.
func errDown(s *shardClient) error {
	return fmt.Errorf("cluster: shard %d (%s) is down", s.index, s.target)
}

// Result is the outcome of one routed cluster query: a core.Result — Entries
// (Estimate too, from Query) and L1ErrorBound have the single-node semantics,
// the bound being the exact L1 distance budget 1 - sum(estimate), valid even
// when shards were lost mid-query because their unexpanded mass is simply
// part of it — plus what only a cluster can report.
type Result struct {
	core.Result
	// Degraded reports that the cluster could not evaluate the full schedule:
	// at least one shard was down or failed, or the root had to be computed
	// by a non-owner. The answer is still correct; its bound is just wider
	// than a healthy cluster would have reported.
	Degraded bool
	// ShardsDown counts the shards that faulted (unreachable, internal
	// failure, misconfigured) during this query. A shard that merely shed a
	// sub-request under admission pressure degrades the answer but is not
	// counted here.
	ShardsDown int
	// Epoch is the index epoch this answer was evaluated at: every merged
	// increment came from a shard reporting exactly this epoch.
	Epoch uint64
	// ShardsBehind counts shards whose answers were discarded because they
	// reported a different index epoch than Epoch — they are serving a
	// different graph (a missed update fan-out, or a direct local update),
	// and merging their mass would silently mix two graphs' PPVs. Their
	// frontier mass is folded into the bound instead, like a down shard's.
	ShardsBehind int
	// LostFrontierMass is the total prefix weight that could not be expanded
	// because its owning shard was unavailable; it is an upper bound on how
	// much of the reported error bound is due to degradation rather than the
	// stopping condition. Only routed prefixes count, and every routed frontier
	// is pruned by delta (the root's by the root shard, each later one, the
	// router's sum of shard frontiers, by the router), so a lost group is all
	// above-delta mass that its owner would have expanded. It is summed in
	// ascending hub order within ascending shard order, so equal degraded
	// queries report equal bits.
	LostFrontierMass float64
	// Spans holds the shard legs of each processed iteration: Spans[i] belongs
	// to PerIteration[i]. Always collected: the cost is bounded by iterations
	// x shards, negligible next to the network round trips themselves.
	Spans []IterationSpan
}

// Query evaluates the PPV of q across the cluster under the stopping
// condition stop. It is core.Engine.Query with a different Source: the same
// core.QueryState runs the schedule — iteration 0 plus up to eta frontier
// expansions, stopping early on the target error, the time limit, or an
// exhausted frontier — and only where the mass comes from differs (routedQuery
// below).
//
// Failures degrade instead of erroring: the query only fails outright when no
// shard at all can answer iteration 0.
func (r *Router) Query(q graph.NodeID, stop core.StopCondition) (*Result, error) {
	var entries []sparse.Entry
	res, err := r.QueryTrace(q, stop, "", func(estimate []sparse.Entry) { entries = slices.Clone(estimate) })
	if err != nil {
		return nil, err
	}
	res.Entries, res.Estimate = entries, sparse.FromEntries(entries)
	return res, nil
}

// QueryTrace is Query with an end-to-end trace ID: the ID travels inside
// every shard sub-request's frame — shards key their logs on it — and the
// returned result's Spans tie the per-iteration timings back to the same ID.
// It is the serving layer's entry point, so it lends the final estimate
// (sorted by node id, pooled) to take, as core.QueryState.Serve does, and
// answers without it: Entries and Estimate are nil.
func (r *Router) QueryTrace(q graph.NodeID, stop core.StopCondition, traceID string, take func(estimate []sparse.Entry)) (*Result, error) {
	res := &Result{}
	src := &routedQuery{
		r: r, res: res, traceID: traceID,
		down: make(map[int]struct{}), stale: make(map[int]struct{}),
	}
	qs, err := core.StartQuery(q, src)
	if err != nil {
		return nil, err
	}
	res.Result = *qs.Serve(stop, take)
	res.ShardsDown = len(src.down)
	res.ShardsBehind = len(src.stale)
	if res.ShardsDown > 0 || res.ShardsBehind > 0 {
		res.Degraded = true
	}
	r.met.observeQuery(res)
	if traceID != "" {
		r.logger.Debug("routed query traced",
			"trace_id", traceID, "query", int(q), "iterations", res.Iterations,
			"l1_error_bound", res.L1ErrorBound, "degraded", res.Degraded,
			"shards_down", res.ShardsDown, "shards_behind", res.ShardsBehind,
			"epoch", res.Epoch, "duration_ms", float64(res.Duration)/1e6)
	}
	return res, nil
}

// routedQuery is the remote core.Source of one routed query: iteration 0 is
// one root partial, an expansion is one scatter/gather round over the shards
// owning the frontier. Everything that makes the leg remote lives here —
// which shards are down or epoch-divergent for this query, the per-leg spans
// — and none of the schedule does.
//
// The working state is flat, like the engine's: the frontier is a wire vector
// (parallel slices in ascending hub order), replies fold into sorted
// accumulators by linear merge straight from their wire vectors, in ascending
// shard order. Per node that is 0 + s0 (exactly s0), + s1 ..., then one add
// into the estimate — the float addition order a map-based fold in the same
// shard order has — so answers are a deterministic function of the cluster
// state, bit for bit (testdata/query_golden.txt pins them).
type routedQuery struct {
	r       *Router
	res     *Result
	traceID string
	// down and stale are the shards that faulted, or answered at an epoch
	// other than the root's, during this query; both sit out the rest of it.
	down, stale map[int]struct{}
	// frontier is the border hubs awaiting expansion; next accumulates the
	// replies' frontiers into the one after it. The router has no hub set, so
	// the next frontier is whatever the shards report, pruned by delta.
	frontier api.Vector
	next     sparse.Accumulator
	// delta is the root reply's delta threshold, the one the shards' kernels
	// apply.
	delta float64
	// pruned counts the border hubs dropped from the held frontier under
	// delta: by the root shard (its reply's HubsSkipped) for iteration 1, by
	// Expand for a later one. They never cross the wire, but count as frontier
	// hubs and as the next expansion's skipped hubs, as they do in the engine.
	pruned int
}

func (q *routedQuery) Frontier() int { return len(q.frontier.Nodes) + q.pruned }

// Root obtains iteration 0 from the query node's owner shard, falling back to
// the other shards in ascending order (shards inside their backoff window
// last, and skipped) — any shard can
// compute the prime PPV of any node from its graph copy, so a lost owner
// costs accuracy of the clip, not correctness.
//
// Epochs gate the fallback: a shard answering below the known cluster epoch
// is serving a graph that has since been updated, so its root is only used as
// a last resort (the freshest such answer, with the response flagged
// degraded) when no shard at the current epoch can answer at all.
func (q *routedQuery) Root(node graph.NodeID, estimate *sparse.Accumulator) (bool, error) {
	r := q.r
	span := IterationSpan{}
	root, rootShard, err := q.rootReply(node, &span)
	if err != nil {
		return false, err
	}
	// The root's epoch is the reference every further increment must match:
	// merging replies from different epochs would sum PPV mass of two
	// different graphs into one estimate.
	q.res.Epoch = root.Epoch
	if rootShard != r.part.Owner(node) {
		// A non-owner answered iteration 0; for a hub query node this means
		// the estimate starts from a freshly computed (unclipped) prime PPV
		// instead of the stored one, so the response is flagged degraded even
		// though the bound is exact.
		q.res.Degraded = true
	}
	estimate.AddSorted(root.Increment.Nodes, root.Increment.Scores)
	q.frontier, q.pruned, q.delta = root.Frontier, root.HubsSkipped, root.Delta
	q.res.Spans = append(q.res.Spans, span)
	return !root.FromIndex, nil
}

// rootOrder is the order in which Root asks shards for iteration 0: the
// owner, then the others by ascending index, shards outside their backoff
// window ahead of the rest with each group keeping that order. The former fill
// the slice from the front and the others from the back, so each shard's
// window is read once; reversing the back restores its order.
func (r *Router) rootOrder(owner int) []*shardClient {
	order := make([]*shardClient, len(r.shards))
	front, back := 0, len(order)
	place := func(s *shardClient) {
		if !s.tr.down() {
			order[front] = s
			front++
		} else {
			back--
			order[back] = s
		}
	}
	place(r.shards[owner])
	for i, s := range r.shards {
		if i != owner {
			place(s)
		}
	}
	slices.Reverse(order[back:])
	return order
}

func (q *routedQuery) rootReply(node graph.NodeID, span *IterationSpan) (*api.PartialResponse, int, error) {
	r := q.r
	order := r.rootOrder(r.part.Owner(node))
	clusterEpoch, epochKnown := r.ClusterEpoch()
	var (
		lastErr error
		behind  = make(map[int]*api.PartialResponse)
	)
	for _, s := range order {
		if !s.tr.admit() {
			lastErr = errDown(s)
			span.Legs = append(span.Legs, ShardLegSpan{Shard: s.index, Error: lastErr.Error(), Skipped: true})
			q.down[s.index] = struct{}{}
			continue
		}
		legStart := time.Now()
		resp, err := r.partial(s, &api.PartialRequest{Query: &node}, q.traceID)
		leg := ShardLegSpan{Shard: s.index, DurationMS: float64(time.Since(legStart)) / 1e6}
		if err != nil {
			leg.Error = err.Error()
		} else {
			leg.Epoch = resp.Epoch
		}
		span.Legs = append(span.Legs, leg)
		if err != nil {
			// Only a shard fault excludes the shard from the rest of this
			// query; a shed (overloaded) sub-request may well be accepted at
			// the next iteration.
			if shardFault(err) {
				q.down[s.index] = struct{}{}
			}
			lastErr = err
			continue
		}
		if epochKnown && resp.Epoch < clusterEpoch {
			// The shard is alive but behind the cluster epoch; keep its
			// answer only as a fallback and try to root on a current shard.
			behind[s.index] = resp
			continue
		}
		// Rooting at the cluster epoch (or discovering it): every shard that
		// answered below it is stale for the rest of this query.
		//lint:ordered per-shard set inserts are independent
		for i := range behind {
			q.stale[i] = struct{}{}
		}
		if r.numNodes.Load() == 0 {
			r.fetchShardStats(s, r.timeout)
		}
		return resp, s.index, nil
	}
	if len(behind) > 0 {
		// No shard serves the cluster epoch; degrade to the freshest graph
		// still reachable. Shards at that same (older) epoch remain usable
		// for expansion — mass only folds for epochs differing from the
		// root's.
		best, bestShard := (*api.PartialResponse)(nil), -1
		//lint:ordered argmax under the (epoch desc, shard index asc) total order; the winner is visit-order independent
		for i, resp := range behind {
			if best == nil || resp.Epoch > best.Epoch || (resp.Epoch == best.Epoch && i < bestShard) {
				best, bestShard = resp, i
			}
		}
		//lint:ordered per-shard epoch comparison with independent set inserts
		for i, resp := range behind {
			if resp.Epoch != best.Epoch {
				q.stale[i] = struct{}{}
			}
		}
		q.res.Degraded = true
		return best, bestShard, nil
	}
	return nil, -1, fmt.Errorf("cluster: no shard could answer iteration 0 for node %d: %w", node, lastErr)
}

// Expand retires the frontier with one scatter/gather round: each owning
// shard expands its share, the replies fold in ascending shard order, and the
// sum of their frontiers becomes the next one. That sum holds each hub's whole
// prefix, so it is pruned by delta as Engine.frontierOf prunes the engine's:
// prefixes above delta are kept, the positive rest only counted.
func (q *routedQuery) Expand(iter int, inc *sparse.Accumulator) (expanded, skipped int) {
	q.next.Reset()
	var span IterationSpan
	if len(q.frontier.Nodes) > 0 {
		expanded, skipped = q.gather(q.scatter(iter), inc, &span)
	}
	skipped += q.pruned
	q.pruned = 0
	q.res.Spans = append(q.res.Spans, span)

	q.frontier.Nodes, q.frontier.Scores = q.frontier.Nodes[:0], q.frontier.Scores[:0]
	for _, en := range q.next.Entries() {
		if en.Score > q.delta {
			q.frontier.Nodes = append(q.frontier.Nodes, en.Node)
			q.frontier.Scores = append(q.frontier.Scores, en.Score)
		} else if en.Score > 0 {
			q.pruned++
		}
	}
	return expanded, skipped
}

// legOutcome carries one shard sub-request's result into the fold loop.
type legOutcome struct {
	reply *api.PartialResponse
	err   error
	dur   time.Duration
}

// scatterSet is one scattered frontier: per-shard hub groups and the channels
// their outcomes arrive on.
type scatterSet struct {
	groups    []api.Vector
	chans     []chan legOutcome
	attempted []bool
}

// scatter partitions the frontier by hub owner and sends each group to its
// shard. A group is a filter of the sorted frontier, so it is born in the
// ascending hub order the wire form requires. Shards inside their backoff
// window (or already seen failing in this query) are skipped outright: their
// prefix mass is recorded as lost by the fold and the bound widens, keeping
// tail latency bounded by one request round instead of one timeout per down
// shard per iteration.
func (q *routedQuery) scatter(iter int) *scatterSet {
	r := q.r
	sc := &scatterSet{
		groups:    make([]api.Vector, len(r.shards)),
		chans:     make([]chan legOutcome, len(r.shards)),
		attempted: make([]bool, len(r.shards)),
	}
	for k, h := range q.frontier.Nodes {
		g := &sc.groups[r.part.Owner(h)]
		g.Nodes = append(g.Nodes, h)
		g.Scores = append(g.Scores, q.frontier.Scores[k])
	}
	for i := range sc.groups {
		group := &sc.groups[i]
		if len(group.Nodes) == 0 {
			continue
		}
		ch := make(chan legOutcome, 1)
		sc.chans[i] = ch
		s := r.shards[i]
		if _, seenStale := q.stale[i]; seenStale {
			// Epoch-divergent in this query: no request, its mass is folded
			// by the gather loop (without marking the shard down — it is
			// alive, just serving a different graph).
			ch <- legOutcome{}
			continue
		}
		if _, seenDown := q.down[i]; seenDown || !s.tr.admit() {
			ch <- legOutcome{err: errDown(s)}
			continue
		}
		sc.attempted[i] = true
		preq := &api.PartialRequest{Frontier: group, Iteration: iter}
		go func(s *shardClient) {
			legStart := time.Now()
			reply, err := r.partial(s, preq, q.traceID)
			ch <- legOutcome{reply: reply, err: err, dur: time.Since(legStart)}
		}(s)
	}
	return sc
}

// gather folds a scattered iteration's outcomes in ascending shard order:
// deterministic accumulation, so two routed queries over the same cluster
// state answer identically. The in-order receive still overlaps expansion
// with merging — shard i's reply is folded the moment it arrives once shards
// 0..i-1 are folded, while later shards are still computing. Increments merge
// into inc, the replies' frontiers into q.next.
//
// A reply whose index epoch differs from the query's reference epoch
// (res.Epoch, fixed at the root) is never merged: the shard evaluated against
// a different graph, so its mass folds into the bound exactly like a down
// shard's and the shard is skipped for the rest of this query. Unlike a
// fault, divergence opens no backoff window — the shard is alive and
// answering, just inconsistent with the cluster.
func (q *routedQuery) gather(sc *scatterSet, inc *sparse.Accumulator, span *IterationSpan) (expanded, skipped int) {
	res := q.res
	for i := range sc.groups {
		group := sc.groups[i]
		if len(group.Nodes) == 0 {
			continue
		}
		out := <-sc.chans[i]
		leg := ShardLegSpan{Shard: i, Hubs: len(group.Nodes), DurationMS: float64(out.dur) / 1e6, Skipped: !sc.attempted[i]}
		if out.err != nil {
			leg.Error = out.err.Error()
		} else if out.reply != nil {
			leg.Epoch = out.reply.Epoch
		} else if leg.Skipped {
			leg.Error = "epoch-divergent in this query"
		}
		span.Legs = append(span.Legs, leg)
		// foldGroup accounts a sub-request that contributed nothing: its
		// prefix mass goes unexpanded, the exact bound widens by exactly that
		// much, and the answer is degraded. The mass is a response field, so
		// it is summed in the group's ascending hub order.
		foldGroup := func() {
			for _, w := range group.Scores {
				res.LostFrontierMass += w
			}
			res.Degraded = true
		}
		_, seenStale := q.stale[i]
		switch {
		case seenStale && out.err == nil && out.reply == nil:
			// Skipped as epoch-divergent before the scatter: the bound
			// widens, the window and the down set stay untouched.
			foldGroup()
		case out.err != nil || out.reply == nil:
			// Only shard faults exclude the shard from the rest of the query
			// — a shed (overloaded) sub-request is retried at the next
			// iteration and never reported as a down shard.
			if shardFault(out.err) {
				q.down[i] = struct{}{}
			}
			foldGroup()
		case out.reply.Epoch != res.Epoch:
			// Epoch divergence: the shard answered from a different graph.
			// Its mass folds into the (still exact) bound and the shard sits
			// out the rest of this query; its window is untouched.
			q.stale[i] = struct{}{}
			foldGroup()
		default:
			reply := out.reply
			inc.AddSorted(reply.Increment.Nodes, reply.Increment.Scores)
			q.next.AddSorted(reply.Frontier.Nodes, reply.Frontier.Scores)
			expanded += reply.HubsExpanded
			skipped += reply.HubsSkipped
			for _, h := range reply.Unowned {
				// The shard refused mass we routed to it: partition
				// disagreement. The mass is lost (bound stays exact); surface
				// it as degradation.
				if k, ok := slices.BinarySearch(group.Nodes, h); ok {
					res.LostFrontierMass += group.Scores[k]
				}
				res.Degraded = true
			}
		}
	}
	return expanded, skipped
}

// ClusterUpdate is the outcome of one update fan-out across the cluster.
type ClusterUpdate struct {
	// Epoch is the cluster epoch after the fan-out: target epoch + 1 when at
	// least one shard applied the batch.
	Epoch uint64
	// Applied counts the shards that committed the batch; the rest are listed
	// with their failure in Results.
	Applied int
	Results []api.ShardUpdateResult
	// Duration is the end-to-end fan-out time.
	Duration time.Duration
}

// Degraded reports whether the fan-out left the cluster divergent: at least
// one shard did not apply the batch and now serves an older graph (its mass
// folds into every query's bound until it is restarted or rebuilt).
func (cu *ClusterUpdate) Degraded() bool { return cu.Applied < len(cu.Results) }

// Update fans one graph-update batch out to every shard, in ascending shard
// order under a single fan-out lock, so concurrent updates reach all shards
// as the same sequence — equal epochs then imply equal graphs. (The epoch is
// a counter, not a content hash: the implication holds as long as shards only
// receive batches through routers or replay their own logs. An operator
// posting substitute batches directly to one shard can fabricate an equal
// count for a different graph; see the README caveat.)
//
// Every leg is conditional (api.UpdateRequest.IfEpoch = the cluster epoch at
// fan-out start): a shard whose epoch does not match — it missed an earlier
// batch, took a direct local update, or restarted without its logs — rejects
// the batch instead of applying it out of sequence, and is reported failed.
// Failed shards do not abort the fan-out (the healthy majority moves on and
// the stragglers are folded out of query answers by their stale epoch); only
// a fan-out no shard applied returns an error.
//
// When req.IfEpoch is set by the caller it is checked against the cluster
// epoch before anything is sent, turning the whole fan-out into a
// compare-and-set on the cluster state.
func (r *Router) Update(req api.UpdateRequest) (*ClusterUpdate, error) {
	r.updateMu.Lock()
	defer r.updateMu.Unlock()
	start := time.Now()

	// Establish the target epoch from every shard's current stats: a shard
	// updated directly since the router last saw it must not pass as current.
	for _, s := range r.shards {
		r.fetchShardStats(s, r.timeout)
	}
	clusterEpoch, epochKnown := r.ClusterEpoch()
	if !epochKnown {
		return nil, &api.Error{Code: api.CodeUnavailable,
			Message: "cluster: cannot establish the cluster epoch: no shard reachable"}
	}
	if req.IfEpoch != nil && *req.IfEpoch != clusterEpoch {
		return nil, &api.Error{Code: api.CodeEpochMismatch,
			Message: fmt.Sprintf("cluster: at epoch %d, not %d", clusterEpoch, *req.IfEpoch)}
	}
	req.IfEpoch = &clusterEpoch

	cu := &ClusterUpdate{Epoch: clusterEpoch}
	var firstErr error
	for _, s := range r.shards {
		out := api.ShardUpdateResult{Shard: s.index, Target: s.target}
		epoch, known := s.knownEpoch()
		switch {
		case !known:
			out.ErrorCode = api.CodeUnavailable
			out.Error = "shard unreachable; epoch unknown"
		case epoch != clusterEpoch:
			// Applying on top of a divergent shard would interleave batches
			// out of order; leave it cleanly behind instead.
			out.Epoch = epoch
			out.ErrorCode = api.CodeEpochMismatch
			out.Error = fmt.Sprintf("shard at epoch %d, cluster at %d", epoch, clusterEpoch)
		default:
			resp, err := r.postUpdate(s, &req)
			if err != nil {
				var aerr *api.Error
				if errors.As(err, &aerr) {
					out.ErrorCode = aerr.Code
					out.Error = aerr.Message
				} else {
					out.ErrorCode = api.CodeUnavailable
					out.Error = err.Error()
				}
			} else {
				s.setEpoch(resp.Epoch)
				r.observeEpoch(resp.Epoch)
				r.raiseNodes(req.NumNodes)
				out.Applied = true
				out.Epoch = resp.Epoch
				out.AffectedHubs = resp.AffectedHubs
				cu.Applied++
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		cu.Results = append(cu.Results, out)
	}
	cu.Duration = time.Since(start)
	if cu.Applied == 0 {
		r.logger.Warn("update fan-out applied on no shard",
			"epoch", clusterEpoch, "shards", len(r.shards), "duration_ms", float64(cu.Duration)/1e6)
		if firstErr != nil {
			return nil, fmt.Errorf("cluster: update applied on no shard: %w", firstErr)
		}
		return nil, &api.Error{Code: api.CodeUnavailable, Message: "cluster: update applied on no shard"}
	}
	cu.Epoch = clusterEpoch + 1
	r.logger.Info("update fan-out applied",
		"epoch", cu.Epoch, "shards_applied", cu.Applied,
		"shards_failed", len(cu.Results)-cu.Applied, "degraded", cu.Degraded(),
		"duration_ms", float64(cu.Duration)/1e6)
	return cu, nil
}

// postUpdate performs one /v1/update call against shard s. Like a partial,
// the leg is observed and settles the shard's backoff window.
func (r *Router) postUpdate(s *shardClient, ureq *api.UpdateRequest) (_ *api.UpdateResponse, err error) {
	body, err := json.Marshal(ureq)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() {
		s.observe(time.Since(start), err != nil)
		s.tr.settle(start, err)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.target+"/v1/update", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eresp api.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&eresp); err == nil && eresp.Error.Code != "" {
			return nil, &eresp.Error
		}
		return nil, fmt.Errorf("cluster: %s/v1/update returned status %d", s.target, resp.StatusCode)
	}
	var uresp api.UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&uresp); err != nil {
		return nil, fmt.Errorf("cluster: decoding update response from %s: %w", s.target, err)
	}
	return &uresp, nil
}

// ShardStats is the router's view of one shard, for stats endpoints.
type ShardStats struct {
	Shard  int    `json:"shard"`
	Target string `json:"target"`
	// Healthy is false while the shard is inside its backoff window.
	Healthy bool `json:"healthy"`
	// Epoch is the shard's last observed index epoch; EpochKnown is false
	// until the router has seen any response from it.
	Epoch      uint64 `json:"epoch"`
	EpochKnown bool   `json:"epoch_known"`
	// Requests and MeanLatencyMS are read off the shard's
	// fastppv_shard_leg_seconds histogram child: its count, and its sum over
	// its count in milliseconds.
	Requests      int64   `json:"requests"`
	Failures      int64   `json:"failures"`
	Retries       int64   `json:"retries"`
	MeanLatencyMS float64 `json:"mean_latency_ms"`
	// Transport is the shard's wire-level view: stream health and frame/byte
	// counters.
	Transport TransportStats `json:"transport"`
}

// Stats summarizes the cluster as the router sees it.
type Stats struct {
	Nodes int `json:"nodes"`
	// Epoch is the cluster index epoch (the highest observed on any shard);
	// ShardsBehind counts shards whose last observed epoch is below it —
	// their answers are currently folded out of every query.
	Epoch         uint64 `json:"epoch"`
	ShardsBehind  int    `json:"shards_behind"`
	ShardsHealthy int    `json:"shards_healthy"`
	// SpeculationsSent and SpeculationHits are always zero: the router sends
	// each iteration once, after the previous one is folded. The fields
	// survive only because the frozen benchmark harness reads them
	// (bench/run.go:422).
	SpeculationsSent int64 `json:"-"`
	SpeculationHits  int64 `json:"-"`
	// WireBytesSent/Received total the bytes on the wire across all shard
	// transports, both directions.
	WireBytesSent     int64        `json:"wire_bytes_sent"`
	WireBytesReceived int64        `json:"wire_bytes_received"`
	Shards            []ShardStats `json:"shards"`
}

// Stats returns a point-in-time snapshot of shard health, epochs and latency.
func (r *Router) Stats() Stats {
	st := Stats{Nodes: r.NumNodes()}
	clusterEpoch, epochKnown := r.ClusterEpoch()
	st.Epoch = clusterEpoch
	for _, s := range r.shards {
		ss := ShardStats{
			Shard:     s.index,
			Target:    s.target,
			Healthy:   !s.tr.down(),
			Requests:  int64(s.leg.Count()),
			Failures:  s.failures.Load(),
			Retries:   s.retries.Load(),
			Transport: s.tr.Stats(),
		}
		st.WireBytesSent += ss.Transport.BytesSent
		st.WireBytesReceived += ss.Transport.BytesReceived
		ss.Epoch, ss.EpochKnown = s.knownEpoch()
		if epochKnown && ss.EpochKnown && ss.Epoch < clusterEpoch {
			st.ShardsBehind++
		}
		if ss.Requests > 0 {
			ss.MeanLatencyMS = s.leg.Sum() / float64(ss.Requests) * 1e3
		}
		if ss.Healthy {
			st.ShardsHealthy++
		}
		st.Shards = append(st.Shards, ss)
	}
	return st
}

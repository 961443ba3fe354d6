// router.go implements the horizontal-sharding half of this package: a
// scatter-gather router over fastppvd shards that each serve one hub
// partition of the index (see internal/core.Partition).
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
// so responses stay deterministic. The estimate only
// accumulates non-negative tour mass, so the accuracy-aware bound
// 1 - sum(estimate) remains exact under any failure: a down or slow shard
// simply leaves its share of the mass unexpanded and the answer is returned
// with a correctly widened error bound instead of an error.
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
	"sort"
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
	// Client optionally overrides the HTTP client used for the shards' plain
	// HTTP surface: health probes, stats reads and update fan-out legs.
	Client *http.Client
	// RequestTimeout bounds one partial sub-request; zero means 10s.
	RequestTimeout time.Duration
	// Transport must be "" or TransportBinary. There is one shard transport;
	// the field survives only because the frozen benchmark harness sets it.
	Transport string
	// HealthInterval is the period of the background shard health probe; zero
	// means 2s, negative disables the probe (health then only changes
	// passively, on request outcomes).
	HealthInterval time.Duration
	// Registry optionally receives the router's metrics (per-shard leg
	// latency, query outcomes, and a scrape-time collector for epochs and
	// health); nil records into a private, unexported registry.
	Registry *telemetry.Registry
	// LegLatencyBuckets overrides the bucket bounds of the shard-leg latency
	// histogram family; nil means telemetry.DefLatencyBuckets. Bounds must be
	// strictly ascending.
	LegLatencyBuckets []float64
	// Logger optionally receives structured router logs (health transitions,
	// epoch raises, update fan-outs, traced queries); nil discards them.
	Logger *slog.Logger
}

// Router fans PPV queries out across hub-partitioned shards and aggregates
// the partial results. It is safe for concurrent use.
type Router struct {
	part    core.Partition
	shards  []*shardClient
	client  *http.Client
	timeout time.Duration
	// passive is set when the background health probe is disabled: unhealthy
	// shards are then still attempted by expand (a request outcome is the
	// only thing that can restore them), trading bounded tail latency for
	// liveness.
	passive bool
	logger  *slog.Logger
	met     routerMetrics

	// specSent and specHits count speculative pre-sends and the ones a query
	// consumed; Stats (and through it the scrape-time collector) reads them.
	specSent atomic.Int64
	specHits atomic.Int64

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

	stopHealth chan struct{}
	healthWG   sync.WaitGroup
	closeOnce  sync.Once
}

// shardClient is the router's view of one shard.
type shardClient struct {
	index   int
	target  string
	healthy atomic.Bool
	// epoch is the shard's last observed index epoch; -1 while unknown.
	epoch atomic.Int64

	requests  atomic.Int64
	failures  atomic.Int64
	retries   atomic.Int64
	latencyUS atomic.Int64
	maxUS     atomic.Int64

	// leg is the shard's pre-resolved latency histogram child, so the hot
	// path never touches the registry's label map.
	leg *telemetry.Histogram

	// tr carries this shard's partial sub-requests.
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
	s.requests.Add(1)
	if failed {
		s.failures.Add(1)
	}
	s.leg.ObserveDuration(d)
	us := d.Microseconds()
	s.latencyUS.Add(us)
	for {
		old := s.maxUS.Load()
		if us <= old || s.maxUS.CompareAndSwap(old, us) {
			break
		}
	}
}

// NewRouter creates a router over the given shard targets, probes each shard
// once to seed its health state, and starts the background health loop. Call
// Close when done. Shards that are still starting are fine: they are marked
// unhealthy now and picked up by the next probe.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one shard target")
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		// The stdlib zero client has no timeout and keeps only 2 idle
		// connections per host. Size the idle pool to the fan-out width (an
		// update fan-out and a probe round both touch every shard) and give
		// every call a real deadline.
		client = &http.Client{
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
		part:       core.Partition{Shards: len(cfg.Targets)},
		client:     client,
		timeout:    cfg.RequestTimeout,
		passive:    cfg.HealthInterval < 0,
		logger:     logger,
		met:        newRouterMetrics(reg, cfg.LegLatencyBuckets),
		stopHealth: make(chan struct{}),
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
	r.probeAll()
	if cfg.HealthInterval > 0 {
		r.healthWG.Add(1)
		go func() {
			defer r.healthWG.Done()
			tick := time.NewTicker(cfg.HealthInterval)
			defer tick.Stop()
			for {
				select {
				case <-r.stopHealth:
					return
				case <-tick.C:
					r.probeAll()
				}
			}
		}()
	}
	return r, nil
}

// Close stops the background health loop and tears down shard transports.
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		close(r.stopHealth)
		for _, s := range r.shards {
			s.tr.Close()
		}
	})
	r.healthWG.Wait()
}

// Shards returns the number of shards the router fans out to.
func (r *Router) Shards() int { return len(r.shards) }

// NumNodes returns the node count of the served graph, discovered from shard
// stats; zero while no shard has been reachable yet.
func (r *Router) NumNodes() int { return int(r.numNodes.Load()) }

// ClusterEpoch returns the highest index epoch observed on any shard, and
// whether any epoch has been observed yet. The serving layer keys its result
// cache on it, so an accepted update instantly retires every pre-update entry.
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

// setShardHealth flips a shard's health state, logging the transition (only
// actual transitions: steady-state probes are silent).
func (r *Router) setShardHealth(s *shardClient, healthy bool) {
	if s.healthy.Swap(healthy) != healthy {
		r.logger.Info("shard health changed",
			"shard", s.index, "target", s.target, "healthy", healthy)
	}
}

// probeAll health-checks every shard concurrently (a down shard costs one
// probe timeout, not one per shard per round) and, while the graph size is
// still unknown, discovers it from the first healthy shard's stats.
func (r *Router) probeAll() {
	var wg sync.WaitGroup
	for _, s := range r.shards {
		wg.Add(1)
		go func(s *shardClient) {
			defer wg.Done()
			r.setShardHealth(s, r.probe(s))
		}(s)
	}
	wg.Wait()
	if r.numNodes.Load() == 0 {
		for _, s := range r.shards {
			if !s.healthy.Load() {
				continue
			}
			if n, _, ok := r.fetchShardStats(s); ok && n > 0 {
				r.numNodes.Store(int64(n))
				break
			}
		}
	}
}

// probe reports whether the shard answers its health endpoint.
func (r *Router) probe(s *shardClient) bool {
	timeout := r.timeout
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.target+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// fetchShardStats reads the shard's /v1/stats for the graph size and index
// epoch, recording the epoch on the shard (and raising the cluster epoch).
func (r *Router) fetchShardStats(s *shardClient) (nodes int, epoch uint64, ok bool) {
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.target+"/v1/stats", nil)
	if err != nil {
		return 0, 0, false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, 0, false
	}
	var st struct {
		Graph struct {
			Nodes int `json:"nodes"`
		} `json:"graph"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, false
	}
	s.setEpoch(st.Epoch)
	r.observeEpoch(st.Epoch)
	return st.Graph.Nodes, st.Epoch, true
}

// shardFault reports whether a failed partial call indicates the shard
// itself is unusable (transport failure, internal error, persistent retry
// condition) rather than a property of this one request. Admission rejection
// (overloaded) and client-class errors must not flip shard health: one shed
// sub-request under a load spike would otherwise disable the shard for every
// query until the next probe.
func shardFault(err error) bool {
	var aerr *api.Error
	if errors.As(err, &aerr) {
		switch aerr.Code {
		case api.CodeBadRequest, api.CodeOverloaded, api.CodeConflict, api.CodeUnsupported,
			api.CodeStaleSpeculation:
			return false
		}
	}
	return true
}

// partial performs one partial sub-request against shard s over its
// transport, retrying once when the shard reports the transient CodeRetry
// condition (its index descriptor was swapped mid-read, e.g. by a compaction
// or restart). A shard-fault failure marks the shard unhealthy (the
// background probe restores it); a success marks it healthy, which is what
// brings a shard back in passive mode. A cancelled context (an abandoned
// speculative pre-send) is not a shard outcome at all: neither latency nor
// health is recorded for it.
func (r *Router) partial(ctx context.Context, s *shardClient, preq *api.PartialRequest, traceID string) (*api.PartialResponse, error) {
	start := time.Now()
	resp, err := s.tr.Partial(ctx, preq, traceID)
	if aerr, ok := err.(*api.Error); ok && aerr.Code == api.CodeRetry {
		s.retries.Add(1)
		resp, err = s.tr.Partial(ctx, preq, traceID)
	}
	if err != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	s.observe(time.Since(start), err != nil)
	if err != nil {
		if shardFault(err) {
			r.setShardHealth(s, false)
		}
		return nil, err
	}
	if resp.Shards != len(r.shards) || resp.Shard != s.index {
		r.setShardHealth(s, false)
		return nil, fmt.Errorf("cluster: target %s answers as shard %d/%d, expected %d/%d: shard map misconfigured",
			s.target, resp.Shard, resp.Shards, s.index, len(r.shards))
	}
	s.setEpoch(resp.Epoch)
	r.observeEpoch(resp.Epoch)
	r.setShardHealth(s, true)
	return resp, nil
}

// Result is the outcome of one routed cluster query: a core.Result — Estimate
// and L1ErrorBound have the single-node semantics, the bound being the exact
// L1 distance budget 1 - sum(estimate), valid even when shards were lost
// mid-query because their unexpanded mass is simply part of it — plus what
// only a cluster can report.
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
	// stopping condition. It is summed in ascending hub order within
	// ascending shard order, so equal degraded queries report equal bits.
	LostFrontierMass float64
	// SpeculationsSent counts iterations whose shard requests were pre-sent
	// before the previous iteration's fold and stop check ran;
	// SpeculationHits counts how many of those pre-sends the loop actually
	// consumed (the rest were cancelled by an early stop). Speculation never
	// changes the answer — a consumed pre-send carries bit-identical requests
	// to what the loop would have sent.
	SpeculationsSent int
	SpeculationHits  int
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
	return r.QueryTrace(q, stop, "")
}

// QueryTrace is Query with an end-to-end trace ID: the ID travels inside
// every shard sub-request's frame — shards key their logs on it — and the
// returned result's Spans tie the per-iteration timings back to the same ID.
func (r *Router) QueryTrace(q graph.NodeID, stop core.StopCondition, traceID string) (*Result, error) {
	res := &Result{}
	src := &routedQuery{
		r: r, res: res, traceID: traceID,
		down: make(map[int]struct{}), stale: make(map[int]struct{}),
	}
	qs, err := core.StartQuery(q, src)
	if err != nil {
		return nil, err
	}
	res.Result = *qs.Run(stop)
	qs.Close()
	// The stop rules may have fired with the next iteration already pre-sent:
	// cancel it — the transports withdraw it shard-side — so early stopping
	// costs at most one wasted pre-send and never waits on one.
	src.discardSpec()
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
// which shards are down or epoch-divergent for this query, the speculative
// pre-send, the per-leg spans — and none of the schedule does.
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
	// the next frontier is whatever the shards report.
	frontier api.Vector
	next     sparse.Accumulator
	// spec holds the one in-flight speculative pre-send: the next iteration's
	// shard requests, scattered before the schedule has decided to run it.
	spec *speculation
}

func (q *routedQuery) Frontier() int { return len(q.frontier.Nodes) }

func (q *routedQuery) discardSpec() {
	if q.spec != nil {
		q.spec.cancel()
		q.spec = nil
	}
}

// Root obtains iteration 0 from the query node's owner shard, falling back to
// the other shards in ascending order (healthy ones first) — any shard can
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
	q.frontier = root.Frontier
	q.res.Spans = append(q.res.Spans, span)
	return !root.FromIndex, nil
}

func (q *routedQuery) rootReply(node graph.NodeID, span *IterationSpan) (*api.PartialResponse, int, error) {
	r := q.r
	owner := r.part.Owner(node)
	order := make([]*shardClient, 0, len(r.shards))
	order = append(order, r.shards[owner])
	for i, s := range r.shards {
		if i != owner {
			order = append(order, s)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		return order[i].healthy.Load() && !order[j].healthy.Load()
	})
	clusterEpoch, epochKnown := r.ClusterEpoch()
	var (
		lastErr error
		behind  = make(map[int]*api.PartialResponse)
	)
	for _, s := range order {
		legStart := time.Now()
		resp, err := r.partial(context.Background(), s, &api.PartialRequest{Query: &node}, q.traceID)
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

// Expand retires the frontier with one scatter/gather round — the pre-sent
// one when the previous Expand speculated, which it did exactly when the
// schedule said this iteration may run — and, the next frontier being fully
// known before this iteration's mass is folded into the estimate, pre-sends it
// in turn so the shards overlap their expansion with the schedule's fold and
// stop bookkeeping. The source that pre-sent a frontier is the one holding it,
// and the schedule's iterations are consecutive, so a pending pre-send is
// always for exactly this frontier and this iteration: consuming it is no
// decision at all — no hash compare, no statistics.
func (q *routedQuery) Expand(iter int, more bool, inc *sparse.Accumulator) (expanded, skipped int) {
	r := q.r
	spec := q.spec
	q.spec = nil
	var sc *scatterSet
	if spec != nil {
		sc = spec.sc
		q.res.SpeculationHits++
		r.specHits.Add(1)
	} else {
		sc = q.scatter(context.Background(), iter, false)
	}
	q.next.Reset()
	span := IterationSpan{Speculative: sc.speculative}
	expanded, skipped = q.gather(sc, inc, &span)
	q.res.Spans = append(q.res.Spans, span)
	if spec != nil {
		// Every leg of the consumed pre-send has answered by now; release
		// its context.
		spec.cancel()
	}

	q.frontier.Nodes, q.frontier.Scores = q.frontier.Nodes[:0], q.frontier.Scores[:0]
	for _, en := range q.next.Entries() {
		q.frontier.Nodes = append(q.frontier.Nodes, en.Node)
		q.frontier.Scores = append(q.frontier.Scores, en.Score)
	}
	if more && len(q.frontier.Nodes) > 0 {
		sctx, cancel := context.WithCancel(context.Background())
		q.spec = &speculation{sc: q.scatter(sctx, iter+1, true), cancel: cancel}
		q.res.SpeculationsSent++
		r.specSent.Add(1)
	}
	return expanded, skipped
}

// speculation is one pre-sent iteration: its in-flight scatter and the cancel
// that withdraws it shard-side.
type speculation struct {
	sc     *scatterSet
	cancel context.CancelFunc
}

// legOutcome carries one shard sub-request's result into the fold loop.
type legOutcome struct {
	reply *api.PartialResponse
	err   error
	dur   time.Duration
}

// scatterSet is one scattered frontier: per-shard hub groups and the channels
// their outcomes arrive on (buffered, so an abandoned scatter never blocks a
// leg goroutine).
type scatterSet struct {
	groups      []api.Vector
	chans       []chan legOutcome
	attempted   []bool
	speculative bool
}

// scatter partitions the frontier by hub owner and sends each group to its
// shard. A group is a filter of the sorted frontier, so it is born in the
// ascending hub order the wire form requires. Shards currently marked
// unhealthy (or already seen failing in this query) are skipped outright:
// their prefix mass is recorded as lost by the fold and the bound widens,
// keeping tail latency bounded by one request round instead of one timeout per
// down shard per iteration. In passive mode (no background probe) an unhealthy
// shard is attempted anyway — a successful request is then the only path back
// to healthy.
//
// A speculative scatter tags every request with the hash of its frontier
// vector; cancelling ctx withdraws not-yet-computed requests shard-side.
func (q *routedQuery) scatter(ctx context.Context, iter int, speculative bool) *scatterSet {
	r := q.r
	sc := &scatterSet{
		groups:      make([]api.Vector, len(r.shards)),
		chans:       make([]chan legOutcome, len(r.shards)),
		attempted:   make([]bool, len(r.shards)),
		speculative: speculative,
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
		_, seenDown := q.down[i]
		if seenDown || (!s.healthy.Load() && !r.passive) {
			ch <- legOutcome{err: fmt.Errorf("cluster: shard %d (%s) is down", i, s.target)}
			continue
		}
		sc.attempted[i] = true
		preq := &api.PartialRequest{Frontier: group, Iteration: iter}
		if speculative {
			preq.Speculative = true
			preq.FrontierHash = group.Hash()
		}
		go func(s *shardClient) {
			legStart := time.Now()
			reply, err := r.partial(ctx, s, preq, q.traceID)
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
// fault, divergence does not mark the shard unhealthy — it is alive and
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
			// widens, health and the down set stay untouched.
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
			// out the rest of this query; health is untouched.
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

	// Establish the target epoch: every shard whose epoch is unknown (no
	// query has touched it yet) is asked directly.
	for _, s := range r.shards {
		if _, known := s.knownEpoch(); !known {
			r.fetchShardStats(s)
		}
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
				if shardFault(err) {
					r.setShardHealth(s, false)
				}
			} else {
				s.setEpoch(resp.Epoch)
				r.observeEpoch(resp.Epoch)
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

// postUpdate performs one /v1/update call against shard s.
func (r *Router) postUpdate(s *shardClient, ureq *api.UpdateRequest) (*api.UpdateResponse, error) {
	body, err := json.Marshal(ureq)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.target+"/v1/update", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		s.observe(time.Since(start), true)
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.observe(time.Since(start), true)
		var eresp api.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&eresp); err == nil && eresp.Error.Code != "" {
			return nil, &eresp.Error
		}
		return nil, fmt.Errorf("cluster: %s/v1/update returned status %d", s.target, resp.StatusCode)
	}
	var uresp api.UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&uresp); err != nil {
		s.observe(time.Since(start), true)
		return nil, fmt.Errorf("cluster: decoding update response from %s: %w", s.target, err)
	}
	s.observe(time.Since(start), false)
	return &uresp, nil
}

// ShardStats is the router's view of one shard, for stats endpoints.
type ShardStats struct {
	Shard   int    `json:"shard"`
	Target  string `json:"target"`
	Healthy bool   `json:"healthy"`
	// Epoch is the shard's last observed index epoch; EpochKnown is false
	// until the router has seen any response from it.
	Epoch         uint64  `json:"epoch"`
	EpochKnown    bool    `json:"epoch_known"`
	Requests      int64   `json:"requests"`
	Failures      int64   `json:"failures"`
	Retries       int64   `json:"retries"`
	MeanLatencyMS float64 `json:"mean_latency_ms"`
	MaxLatencyMS  float64 `json:"max_latency_ms"`
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
	// SpeculationsSent counts iterations pre-sent before their go/no-go
	// decision; SpeculationHits counts pre-sends consumed. The difference is
	// work cancelled by early stops. WireBytesSent/Received total the bytes
	// on the wire across all shard transports, both directions.
	SpeculationsSent  int64        `json:"speculations_sent"`
	SpeculationHits   int64        `json:"speculation_hits"`
	WireBytesSent     int64        `json:"wire_bytes_sent"`
	WireBytesReceived int64        `json:"wire_bytes_received"`
	Shards            []ShardStats `json:"shards"`
}

// Stats returns a point-in-time snapshot of shard health, epochs and latency.
func (r *Router) Stats() Stats {
	st := Stats{
		Nodes:            r.NumNodes(),
		SpeculationsSent: r.specSent.Load(),
		SpeculationHits:  r.specHits.Load(),
	}
	clusterEpoch, epochKnown := r.ClusterEpoch()
	st.Epoch = clusterEpoch
	for _, s := range r.shards {
		ss := ShardStats{
			Shard:     s.index,
			Target:    s.target,
			Healthy:   s.healthy.Load(),
			Requests:  s.requests.Load(),
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
			ss.MeanLatencyMS = float64(s.latencyUS.Load()) / float64(ss.Requests) / 1e3
		}
		ss.MaxLatencyMS = float64(s.maxUS.Load()) / 1e3
		if ss.Healthy {
			st.ShardsHealthy++
		}
		st.Shards = append(st.Shards, ss)
	}
	return st
}

// Healthy reports whether at least one shard is currently reachable.
func (r *Router) Healthy() bool {
	for _, s := range r.shards {
		if s.healthy.Load() {
			return true
		}
	}
	return false
}

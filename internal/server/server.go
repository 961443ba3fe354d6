// Package server is the online query-serving subsystem of the FastPPV
// reproduction: a long-lived HTTP front end over a precomputed core.Engine.
//
// The engine answers one query at a time as fast as scheduled approximation
// allows; this package adds the layers a production deployment needs on top:
//
//   - a sharded LRU result cache with a byte budget, keyed by the query node,
//     the accuracy knobs (eta, target error) and the prefix class of top, so
//     skewed workloads are served from memory;
//   - request coalescing, so concurrent identical queries share a single
//     engine computation instead of stampeding;
//   - admission control: at most MaxConcurrent computations run at once,
//     each at the eta it asked for, and a request that finds no slot within
//     QueueWait is shed with the retryable 503 "overloaded" instead of
//     queueing unboundedly;
//   - incremental graph updates with targeted cache invalidation driven by
//     the reach list each cached answer recorded;
//   - per-endpoint latency histograms (one family, rendered on /metrics and
//     summarized on the stats endpoint).
//
// Response bodies are a deterministic function of the query parameters and
// the graph state: the engine expands border hubs in a fixed order, so a
// cached or coalesced response is byte-identical to a cold computation at the
// same eta. Volatile serving metadata (cache disposition, compute time)
// travels in X-Fastppv-* headers, never in the body.
//
// A Server fronts one of two backends (backend.go) with the same caching,
// coalescing and admission layers, and one compute path over either:
//
//   - a local core.Engine (New) — the single-node and shard configurations;
//     either also serves GET /v1/stream, the binary partial-query stream of
//     the cluster protocol (internal/api, stream.go);
//   - a cluster.Router (NewRouter) — the scatter-gather front of a
//     hub-partitioned cluster, where each query fans out to the shards and
//     the exact error bound is composed from their partial answers.
//
// Errors are structured (internal/api): every non-2xx body carries
// {"error": {"code", "message"}} so routers and load generators can
// distinguish client mistakes, admission rejection, transient retry
// conditions and unsupported endpoints machine-readably.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fastppv/internal/api"
	"fastppv/internal/cluster"
	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/lru"
	"fastppv/internal/ppvindex"
	"fastppv/internal/querylog"
	"fastppv/internal/sparse"
	"fastppv/internal/telemetry"
)

// defaultTopK and maxTopK bound the number of ranked results returned: a
// request without top gets defaultTopK, and a larger top is clamped to
// maxTopK.
const (
	defaultTopK = 10
	maxTopK     = 1000
)

// Config tunes the serving layers. The zero value serves with sensible
// defaults for a mid-sized graph.
type Config struct {
	// DefaultEta is the number of online iterations used when a request does
	// not specify eta; zero means core.DefaultIterations.
	DefaultEta int
	// MaxEta caps the eta a client may request; zero means 8.
	MaxEta int
	// CacheBytes is the result cache budget; zero means 64 MiB. Negative
	// disables caching (concurrent identical queries still coalesce).
	CacheBytes int64
	// MaxConcurrent bounds concurrent computations; zero means GOMAXPROCS
	// for an engine (its work is CPU-bound) and GOMAXPROCS + max(8,
	// 4·GOMAXPROCS) for a router (its work is mostly waiting on shard legs).
	MaxConcurrent int
	// QueueWait is how long a request waits for a computation slot before
	// being shed with 503 overloaded; zero means 25ms. Negative means no
	// waiting.
	QueueWait time.Duration
	// WarmHubs, when positive, preloads the prime PPVs of the K hottest hubs
	// (by out-degree, the cheap popularity proxy available in every mode)
	// through the index's block cache at startup, so a freshly started
	// disk-serving shard does not answer its first requests at cold-read
	// latency. It is a no-op for in-memory indexes and cache-less stores.
	WarmHubs int
	// QueryLog optionally receives one record per completed query (and, when
	// it was opened with replay before the server started, drives log-based
	// cache warming instead of the out-degree heuristic). The server appends
	// to it but does not own it: the caller opens and closes the log.
	QueryLog *querylog.Log
	// SlowThreshold is the compute duration past which a query's trace is
	// retained unconditionally in the debug ring (GET /v1/debug/slow); zero
	// means 250ms, negative disables the slow rule (degraded and sampled
	// capture still apply).
	SlowThreshold time.Duration
	// TraceSampleEvery retains every Nth computed query's trace regardless of
	// latency, so the ring always holds a background sample of healthy
	// traffic; zero means 128, negative disables sampling.
	TraceSampleEvery int
	// TraceRetain is the capacity of the retained-trace ring; zero means 256.
	TraceRetain int
	// SLOLatency and SLOBound are the serving objectives: a request is a bad
	// SLO event when it fails, exceeds SLOLatency, or answers with an L1
	// error bound above SLOBound. Zero leaves the respective objective (and,
	// if both are zero, SLO accounting entirely) off.
	SLOLatency time.Duration
	SLOBound   float64
	// Registry optionally receives the server's metrics and is served on
	// GET /metrics; nil creates a private registry (the endpoint still works).
	// In router mode, pass the same registry to the cluster.RouterConfig so
	// shard-leg and epoch metrics land on the same scrape surface.
	Registry *telemetry.Registry
	// Logger optionally receives structured request logs (traced queries,
	// partial sub-requests); nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.DefaultEta == 0 {
		c.DefaultEta = core.DefaultIterations
	}
	if c.MaxEta == 0 {
		c.MaxEta = 8
	}
	if c.DefaultEta > c.MaxEta {
		c.DefaultEta = c.MaxEta
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueWait == 0 {
		c.QueueWait = 25 * time.Millisecond
	}
	if c.QueueWait < 0 {
		c.QueueWait = 0
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 250 * time.Millisecond
	}
	if c.SlowThreshold < 0 {
		c.SlowThreshold = 0
	}
	if c.TraceSampleEvery == 0 {
		c.TraceSampleEvery = 128
	}
	if c.TraceSampleEvery < 0 {
		c.TraceSampleEvery = 0
	}
	if c.TraceRetain <= 0 {
		c.TraceRetain = 256
	}
	return c
}

// Server wraps a precomputed engine (or a cluster router) with the serving
// layers. Create one with New or NewRouter and mount Handler on an
// http.Server.
type Server struct {
	cfg     Config
	engine  *core.Engine    // nil in router mode
	router  *cluster.Router // nil in engine mode
	be      backend         // engine or router, for everything both can answer
	cache   *Cache
	adm     *admission
	streams *streamSet // open binary partial streams (engine mode)

	// updateMu serializes engine updates (applyUpdate); nothing else takes
	// it, since queries read the engine's published version.
	updateMu sync.Mutex

	registry *telemetry.Registry
	metrics  *serverMetrics
	logger   *slog.Logger
	started  time.Time
	updates  atomic.Int64
	warmed   WarmStats

	// qlog receives one record per completed query; nil when no query log is
	// configured. traces is the always-on retained-trace ring; sampleCtr
	// drives its every-Nth sampling. slo is nil unless an objective is set.
	qlog      *querylog.Log
	traces    *traceRing
	sampleCtr atomic.Uint64
	slo       *sloTracker
	// inconsistent is set when an update's commit fails: the engine keeps
	// its version, but a restart may replay the batch. Health checks fail
	// until an operator intervenes (restart or full Precompute).
	inconsistent atomic.Bool
}

// WarmStats reports the startup block-cache warming pass.
type WarmStats struct {
	// Requested is the number of hub blocks warming asked for: in heuristic
	// mode Config.WarmHubs clamped to the hubs this index actually holds, in
	// querylog mode the block loads the replayed queries made.
	Requested int `json:"requested"`
	// Warmed is how many hub blocks the block cache holds after the pass (in
	// heuristic mode, of the requested hubs); zero when the index has no
	// cache to warm (in-memory, or caching disabled).
	Warmed     int     `json:"warmed"`
	DurationMS float64 `json:"duration_ms"`
	// Source says what chose the hubs: "querylog" (frequency-decayed top
	// sources replayed from the persistent query log and run as queries,
	// which load the blocks they read) or "heuristic" (hottest hubs by
	// out-degree — the fallback when no log is configured, the log is empty,
	// or the index has no block cache to fill).
	Source string `json:"source,omitempty"`
	// Sources is how many replayed top sources drove the querylog pass.
	Sources int `json:"sources,omitempty"`
}

func newServer(cfg Config) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = telemetry.NopLogger()
	}
	s := &Server{
		cfg:      cfg,
		cache:    NewCache(cfg.CacheBytes, cacheShards),
		adm:      newAdmission(cfg.MaxConcurrent, cfg.QueueWait),
		streams:  newStreamSet(),
		registry: reg,
		metrics:  newServerMetrics(reg),
		logger:   logger,
		started:  time.Now(),
		qlog:     cfg.QueryLog,
		traces:   newTraceRing(cfg.TraceRetain),
		slo:      newSLOTracker(cfg.SLOLatency, cfg.SLOBound),
	}
	return s
}

// New creates a Server over engine, which must already be precomputed.
func New(engine *core.Engine, cfg Config) (*Server, error) {
	if engine == nil {
		return nil, errors.New("server: nil engine")
	}
	if !engine.Precomputed() {
		return nil, errors.New("server: engine not precomputed")
	}
	s := newServer(cfg.withDefaults())
	s.engine = engine
	s.be = engineBackend{s}
	s.registerCollectors(s.registry)
	s.warm()
	return s, nil
}

// NewRouter creates a Server that answers queries by scatter-gathering them
// across the shards behind rt, reusing the same result cache, coalescing and
// admission layers as the single-node server. The compaction and stream
// endpoints answer with the structured "unsupported" error in this mode.
func NewRouter(rt *cluster.Router, cfg Config) (*Server, error) {
	if rt == nil {
		return nil, errors.New("server: nil router")
	}
	if cfg.MaxConcurrent == 0 {
		procs := runtime.GOMAXPROCS(0)
		cfg.MaxConcurrent = procs + max(8, 4*procs)
	}
	s := newServer(cfg.withDefaults())
	s.router = rt
	s.be = routerBackend{rt}
	s.registerCollectors(s.registry)
	return s, nil
}

// hubWarmer is implemented by index stores that can preload hub blocks into
// a cache (ppvindex.Store).
type hubWarmer interface {
	WarmHubs(hubs []graph.NodeID) int
}

// warm preloads hub prime PPVs through the index's block cache at startup.
// When the index has a block cache and a replayed query log is available, the
// log is the workload oracle: the frequency-decayed top sources are run
// through the engine (at the default eta), loading exactly the blocks the
// observed workload reads. Otherwise it falls back to the static heuristic:
// the Config.WarmHubs hottest hubs by out-degree, ties broken by id for
// determinism.
func (s *Server) warm() {
	if s.cfg.WarmHubs <= 0 {
		return
	}
	start := time.Now()
	if s.qlog != nil && s.qlog.Records() > 0 {
		if st, ok := s.warmFromLog(s.qlog.TopSources(s.cfg.WarmHubs)); ok {
			s.warmed = st
			s.warmed.DurationMS = float64(time.Since(start)) / 1e6
			return
		}
	}
	g := s.engine.Graph()
	hubs := append([]graph.NodeID(nil), s.engine.Index().Hubs()...)
	sort.Slice(hubs, func(i, j int) bool {
		di, dj := g.OutDegree(hubs[i]), g.OutDegree(hubs[j])
		if di != dj {
			return di > dj
		}
		return hubs[i] < hubs[j]
	})
	if len(hubs) > s.cfg.WarmHubs {
		hubs = hubs[:s.cfg.WarmHubs]
	}
	s.warmed.Source = "heuristic"
	s.warmed.Requested = len(hubs)
	if w, ok := s.engine.Index().(hubWarmer); ok {
		s.warmed.Warmed = w.WarmHubs(hubs)
	}
	s.warmed.DurationMS = float64(time.Since(start)) / 1e6
}

// warmFromLog runs the top replayed sources as queries, keeping nothing: they
// pull the blocks the workload reads through the block cache, whose counters
// then say what the pass did. Returns ok=false when the index has no block
// cache or no replayed source is still a valid node (e.g. the log belongs to
// another graph), in which case the caller falls back to the heuristic.
func (s *Server) warmFromLog(sources []graph.NodeID) (WarmStats, bool) {
	bcs, ok := s.engine.Index().(blockCacheStatser)
	if !ok {
		return WarmStats{}, false
	}
	before, enabled := bcs.BlockCacheStats()
	if !enabled {
		return WarmStats{}, false
	}
	g := s.engine.Graph()
	ran := 0
	stop := core.StopCondition{MaxIterations: s.cfg.DefaultEta}
	for _, src := range sources {
		if src < 0 || int(src) >= g.NumNodes() {
			continue
		}
		qs, err := s.engine.NewQuery(src)
		if err != nil {
			continue
		}
		qs.Serve(stop, func([]sparse.Entry) {})
		ran++
	}
	if ran == 0 {
		return WarmStats{}, false
	}
	after, _ := bcs.BlockCacheStats()
	return WarmStats{Source: "querylog", Sources: ran, Requested: int(after.Loads - before.Loads), Warmed: after.Entries}, true
}

// Handler returns the HTTP handler exposing the API. GET /metrics and
// GET /healthz are deliberately mounted outside instrument: scrapes and
// health probes are periodic background traffic whose latency would only
// dilute the request histograms, and keeping them out guarantees the metrics
// surface can never instrument itself.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/ppv", s.instrument("ppv", s.handlePPV))
	mux.HandleFunc("POST /v1/ppv/batch", s.instrument("batch", s.handleBatch))
	mux.HandleFunc("POST /v1/update", s.instrument("update", s.handleUpdate))
	mux.HandleFunc("POST /v1/compact", s.instrument("compact", s.handleCompact))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.Handle("GET /metrics", s.registry.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealth)
	// The debug surface (retained traces) is operator traffic like /metrics:
	// mounted outside instrument so inspecting an incident never perturbs the
	// request histograms it is being used to explain.
	mux.HandleFunc("GET /v1/debug/slow", s.handleDebugSlow)
	mux.HandleFunc("GET /v1/debug/trace/{id}", s.handleDebugTrace)
	// The stream endpoint hijacks its connection and lives for the life of a
	// router process; instrumenting it would record one meaningless
	// hours-long latency sample, so it stays outside instrument.
	mux.HandleFunc("GET "+api.StreamPath, s.handleStream)
	return mux
}

// instrumentedEndpoints is the closed allowlist of endpoint label values.
// instrument refuses any name outside it at wiring time, so the "endpoint"
// label can never grow unboundedly (e.g. by someone instrumenting a handler
// with a per-request-derived name).
var instrumentedEndpoints = map[string]bool{
	"ppv": true, "batch": true,
	"update": true, "compact": true, "stats": true,
}

// instrument records per-endpoint latency (the one family /metrics renders and
// /v1/stats summarizes) and per-status-class request counts. All metric
// children are resolved here, at wiring time — the per-request cost is one
// histogram observation and one counter increment.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	if !instrumentedEndpoints[name] {
		panic(fmt.Sprintf("server: endpoint %q is not in the instrumentation allowlist", name))
	}
	lat := s.metrics.httpLatency.With(name)
	classes := s.metrics.statusClasses(name)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		lat.ObserveDuration(time.Since(start))
		if c := sw.status / 100; c >= 1 && c <= 5 {
			classes[c].Inc()
		}
	}
}

// ScoredNode is one ranked result entry.
type ScoredNode struct {
	Node  int     `json:"node"`
	Label string  `json:"label,omitempty"`
	Score float64 `json:"score"`
}

// QueryResponse is the body of a query answer. It is a deterministic function
// of (node, eta, target error, top, graph state); serving metadata lives in
// response headers instead.
type QueryResponse struct {
	Node         int  `json:"node"`
	RequestedEta int  `json:"requested_eta"`
	Iterations   int  `json:"iterations"`
	Degraded     bool `json:"degraded,omitempty"`
	// ShardsDown, ShardsBehind and LostErrorMass are set by a cluster router
	// when shards were unavailable — or answered at a divergent index epoch —
	// during this query: the answer is still correct, its L1 error bound is
	// just wider by (up to) the lost mass. Degraded answers are never cached,
	// so cacheable bodies stay deterministic.
	ShardsDown    int          `json:"shards_down,omitempty"`
	ShardsBehind  int          `json:"shards_behind,omitempty"`
	LostErrorMass float64      `json:"lost_error_mass,omitempty"`
	L1ErrorBound  float64      `json:"l1_error_bound"`
	Results       []ScoredNode `json:"results"`
	// Trace is the retained trace of a ?trace=1 request, the same object
	// GET /v1/debug/trace/{id} serves. It is the one deliberately volatile
	// member of the body: traced answers are computed fresh, never cached and
	// never coalesced, so the determinism promise for cacheable bodies is
	// unaffected.
	Trace *RetainedTrace `json:"trace,omitempty"`
}

// queryRequest is one parsed and clamped query.
type queryRequest struct {
	node        graph.NodeID
	eta         int
	targetError float64
	top         int
}

type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// errOverloaded sheds a computation that found no admission slot within
// QueueWait.
var errOverloaded = &httpError{status: http.StatusServiceUnavailable, code: api.CodeOverloaded,
	msg: "overloaded: no computation slot freed within the queue wait"}

func badRequest(format string, args ...interface{}) error {
	return &httpError{status: http.StatusBadRequest, code: api.CodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

func unsupported(format string, args ...interface{}) error {
	return &httpError{status: http.StatusNotImplemented, code: api.CodeUnsupported, msg: fmt.Sprintf(format, args...)}
}

// rawQuery is a query's parameters as the client sent them; an empty field is
// an absent parameter, which takes the server default.
type rawQuery struct {
	node, eta, targetError, top string
}

func (s *Server) parseQuery(q rawQuery) (queryRequest, error) {
	var req queryRequest
	if q.node == "" {
		return req, badRequest("missing node parameter")
	}
	// Node ids are 32-bit: a wider id must not wrap onto a valid node.
	node, err := strconv.ParseInt(q.node, 10, 32)
	if err != nil {
		return req, badRequest("bad node %q", q.node)
	}
	req.node = graph.NodeID(node)

	req.eta = s.cfg.DefaultEta
	if v := q.eta; v != "" {
		req.eta, err = strconv.Atoi(v)
		if err != nil || req.eta < 0 {
			return req, badRequest("bad eta %q", v)
		}
		if req.eta > s.cfg.MaxEta {
			req.eta = s.cfg.MaxEta
		}
	}
	if v := q.targetError; v != "" {
		req.targetError, err = strconv.ParseFloat(v, 64)
		// Reject NaN explicitly: a NaN inside CacheKey never equals itself,
		// so it would poison every map the key passes through (cache shards,
		// in-flight loads) with unreachable, unremovable entries.
		if err != nil || math.IsNaN(req.targetError) || math.IsInf(req.targetError, 0) || req.targetError < 0 {
			return req, badRequest("bad target-error %q", v)
		}
	}
	req.top = defaultTopK
	if v := q.top; v != "" {
		req.top, err = strconv.Atoi(v)
		if err != nil || req.top < 1 {
			return req, badRequest("bad top %q", v)
		}
		req.top = min(req.top, maxTopK)
	}

	n := s.be.numNodes()
	// n == 0 means a router that has not discovered its graph size yet; the
	// query is then validated by the shards instead of up front.
	if req.node < 0 || (n > 0 && int(req.node) >= n) {
		return req, badRequest("node %d outside [0,%d)", req.node, n)
	}
	return req, nil
}

// cacheState describes how a request was answered, reported in the
// X-Fastppv-Cache header.
type cacheState string

const (
	cacheHit       cacheState = "hit"
	cacheMiss      cacheState = "miss"
	cacheCoalesced cacheState = "coalesced"
	cacheBypass    cacheState = "bypass"
)

// answer resolves a query through the cache: a retained answer, a computation
// of the same key already in flight, or finally the backend. A retained or
// shared answer is served only if it is fresh; otherwise the cache drops it
// and the query is computed again.
func (s *Server) answer(req queryRequest) (*cachedAnswer, cacheState, error) {
	key := CacheKey{Node: req.node, Eta: req.eta, TargetError: req.targetError, Top: topClass(req.top)}
	ans, outcome, err := s.cache.Do(key, s.fresh, func(end func(*cachedAnswer, int64, bool)) (*cachedAnswer, error) {
		ans, _, err := s.compute(key, end, "")
		return ans, err
	})
	switch {
	case err != nil:
		return nil, cacheMiss, err
	case s.cfg.CacheBytes < 0:
		return ans, cacheBypass, nil
	case outcome == lru.Hit:
		return ans, cacheHit, nil
	case outcome == lru.Shared:
		return ans, cacheCoalesced, nil
	}
	return ans, cacheMiss, nil
}

// fresh reports whether ans is current at the backend's epoch, the only one
// a retained or shared answer is served at.
func (s *Server) fresh(ans *cachedAnswer) bool { return ans.epoch.Load() == s.be.epoch() }

// compute runs one query under admission control: admit, ask the backend,
// observe, capture the trace, end the cache flight (retaining the answer if
// it is cacheable, tagged with the epoch the backend says it is current at).
// A request that gets no slot is shed with 503.
//
// A non-empty explicitID makes this an explicit (?trace=1) computation: the
// id travels to every shard leg, the trace is retained under it whatever the
// outcome and returned, and the answer is not cached — its caller has
// bypassed the cache, so end is a no-op. The returned trace is nil when the
// always-on capturer did not retain one.
func (s *Server) compute(key CacheKey, end func(*cachedAnswer, int64, bool), explicitID string) (*cachedAnswer, *RetainedTrace, error) {
	explicit := explicitID != ""
	if explicit {
		s.metrics.tracedQueries.Inc()
	}
	if !s.adm.acquire() {
		return nil, nil, errOverloaded
	}
	defer s.adm.release()
	stop := core.StopCondition{MaxIterations: key.Eta, TargetL1Error: key.TargetError}

	// Only engine-mode invalidation reads the reach list (a router's sweep
	// retires every pre-update answer), and only of an answer the cache keeps:
	// an engine answer is kept unless it was explicitly traced.
	ans, err := s.be.query(key, stop, explicitID, !explicit && s.cfg.CacheBytes > 0)
	if err != nil {
		return nil, nil, err
	}
	res := ans.result
	if s.qlog != nil {
		ans.legs = legSummaries(res.Spans)
	}
	expanded, skipped := 0, 0
	for _, st := range res.PerIteration {
		expanded += st.HubsExpanded
		skipped += st.HubsSkipped
	}
	s.metrics.observeQuery(res.Iterations, res.L1ErrorBound, expanded, skipped)
	// Every result carries its per-iteration stats (and a routed one its shard
	// legs), so retaining a slow/degraded/sampled trace costs no extra
	// computation; spans are only assembled when one is kept.
	rt := s.captureCompute(key.Eta, ans, explicitID)
	// Degraded answers carry a bound widened by lost or lagging shards; they
	// must not outlive the condition in the cache.
	retain := !explicit && !res.Degraded
	// The answer keeps what it serves: the shard spans have been traced and
	// go with the request.
	res.Spans = nil
	end(ans, ans.sizeBytes(), retain)
	return ans, rt, nil
}

// render builds the deterministic response body from an answer. Node labels
// are only available in engine mode; a router answers with bare node ids. The
// ranking is a prefix of the answer's top, which holds req.top's whole class
// (or the whole estimate, when shorter).
func (s *Server) render(req queryRequest, ans *cachedAnswer) QueryResponse {
	top := ans.top[:min(req.top, len(ans.top))]
	resp := QueryResponse{
		Node:          int(req.node),
		RequestedEta:  req.eta,
		Iterations:    ans.result.Iterations,
		Degraded:      ans.result.Degraded,
		ShardsDown:    ans.result.ShardsDown,
		ShardsBehind:  ans.result.ShardsBehind,
		LostErrorMass: ans.result.LostFrontierMass,
		L1ErrorBound:  ans.result.L1ErrorBound,
		Results:       make([]ScoredNode, 0, len(top)),
	}
	for _, e := range top {
		resp.Results = append(resp.Results, ScoredNode{Node: int(e.Node), Score: e.Score})
	}
	s.be.labelResults(resp.Results)
	return resp
}

func (s *Server) handlePPV(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	params := r.URL.Query()
	req, err := s.parseQuery(rawQuery{
		node:        params.Get("node"),
		eta:         params.Get("eta"),
		targetError: params.Get("target-error"),
		top:         params.Get("top"),
	})
	if err != nil {
		writeError(w, err)
		return
	}
	if wantTrace(params) {
		// An explicit trace is the ordinary computation with a caller-chosen
		// id and forced retention, outside the result cache and its
		// coalescing: the trace must describe the computation this request
		// performed, and its volatile timing never enters a cacheable body.
		traceID := r.Header.Get(api.TraceHeader)
		if traceID == "" {
			traceID = newTraceID()
		}
		key := CacheKey{Node: req.node, Eta: req.eta, TargetError: req.targetError, Top: topClass(req.top)}
		ans, rt, err := s.compute(key, func(*cachedAnswer, int64, bool) {}, traceID)
		if err != nil {
			s.finishQuery(req, nil, cacheBypass, start, true, err)
			writeError(w, err)
			return
		}
		w.Header().Set(api.TraceHeader, traceID)
		w.Header().Set("X-Fastppv-Cache", string(cacheBypass))
		w.Header().Set("X-Fastppv-Compute-Ms",
			strconv.FormatFloat(float64(ans.result.Duration)/1e6, 'f', 3, 64))
		resp := s.render(req, ans)
		resp.Trace = rt
		s.finishQuery(req, ans, cacheBypass, start, true, nil)
		s.logger.Info("traced query",
			"trace_id", traceID, "node", resp.Node, "iterations", resp.Iterations,
			"l1_error_bound", resp.L1ErrorBound, "degraded", resp.Degraded,
			"mode", rt.Mode, "duration_ms", rt.DurationMS)
		writeBody(w, http.StatusOK, func(b []byte) ([]byte, error) { return appendQueryResponse(b, &resp) })
		return
	}
	ans, state, err := s.answer(req)
	if err != nil {
		s.finishQuery(req, nil, state, start, false, err)
		writeError(w, err)
		return
	}
	if ans.traceID != "" {
		// This answer's computation was retained by the always-on capturer
		// (slow, degraded or sampled): hand the caller the id so the full
		// per-iteration trace is one GET /v1/debug/trace/{id} away.
		w.Header().Set(api.TraceHeader, ans.traceID)
	}
	w.Header().Set("X-Fastppv-Cache", string(state))
	w.Header().Set("X-Fastppv-Compute-Ms",
		strconv.FormatFloat(float64(ans.result.Duration)/1e6, 'f', 3, 64))
	s.finishQuery(req, ans, state, start, false, nil)
	resp := s.render(req, ans)
	writeBody(w, http.StatusOK, func(b []byte) ([]byte, error) { return appendQueryResponse(b, &resp) })
}

// finishQuery is the one place a completed /v1/ppv or batch query lands: it
// classifies the outcome against the SLO objectives and appends the record to
// the persistent query log. Client mistakes (4xx) are neither SLO events nor
// log records; server-side failures (shed, unavailable, internal) are bad SLO
// events but have no answer to log.
func (s *Server) finishQuery(req queryRequest, ans *cachedAnswer, state cacheState, start time.Time, explicit bool, err error) {
	lat := time.Since(start)
	if err != nil {
		var herr *httpError
		if errors.As(err, &herr) && herr.status >= 400 && herr.status < 500 {
			return
		}
		s.observeSLO(lat, 0, true)
		return
	}
	s.observeSLO(lat, ans.result.L1ErrorBound, false)
	s.logQuery(req, ans, state, lat, explicit)
}

// BatchRequest is the body of POST /v1/ppv/batch.
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// BatchQuery is one query of a batch; zero-valued knobs fall back to the
// server defaults.
type BatchQuery struct {
	Node        int     `json:"node"`
	Eta         *int    `json:"eta,omitempty"`
	TargetError float64 `json:"target_error,omitempty"`
	Top         int     `json:"top,omitempty"`
}

// BatchResponse is the body answering a batch: one entry per query, in order.
type BatchResponse struct {
	Results []QueryResponse `json:"results"`
}

// maxBatchQueries bounds a single batch so one request cannot monopolize the
// server.
const maxBatchQueries = 1024

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var breq BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&breq); err != nil {
		writeError(w, badRequest("bad batch body: %v", err))
		return
	}
	if len(breq.Queries) == 0 {
		writeError(w, badRequest("empty batch"))
		return
	}
	if len(breq.Queries) > maxBatchQueries {
		writeError(w, badRequest("batch of %d exceeds limit %d", len(breq.Queries), maxBatchQueries))
		return
	}
	// Every query is validated before any is computed, so a bad one rejects
	// the batch without computing, caching or logging the others.
	reqs := make([]queryRequest, len(breq.Queries))
	for i, bq := range breq.Queries {
		// Every non-zero knob goes to parseQuery, so a negative one is the
		// same 400 it is on GET /v1/ppv; zero means the server default.
		raw := rawQuery{node: strconv.Itoa(bq.Node)}
		if bq.Eta != nil {
			raw.eta = strconv.Itoa(*bq.Eta)
		}
		if bq.TargetError != 0 {
			raw.targetError = strconv.FormatFloat(bq.TargetError, 'g', -1, 64)
		}
		if bq.Top != 0 {
			raw.top = strconv.Itoa(bq.Top)
		}
		req, err := s.parseQuery(raw)
		if err != nil {
			writeError(w, err)
			return
		}
		reqs[i] = req
	}
	resp := BatchResponse{Results: make([]QueryResponse, 0, len(reqs))}
	for _, req := range reqs {
		qstart := time.Now()
		ans, state, err := s.answer(req)
		if err != nil {
			s.finishQuery(req, nil, state, qstart, false, err)
			writeError(w, err)
			return
		}
		s.finishQuery(req, ans, state, qstart, false, nil)
		resp.Results = append(resp.Results, s.render(req, ans))
	}
	writeBody(w, http.StatusOK, func(b []byte) ([]byte, error) { return appendBatchResponse(b, &resp) })
}

// evalPartial evaluates one partial sub-request of the cluster protocol — one
// iteration-0 root or one frontier expansion restricted to the hubs this
// shard owns (internal/api.PartialRequest) — for the stream handler
// (stream.go): validation, the admission gate, then the engine, whose step
// reads one published version and reports its epoch. Errors come back as
// *httpError, whose code travels in the error frame; a transient index
// failure (the store closing under a restart) carries the "retry" code, and
// the router retries once before declaring the shard down.
func (s *Server) evalPartial(preq *api.PartialRequest, traceID string) (*api.PartialResponse, error) {
	if (preq.Query == nil) == (preq.Frontier == nil) {
		return nil, badRequest("exactly one of query and frontier must be set")
	}
	if preq.Frontier != nil {
		// A NaN or +Inf prefix would slip past the delta prune into the estimate.
		for i, w := range preq.Frontier.Scores {
			if !(w >= 0) || math.IsInf(w, 1) {
				return nil, badRequest("frontier weight %v of hub %d is not a finite non-negative number", w, preq.Frontier.Nodes[i])
			}
		}
	}
	if !s.adm.acquire() {
		return nil, errOverloaded
	}
	defer s.adm.release()

	start := time.Now()
	var (
		part *core.PartialIncrement
		err  error
	)
	if preq.Query != nil {
		// Nodes are never removed: in range here, in range in every version.
		q := *preq.Query
		if n := s.engine.Graph().NumNodes(); q < 0 || int(q) >= n {
			return nil, badRequest("node %d outside [0,%d)", q, n)
		}
		part, err = s.engine.PartialRootSorted(q)
	} else {
		part, err = s.engine.PartialExpand(preq.Frontier.Nodes, preq.Frontier.Scores)
	}
	p := s.engine.Partition()
	if err != nil {
		if errors.Is(err, ppvindex.ErrClosed) {
			return nil, &httpError{status: http.StatusServiceUnavailable, code: api.CodeRetry, msg: err.Error()}
		}
		return nil, fmt.Errorf("partial query failed: %w", err)
	}
	shards := p.Shards
	if shards < 2 {
		shards = 1
	}
	if traceID != "" {
		s.logger.Debug("partial served",
			"trace_id", traceID, "shard", p.Shard, "iteration", preq.Iteration,
			"epoch", part.Epoch,
			"hubs_expanded", part.HubsExpanded,
			"duration_ms", float64(time.Since(start))/1e6)
	}
	return &api.PartialResponse{
		Shard:        p.Shard,
		Shards:       shards,
		Epoch:        part.Epoch,
		Increment:    api.Vector{Nodes: part.IncrementNodes, Scores: part.IncrementScores},
		Frontier:     api.Vector{Nodes: part.FrontierNodes, Scores: part.FrontierScores},
		HubsExpanded: part.HubsExpanded,
		HubsSkipped:  part.HubsSkipped,
		Unowned:      part.Unowned,
		FromIndex:    part.FromIndex,
		ComputeMS:    float64(time.Since(start)) / 1e6,
		Delta:        part.Delta,
	}, nil
}

// UpdateRequest is the body of POST /v1/update (see api.UpdateRequest: the
// router fans the same body out to the shards).
type UpdateRequest = api.UpdateRequest

// UpdateResponse reports what an update applied to a local engine did; a
// router answers with api.ClusterUpdateResponse instead.
type UpdateResponse = api.UpdateResponse

// parseEdges validates that every entry is a [from, to] pair with both
// endpoints inside [0, numNodes) and the NodeID range, so no id wraps onto
// another node when it is narrowed. Validating here keeps client mistakes
// out of ApplyUpdate, so an ApplyUpdate error below is a genuine server-side
// failure.
func parseEdges(field string, pairs [][]int, numNodes int) ([]graph.Edge, error) {
	edges := make([]graph.Edge, 0, len(pairs))
	for i, p := range pairs {
		if len(p) != 2 {
			return nil, badRequest("%s[%d]: edge must be a [from, to] pair, got %d elements", field, i, len(p))
		}
		if p[0] < 0 || p[0] >= numNodes || p[1] < 0 || p[1] >= numNodes || p[0] > math.MaxInt32 || p[1] > math.MaxInt32 {
			return nil, badRequest("%s[%d]: edge (%d,%d) outside [0,%d)", field, i, p[0], p[1], numNodes)
		}
		edges = append(edges, graph.Edge{From: graph.NodeID(p[0]), To: graph.NodeID(p[1])})
	}
	return edges, nil
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var ureq UpdateRequest
	if err := json.NewDecoder(r.Body).Decode(&ureq); err != nil {
		writeError(w, badRequest("bad update body: %v", err))
		return
	}
	if len(ureq.AddedEdges) == 0 && len(ureq.RemovedEdges) == 0 && ureq.NumNodes == 0 {
		writeError(w, badRequest("empty update"))
		return
	}
	if ureq.NumNodes < 0 || ureq.NumNodes > math.MaxInt32 {
		writeError(w, badRequest("num_nodes %d outside [0,%d]", ureq.NumNodes, math.MaxInt32))
		return
	}
	if s.router != nil {
		s.handleClusterUpdate(w, ureq)
		return
	}
	stats, err := s.applyUpdate(ureq)
	if err != nil {
		writeError(w, err)
		return
	}
	s.updates.Add(1)
	writeJSON(w, http.StatusOK, UpdateResponse{
		AffectedHubs:   stats.AffectedHubs,
		UnaffectedHubs: stats.UnaffectedHubs,
		Invalidated:    s.retire(stats.Epoch, &stats),
		DurationMS:     float64(stats.Duration) / 1e6,
		Epoch:          stats.Epoch,
	})
}

// applyUpdate is the serialized half of an engine update; queries keep
// reading the published version throughout. The retire sweep runs after it.
func (s *Server) applyUpdate(ureq UpdateRequest) (core.UpdateStats, error) {
	upd := core.GraphUpdate{NumNodes: ureq.NumNodes}
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	// A replica whose commit failed may hold a batch in its log that its
	// memory does not serve; refuse to stack newer epochs on that until an
	// operator restarts (replaying the logs) or re-precomputes.
	if s.inconsistent.Load() {
		return core.UpdateStats{}, &httpError{status: http.StatusConflict, code: api.CodeConflict,
			msg: "engine is inconsistent after a failed update; restart or re-precompute before updating again"}
	}
	g, epoch := s.engine.Version()
	if ureq.IfEpoch != nil && *ureq.IfEpoch != epoch {
		return core.UpdateStats{}, &httpError{status: http.StatusConflict, code: api.CodeEpochMismatch,
			msg: fmt.Sprintf("engine is at epoch %d, not %d", epoch, *ureq.IfEpoch)}
	}
	numNodes := max(g.NumNodes(), ureq.NumNodes)
	var err error
	if upd.AddedEdges, err = parseEdges("added_edges", ureq.AddedEdges, numNodes); err == nil {
		upd.RemovedEdges, err = parseEdges("removed_edges", ureq.RemovedEdges, numNodes)
	}
	if err != nil {
		return core.UpdateStats{}, err
	}
	stats, err := s.engine.ApplyUpdate(upd)
	if err != nil {
		// The engine still serves the version before the batch. Only a
		// failed commit leaves the log's outcome unknown; then health checks
		// fail, so a load balancer rotates this replica out.
		if errors.Is(err, core.ErrCommit) {
			s.inconsistent.Store(true)
		}
		return stats, fmt.Errorf("update failed: %w", err)
	}
	return stats, nil
}

// handleClusterUpdate fans a validated update out to every shard through the
// router and retires the router-side result cache once any shard has
// accepted it. The response lists the per-shard outcomes: a partially applied
// batch answers 200 with degraded:true — the update is live on the shards
// that took it, and the stragglers' stale epochs fold them out of query
// answers — while a batch no shard applied is an error.
func (s *Server) handleClusterUpdate(w http.ResponseWriter, ureq UpdateRequest) {
	cu, err := s.router.Update(ureq)
	if err != nil {
		var aerr *api.Error
		if errors.As(err, &aerr) {
			writeError(w, &httpError{status: statusForCode(aerr.Code), code: aerr.Code, msg: aerr.Message})
			return
		}
		writeError(w, &httpError{status: http.StatusServiceUnavailable, code: api.CodeUnavailable, msg: err.Error()})
		return
	}
	// The cluster epoch moved when the first shard accepted, so lookups
	// already refuse pre-update answers; retire counts them and returns
	// their memory ahead of LRU pressure.
	s.updates.Add(1)
	writeJSON(w, http.StatusOK, api.ClusterUpdateResponse{
		Epoch:         cu.Epoch,
		ShardsApplied: cu.Applied,
		ShardsFailed:  len(cu.Results) - cu.Applied,
		Degraded:      cu.Degraded(),
		Shards:        cu.Results,
		Invalidated:   s.retire(cu.Epoch, nil),
		DurationMS:    float64(cu.Duration) / 1e6,
	})
}

// statusForCode maps a structured error code decoded from a shard (or raised
// by the router) onto the HTTP status this server reports it with.
func statusForCode(code string) int {
	switch code {
	case api.CodeBadRequest:
		return http.StatusBadRequest
	case api.CodeOverloaded, api.CodeRetry, api.CodeUnavailable:
		return http.StatusServiceUnavailable
	case api.CodeConflict, api.CodeEpochMismatch:
		return http.StatusConflict
	case api.CodeUnsupported:
		return http.StatusNotImplemented
	default:
		return http.StatusInternalServerError
	}
}

// retire brings the cached answers up to epoch e, just committed by batch (nil
// for a router's update), and returns how many it dropped. An answer current
// at e or later stays; one current at e-1 moves on to e unless its reach list
// holds a node the batch touched (see core.UpdateStats.TouchedNodes for why
// no other test is needed). The rest are dropped. An epoch moves only from
// e-1 to e and lookups serve only the current one, so in any interleaving of
// sweeps, fills and lookups nothing stale is served.
func (s *Server) retire(e uint64, batch *core.UpdateStats) int {
	return s.cache.InvalidateFunc(func(_ CacheKey, ans *cachedAnswer) bool {
		tag := ans.epoch.Load()
		if tag >= e {
			return false
		}
		if tag+1 < e || batch == nil || reachesAny(ans.reach, batch.TouchedNodes) {
			return true
		}
		ans.epoch.Store(e)
		return false
	})
}

// compactor is implemented by disk-backed index stores that can fold the hub
// records of their update log and overlay back into the base file
// (ppvindex.Store); the /v1/compact admin endpoint drives it.
type compactor interface {
	Compact() (ppvindex.CompactionResult, error)
}

// handleCompact triggers a synchronous compaction of the disk-served index.
// Compaction serves reads throughout; only a commit waits for it (on the
// store's own mutex).
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if s.engine == nil {
		writeError(w, unsupported("compaction runs per shard, not through the router"))
		return
	}
	c, ok := s.engine.Index().(compactor)
	if !ok {
		writeError(w, &httpError{
			status: http.StatusPreconditionFailed,
			code:   api.CodeUnsupported,
			msg:    "index is not disk-backed; nothing to compact",
		})
		return
	}
	res, err := c.Compact()
	if err != nil {
		if errors.Is(err, ppvindex.ErrCompactionInProgress) {
			writeError(w, &httpError{status: http.StatusConflict, code: api.CodeConflict, msg: err.Error()})
			return
		}
		writeError(w, fmt.Errorf("compaction failed: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// GraphInfo summarizes the served graph.
type GraphInfo struct {
	Nodes    int  `json:"nodes"`
	Edges    int  `json:"edges"`
	Directed bool `json:"directed"`
}

// OfflineInfo summarizes the offline precomputation behind the index.
type OfflineInfo struct {
	Hubs           int     `json:"hubs"`
	HubSelectionMS float64 `json:"hub_selection_ms"`
	PrimePPVMS     float64 `json:"prime_ppv_ms"`
	TotalMS        float64 `json:"total_ms"`
	IndexBytes     int64   `json:"index_bytes"`
	IndexEntries   int64   `json:"index_entries"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds float64     `json:"uptime_seconds"`
	Graph         GraphInfo   `json:"graph"`
	Offline       OfflineInfo `json:"offline"`
	// Epoch is the index epoch: the engine's own in engine mode, the cluster
	// epoch (highest observed on any shard) in router mode. The router reads
	// this field off shard stats to learn epochs it has not seen in query
	// traffic yet.
	Epoch uint64 `json:"epoch"`
	// Shard is the hub partition this server owns ("1/4"), present only on
	// sharded engines.
	Shard string `json:"shard,omitempty"`
	// Cluster is the router's per-shard health and latency view, present only
	// in router mode.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	// Warming reports the startup block-cache warming pass (engine mode with
	// Config.WarmHubs set).
	Warming    *WarmStats                `json:"warming,omitempty"`
	Cache      *CacheStats               `json:"cache,omitempty"`
	BlockCache *ppvindex.BlockCacheStats `json:"block_cache,omitempty"`
	Durability *ppvindex.DurabilityStats `json:"durability,omitempty"`
	// Streams reports the binary partial-stream surface (engine mode): open
	// streams, wire traffic, and per-stream admission accounting.
	Streams *StreamStats `json:"streams,omitempty"`
	// QueryLog reports the persistent query log, present when one is
	// configured.
	QueryLog *querylog.Stats `json:"query_log,omitempty"`
	// SLO reports good/bad event totals and multi-window burn rates, present
	// when an objective (-slo-p99-ms / -slo-bound) is set.
	SLO            *SLOStats                  `json:"slo,omitempty"`
	Admission      AdmissionStats             `json:"admission"`
	Coalesced      int64                      `json:"coalesced"`
	UpdatesApplied int64                      `json:"updates_applied"`
	Endpoints      map[string]EndpointLatency `json:"endpoints"`
}

// EndpointLatency summarizes one endpoint's request latency on /v1/stats. It
// is a rendering of that endpoint's fastppv_http_request_seconds histogram
// (Count is its _count); quantiles are upper bounds taken from the bucket
// boundaries.
type EndpointLatency struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// endpointLatency renders one histogram of the request-latency family. A
// quantile that lands in the overflow bucket is clamped to the largest finite
// bound, so the JSON encoder never sees +Inf.
func endpointLatency(h telemetry.HistogramSnapshot) EndpointLatency {
	out := EndpointLatency{Count: h.Count}
	if h.Count == 0 {
		return out
	}
	top := 0.0
	if n := len(h.Buckets); n > 0 {
		top = h.Buckets[n-1]
	}
	quantileMS := func(q float64) float64 { return math.Min(h.Quantile(q), top) * 1e3 }
	out.MeanMS = h.Sum / float64(h.Count) * 1e3
	out.P50MS, out.P90MS, out.P99MS = quantileMS(0.50), quantileMS(0.90), quantileMS(0.99)
	return out
}

// blockCacheStatser is implemented by index stores that front a hub-block
// cache (ppvindex.Store, behind fastppv.OpenDiskIndex); the stats endpoint
// reports their counters when present.
type blockCacheStatser interface {
	BlockCacheStats() (ppvindex.BlockCacheStats, bool)
}

// durabilityStatser is implemented by index stores that persist incremental
// updates behind an update log; the stats endpoint reports overlay and log
// counters when present.
type durabilityStatser interface {
	DurabilityStats() (ppvindex.DurabilityStats, bool)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cst := s.cache.Stats()
	resp := StatsResponse{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Admission:      s.adm.stats(),
		Coalesced:      cst.Coalesced,
		UpdatesApplied: s.updates.Load(),
		Endpoints:      make(map[string]EndpointLatency, len(instrumentedEndpoints)),
	}
	s.be.stats(&resp)
	if s.cfg.CacheBytes > 0 {
		st := cacheStats(cst)
		resp.Cache = &st
	}
	if s.qlog != nil {
		st := s.qlog.Stats()
		resp.QueryLog = &st
	}
	if s.slo != nil {
		st := s.slo.stats()
		resp.SLO = &st
	}
	for name := range instrumentedEndpoints {
		resp.Endpoints[name] = endpointLatency(s.metrics.httpLatency.With(name).Snapshot())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.inconsistent.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
			"status": "inconsistent",
			"reason": "a graph update failed mid-commit; restart or re-precompute",
		})
		return
	}
	status, body := s.be.health()
	writeJSON(w, status, body)
}

// writeError renders the structured error envelope: every failure carries a
// machine-readable code, so the router and load tooling can distinguish
// client mistakes, admission rejection, transient retry conditions and
// unsupported endpoints without parsing messages.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	code := api.CodeInternal
	var herr *httpError
	if errors.As(err, &herr) {
		status = herr.status
		if herr.code != "" {
			code = herr.code
		}
	}
	writeJSON(w, status, api.ErrorResponse{Error: api.Error{Code: code, Message: err.Error()}})
}

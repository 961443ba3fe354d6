// metrics.go is the server's Prometheus surface: the hot-path metric handles
// (pre-resolved at wiring time so a request never touches the registry's
// label maps) and the scrape-time collectors that export the stats structs
// the server already keeps — cache, admission, coalescing, block cache,
// durability — at zero per-request cost. GET /metrics renders the shared
// telemetry.Registry in the Prometheus text format; in router mode the
// cluster.Router contributes its shard-leg and epoch families to the same
// registry (see internal/cluster/telemetry.go).
package server

import (
	"net/http"
	"strconv"
	"time"

	"fastppv/internal/core"
	"fastppv/internal/telemetry"
)

// serverMetrics holds the handles the request path observes into. Everything
// else (cache hit/miss counters, admission outcomes, index durability) is
// read off the existing stats structs by the collectors below, only when
// /metrics is scraped.
type serverMetrics struct {
	httpLatency  *telemetry.HistogramVec
	httpRequests *telemetry.CounterVec

	queriesComputed *telemetry.Counter
	queriesDegraded *telemetry.Counter
	queryIterations *telemetry.Histogram
	queryBound      *telemetry.Histogram
	hubsExpanded    *telemetry.Counter
	hubsSkipped     *telemetry.Counter
	tracedQueries   *telemetry.Counter
	slowQueries     *telemetry.Counter
}

// newServerMetrics registers the hot-path handles. latencyBuckets optionally
// overrides the HTTP latency family's bucket bounds (Config.LatencyBuckets);
// nil takes the shared default.
func newServerMetrics(reg *telemetry.Registry, latencyBuckets []float64) *serverMetrics {
	if latencyBuckets == nil {
		latencyBuckets = telemetry.DefLatencyBuckets
	}
	return &serverMetrics{
		httpLatency: reg.HistogramVec("fastppv_http_request_seconds",
			"HTTP request latency by endpoint.", latencyBuckets, "endpoint"),
		httpRequests: reg.CounterVec("fastppv_http_requests_total",
			"HTTP requests by endpoint and status class.", "endpoint", "code"),
		queriesComputed: reg.Counter("fastppv_queries_computed_total",
			"Queries that reached the engine or router (cache misses and traced queries)."),
		queriesDegraded: reg.Counter("fastppv_queries_degraded_total",
			"Computed queries answered on the degradation path (admission pressure or cluster faults)."),
		queryIterations: reg.Histogram("fastppv_query_iterations",
			"Expansion iterations per computed query (0 = iteration 0 only).",
			telemetry.LinearBuckets(0, 1, 9)),
		queryBound: reg.Histogram("fastppv_query_l1_error_bound",
			"Exact L1 error bound at stop, per computed query.", telemetry.DefBoundBuckets),
		hubsExpanded: reg.Counter("fastppv_hubs_expanded_total",
			"Hub prime PPVs assembled across all computed queries."),
		hubsSkipped: reg.Counter("fastppv_hubs_skipped_total",
			"Candidate hubs pruned by the delta threshold across all computed queries."),
		tracedQueries: reg.Counter("fastppv_traced_queries_total",
			"Queries served with ?trace=1 (computed fresh, never cached)."),
		slowQueries: reg.Counter("fastppv_slow_queries_total",
			"Computed queries over the slow threshold (trace retained in the debug ring)."),
	}
}

// observeQuery records the end-of-computation metrics shared by the engine
// and router paths of compute.
func (m *serverMetrics) observeQuery(iterations int, bound float64, hubsExpanded, hubsSkipped int, degraded bool) {
	m.queriesComputed.Inc()
	if degraded {
		m.queriesDegraded.Inc()
	}
	m.queryIterations.Observe(float64(iterations))
	m.queryBound.Observe(bound)
	m.hubsExpanded.Add(float64(hubsExpanded))
	m.hubsSkipped.Add(float64(hubsSkipped))
}

// registerCollectors exports the server's point-in-time state. Called once
// from New/NewRouter after the backend is attached; every emitted sample is
// computed at scrape time from state the server maintains anyway.
func (s *Server) registerCollectors(reg *telemetry.Registry) {
	reg.Collect(func(e *telemetry.Emitter) {
		e.Counter("fastppv_coalesced_total",
			"Requests answered by sharing another request's in-flight computation.",
			float64(s.flights.Coalesced()))
		e.Counter("fastppv_updates_applied_total",
			"Graph-update batches accepted by this server.", float64(s.updates.Load()))
		adm := s.adm.stats()
		e.Counter("fastppv_admission_admitted_total", "Computations granted a full-accuracy slot.", float64(adm.Admitted))
		e.Counter("fastppv_admission_degraded_total", "Computations downgraded to the degradation pool.", float64(adm.Degraded))
		e.Counter("fastppv_admission_shed_total", "Requests rejected with 503: both pools full.", float64(adm.Shed))
		e.Gauge("fastppv_admission_in_flight", "Full-accuracy computations currently running.", float64(adm.InFlight))
		e.Gauge("fastppv_admission_in_flight_degraded", "Degraded computations currently running.", float64(adm.InFlightDegraded))
		e.Gauge("fastppv_admission_max_concurrent", "Full-accuracy slot capacity.", float64(adm.MaxConcurrent))
		if s.cache != nil {
			cs := s.cache.Stats()
			e.Counter("fastppv_cache_hits_total", "Result-cache hits.", float64(cs.Hits))
			e.Counter("fastppv_cache_misses_total", "Result-cache misses.", float64(cs.Misses))
			e.Counter("fastppv_cache_puts_total", "Result-cache fills.", float64(cs.Puts))
			e.Counter("fastppv_cache_evictions_total", "Result-cache entries evicted under the byte budget.", float64(cs.Evictions))
			e.Counter("fastppv_cache_invalidations_total", "Result-cache entries dropped by update invalidation.", float64(cs.Invalidations))
			e.Gauge("fastppv_cache_entries", "Result-cache entries resident.", float64(cs.Entries))
			e.Gauge("fastppv_cache_bytes", "Result-cache bytes resident.", float64(cs.Bytes))
			e.Gauge("fastppv_cache_budget_bytes", "Result-cache byte budget.", float64(cs.BudgetBytes))
		}
		e.Counter("fastppv_traces_retained_total",
			"Traces retained by the always-on capturer (slow, degraded, sampled or explicit).",
			float64(s.traces.captured()))
		if s.qlog != nil {
			qst := s.qlog.Stats()
			e.Counter("fastppv_querylog_records_total",
				"Records appended to the persistent query log since start.", float64(qst.Appended))
			e.Gauge("fastppv_querylog_bytes", "Bytes in the active query-log generation.", float64(qst.ActiveBytes))
			e.Counter("fastppv_querylog_rotations_total", "Query-log generation rollovers.", float64(qst.Rotations))
		}
		if s.slo != nil {
			st := s.slo.stats()
			e.Counter("fastppv_slo_good_total", "Requests that met every configured SLO objective.", float64(st.Good))
			e.Counter("fastppv_slo_bad_total", "Requests that failed or violated an SLO objective.", float64(st.Bad))
			now := time.Now()
			for _, wdw := range sloWindows {
				burn, _, _ := s.slo.windowRates(now, wdw.buckets)
				e.Gauge("fastppv_slo_burn_rate",
					"Error-budget burn rate over the window: windowed bad fraction / 1% budget.",
					burn, telemetry.L("window", wdw.name))
			}
		}
		ps := core.QueryPoolStats()
		e.Counter("fastppv_query_pool_gets_total",
			"Query working-set bundles taken from the pool.", float64(ps.Gets))
		e.Counter("fastppv_query_pool_hits_total",
			"Bundle acquisitions served by reuse instead of allocation.", float64(ps.Hits))
		e.Gauge("fastppv_query_pool_hit_rate",
			"Cumulative pool reuse rate (hits/gets); converges to ~1 at steady state.", ps.HitRate())
		s.be.collect(e)
	})
}

// collect emits what only a local engine has: the shard-stream surface, the
// graph and the index.
func (b engineBackend) collect(e *telemetry.Emitter) {
	s := b.s
	ss := s.streams.stats()
	e.Gauge("fastppv_stream_open", "Binary partial streams currently open.", float64(ss.Open))
	e.Counter("fastppv_stream_accepted_total", "Binary partial streams accepted since start.", float64(ss.Accepted))
	e.Counter("fastppv_stream_frames_in_total", "Frames read off binary streams.", float64(ss.FramesIn))
	e.Counter("fastppv_stream_frames_out_total", "Frames written to binary streams.", float64(ss.FramesOut))
	e.Counter("fastppv_stream_bytes_in_total", "Bytes read off binary streams.", float64(ss.BytesIn))
	e.Counter("fastppv_stream_bytes_out_total", "Bytes written to binary streams.", float64(ss.BytesOut))
	e.Counter("fastppv_stream_partials_total", "Partial sub-requests answered over binary streams.", float64(ss.Partials))
	e.Counter("fastppv_stream_speculative_total", "Speculative (pre-sent) sub-requests received over streams.", float64(ss.Speculative))
	e.Counter("fastppv_stream_speculation_discarded_total", "Speculative sub-requests withdrawn by cancel before compute.", float64(ss.SpeculationDiscarded))
	e.Counter("fastppv_stream_shed_total", "Stream sub-requests rejected by the admission gate.", float64(ss.Shed))
	e.Counter("fastppv_stream_decode_errors_total", "Streams torn down on a corrupt or torn frame.", float64(ss.DecodeErrors))
	s.mu.RLock()
	g := s.engine.Graph()
	nodes, edges := g.NumNodes(), g.NumEdges()
	epoch := s.engine.Epoch()
	off := s.engine.OfflineStats()
	index := s.engine.Index()
	s.mu.RUnlock()
	e.Gauge("fastppv_index_epoch", "Index epoch: graph-update batches folded into the served state.", float64(epoch))
	e.Gauge("fastppv_graph_nodes", "Nodes in the served graph.", float64(nodes))
	e.Gauge("fastppv_graph_edges", "Edges in the served graph.", float64(edges))
	e.Gauge("fastppv_index_hubs", "Hubs with a precomputed prime PPV.", float64(off.Hubs))
	e.Gauge("fastppv_index_bytes", "Estimated bytes of the hub index.", float64(off.IndexBytes))
	if bcs, ok := index.(blockCacheStatser); ok {
		if st, enabled := bcs.BlockCacheStats(); enabled {
			e.Counter("fastppv_block_cache_hits_total", "Hub reads answered from the block cache.", float64(st.Hits))
			e.Counter("fastppv_block_cache_misses_total", "Hub reads that went to the disk index.", float64(st.Misses))
			e.Counter("fastppv_block_cache_coalesced_total", "Hub reads that shared another read's in-flight load.", float64(st.Coalesced))
			e.Counter("fastppv_block_cache_loads_total", "Actual disk-index reads.", float64(st.Loads))
			e.Counter("fastppv_block_cache_evictions_total", "Cached hub blocks evicted under the byte budget.", float64(st.Evictions))
			e.Gauge("fastppv_block_cache_entries", "Hub blocks resident in the block cache.", float64(st.Entries))
			e.Gauge("fastppv_block_cache_bytes", "Bytes resident in the block cache.", float64(st.Bytes))
		}
	}
	if ma, ok := index.(interface{ MmapActive() bool }); ok {
		active := 0.0
		if ma.MmapActive() {
			active = 1
		}
		e.Gauge("fastppv_index_mmap_active",
			"1 when the base index is served from a memory mapping (zero-copy views), 0 on the pread fallback.", active)
	}
	if dss, ok := index.(durabilityStatser); ok {
		if st, enabled := dss.DurabilityStats(); enabled {
			e.Counter("fastppv_wal_records_total", "Records appended to the index update log.", float64(st.LogRecords))
			e.Gauge("fastppv_wal_bytes", "Bytes in the index update log.", float64(st.LogBytes))
			e.Counter("fastppv_graphlog_records_total", "Graph-update batches appended to the graph-mutation log.", float64(st.GraphLogRecords))
			e.Gauge("fastppv_graphlog_bytes", "Bytes in the graph-mutation log.", float64(st.GraphLogBytes))
			e.Counter("fastppv_compactions_total", "Completed disk-index compactions.", float64(st.Compactions))
			e.Gauge("fastppv_overlay_hubs", "Hubs currently served from the in-memory overlay.", float64(st.OverlayHubs))
		}
	}
}

// statusWriter captures the response status for the per-endpoint request
// counter; handlers that never call WriteHeader answered 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// statusClasses pre-resolves the status-class counter children of one
// endpoint, so the hot path indexes an array instead of formatting labels.
func (m *serverMetrics) statusClasses(endpoint string) [6]*telemetry.Counter {
	var out [6]*telemetry.Counter
	for c := 1; c <= 5; c++ {
		out[c] = m.httpRequests.With(endpoint, strconv.Itoa(c)+"xx")
	}
	return out
}

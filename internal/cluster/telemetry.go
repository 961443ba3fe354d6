// telemetry.go holds the router's observability surface: the per-shard legs of
// each iteration (what a routed query adds to its core.IterationStats) and the
// metric families the router records into a shared telemetry.Registry.
package cluster

import (
	"strconv"

	"fastppv/internal/telemetry"
)

// ShardLegSpan records one shard sub-request of one routed iteration.
type ShardLegSpan struct {
	Shard int `json:"shard"`
	// Hubs is the number of frontier hubs routed to this shard in this
	// iteration (0 for a root leg, which carries the query node instead).
	Hubs       int     `json:"hubs,omitempty"`
	DurationMS float64 `json:"duration_ms"`
	// Epoch is the index epoch the shard answered at, when it answered.
	Epoch uint64 `json:"epoch,omitempty"`
	// Error is set when the leg failed; Skipped when the router never sent it
	// (the shard was already down or epoch-divergent in this query).
	Error   string `json:"error,omitempty"`
	Skipped bool   `json:"skipped,omitempty"`
}

// IterationSpan is what a routed iteration adds to its core.IterationStat
// (Result.Spans[i] belongs to Result.PerIteration[i]): the per-shard legs it
// scattered.
type IterationSpan struct {
	Legs []ShardLegSpan `json:"legs,omitempty"`
}

// routerMetrics are the hot-path metric handles, resolved once at NewRouter.
// They record only what the router alone knows: a routed answer's count,
// iterations and bound are recorded once, by the serving layer that asked for
// it, and a shard's request count and mean latency are its leg histogram's
// count and sum. Everything derivable from the router's existing atomic
// counters (per-shard failure/retry totals, epochs, backoff windows) is
// exported by a scrape-time collector instead, at zero per-request cost.
type routerMetrics struct {
	degraded   *telemetry.Counter
	lostMass   *telemetry.Counter
	legLatency *telemetry.HistogramVec
}

// newRouterMetrics registers the router's hot-path handles.
func newRouterMetrics(reg *telemetry.Registry) routerMetrics {
	return routerMetrics{
		degraded: reg.Counter("fastppv_router_degraded_queries_total",
			"Routed queries answered degraded: a shard was down, epoch-divergent, or a non-owner served the root."),
		lostMass: reg.Counter("fastppv_router_lost_error_mass_total",
			"Total frontier mass folded into error bounds because its owning shard was unavailable or epoch-divergent."),
		legLatency: reg.HistogramVec("fastppv_shard_leg_seconds",
			"Latency of one shard sub-request (partial or update leg).",
			telemetry.DefLatencyBuckets, "shard"),
	}
}

// observeQuery records the end-of-query metrics for one routed result.
func (m *routerMetrics) observeQuery(res *Result) {
	if res.Degraded {
		m.degraded.Inc()
	}
	m.lostMass.Add(res.LostFrontierMass)
}

// registerCollector exports the router's point-in-time view — cluster epoch,
// shard health, per-shard failure totals — off the existing atomics at scrape
// time.
func (r *Router) registerCollector(reg *telemetry.Registry) {
	reg.Collect(func(e *telemetry.Emitter) {
		st := r.Stats()
		e.Gauge("fastppv_cluster_epoch",
			"Highest index epoch observed on any shard.", float64(st.Epoch))
		e.Gauge("fastppv_cluster_shards_behind",
			"Shards whose last observed epoch is below the cluster epoch.", float64(st.ShardsBehind))
		e.Gauge("fastppv_cluster_shards_healthy",
			"Shards currently outside their backoff window.", float64(st.ShardsHealthy))
		e.Gauge("fastppv_cluster_shards",
			"Shards the router fans out to.", float64(len(st.Shards)))
		e.Gauge("fastppv_cluster_nodes",
			"Node count of the served graph (0 until discovered).", float64(st.Nodes))
		for _, ss := range st.Shards {
			lbl := telemetry.L("shard", strconv.Itoa(ss.Shard))
			healthy := 0.0
			if ss.Healthy {
				healthy = 1
			}
			e.Gauge("fastppv_shard_healthy", "Whether the shard is outside its backoff window (1/0).", healthy, lbl)
			e.Gauge("fastppv_shard_epoch", "Last index epoch observed on the shard.", float64(ss.Epoch), lbl)
			e.Counter("fastppv_shard_failures_total", "Failed sub-requests to the shard.", float64(ss.Failures), lbl)
			e.Counter("fastppv_shard_retries_total", "Sub-requests retried after a transient shard condition.", float64(ss.Retries), lbl)
			ts := ss.Transport
			streamUp := 0.0
			if ts.StreamConnected {
				streamUp = 1
			}
			e.Gauge("fastppv_shard_stream_connected",
				"Whether a binary stream to the shard is established (1/0).", streamUp, lbl)
			e.Counter("fastppv_shard_stream_reconnects_total",
				"Binary streams re-established to the shard after a break.", float64(ts.Reconnects), lbl)
			e.Counter("fastppv_shard_frames_sent_total",
				"Wire frames sent to the shard.", float64(ts.FramesSent), lbl)
			e.Counter("fastppv_shard_frames_received_total",
				"Wire frames received from the shard.", float64(ts.FramesReceived), lbl)
			e.Counter("fastppv_shard_wire_bytes_sent_total",
				"Partial-protocol bytes sent to the shard.", float64(ts.BytesSent), lbl)
			e.Counter("fastppv_shard_wire_bytes_received_total",
				"Partial-protocol bytes received from the shard.", float64(ts.BytesReceived), lbl)
		}
	})
}

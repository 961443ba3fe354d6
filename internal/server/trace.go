// trace.go holds the trace vocabulary: request IDs minted here (or taken from
// an incoming X-Fastppv-Trace header and propagated to every shard leg by the
// cluster router) and the per-iteration span type. A trace is built in one
// place, Server.compute via captureCompute (observe.go), as a RetainedTrace;
// ?trace=1 only forces its retention and returns that same trace as the
// response's "trace" member.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"net/url"
	"strconv"
	"sync/atomic"

	"fastppv/internal/cluster"
)

// TraceSpan is one per-iteration span of a traced query; router-mode spans
// also carry per-shard leg timings.
type TraceSpan struct {
	Iteration    int     `json:"iteration"`
	FrontierSize int     `json:"frontier_size"`
	HubsExpanded int     `json:"hubs_expanded,omitempty"`
	HubsSkipped  int     `json:"hubs_skipped,omitempty"`
	MassAdded    float64 `json:"mass_added"`
	L1ErrorBound float64 `json:"l1_error_bound"`
	DurationMS   float64 `json:"duration_ms"`
	// Legs are the shard sub-requests of this iteration (router mode only).
	Legs []cluster.ShardLegSpan `json:"legs,omitempty"`
}

// Trace IDs are a per-process random prefix plus an atomic counter: unique
// across a deployment with overwhelming probability, and cheap enough (two
// atomic ops, no crypto per request) to never show up on the hot path.
var (
	traceSeq    atomic.Uint64
	tracePrefix = func() string {
		var b [6]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "fastppv"
		}
		return hex.EncodeToString(b[:])
	}()
)

func newTraceID() string {
	return tracePrefix + "-" + strconv.FormatUint(traceSeq.Add(1), 16)
}

// wantTrace reports whether the request's query parameters opt into tracing.
func wantTrace(params url.Values) bool {
	v := params.Get("trace")
	return v == "1" || v == "true"
}

// traceSpans renders an answer's per-iteration stats — and, for a routed
// answer, the shard legs of each iteration — as trace spans.
func traceSpans(res *cluster.Result) []TraceSpan {
	out := make([]TraceSpan, 0, len(res.PerIteration))
	for i, st := range res.PerIteration {
		sp := TraceSpan{
			Iteration:    st.Iteration,
			FrontierSize: st.FrontierSize,
			HubsExpanded: st.HubsExpanded,
			HubsSkipped:  st.HubsSkipped,
			MassAdded:    st.MassAdded,
			L1ErrorBound: st.L1ErrorBound,
			DurationMS:   float64(st.Duration) / 1e6,
		}
		if i < len(res.Spans) {
			sp.Legs = res.Spans[i].Legs
		}
		out = append(out, sp)
	}
	return out
}

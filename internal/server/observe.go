// observe.go is the always-on side of query observability: where PR 6's
// ?trace=1 produced a trace only when the caller asked up front, the capturer
// here retains traces after the fact — every computed query is considered,
// and its per-iteration spans are kept when it was slow (over a configurable
// threshold), ended degraded, or landed on the sampling cadence. Retained
// traces live in a bounded lock-free ring buffer served by GET /v1/debug/slow
// and GET /v1/debug/trace/{id}, so the trace for last minute's p99 spike is
// retrievable without anyone having passed ?trace=1. Completed queries are
// additionally appended to the persistent query log (internal/querylog) when
// one is configured, for cmd/ppvlog to aggregate or replay offline.
package server

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"fastppv/internal/api"
	"fastppv/internal/cluster"
	"fastppv/internal/querylog"
)

// RetainedTrace is one trace kept by the always-on capturer, and why it was
// retained. It is also the "trace" member of a ?trace=1 response, so that
// response and GET /v1/debug/trace/{id} return one shape.
type RetainedTrace struct {
	TraceID string    `json:"trace_id"`
	Time    time.Time `json:"time"`
	Node    int       `json:"node"`
	Eta     int       `json:"eta"`
	// Mode is "engine" or "router".
	Mode       string  `json:"mode"`
	DurationMS float64 `json:"duration_ms"`
	// Slow, Degraded, Sampled and Explicit say why the trace was kept; more
	// than one may be set. Explicit marks a ?trace=1 request (retained too,
	// so the debug surface is a superset of on-demand tracing).
	Slow         bool        `json:"slow,omitempty"`
	Degraded     bool        `json:"degraded,omitempty"`
	Sampled      bool        `json:"sampled,omitempty"`
	Explicit     bool        `json:"explicit,omitempty"`
	L1ErrorBound float64     `json:"l1_error_bound"`
	Iterations   []TraceSpan `json:"iterations"`

	seq uint64
}

// traceRing is a bounded lock-free ring of retained traces: add is two atomic
// operations (a sequence fetch-add and a slot store), eviction is implicit —
// the oldest trace is overwritten once the ring wraps — and readers snapshot
// whatever is resident without blocking writers.
type traceRing struct {
	slots []atomic.Pointer[RetainedTrace]
	seq   atomic.Uint64
}

func newTraceRing(capacity int) *traceRing {
	return &traceRing{slots: make([]atomic.Pointer[RetainedTrace], capacity)}
}

func (r *traceRing) add(t *RetainedTrace) {
	t.seq = r.seq.Add(1)
	r.slots[int(t.seq%uint64(len(r.slots)))].Store(t)
}

// captured returns how many traces were ever retained (resident + evicted).
func (r *traceRing) captured() uint64 { return r.seq.Load() }

// snapshot returns the resident traces, newest first. Concurrent adds may or
// may not be included — the ring never blocks for a consistent cut.
func (r *traceRing) snapshot(limit int) []*RetainedTrace {
	out := make([]*RetainedTrace, 0, len(r.slots))
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	// Insertion sort on seq descending: the ring is small (hundreds) and
	// nearly sorted already.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].seq > out[j-1].seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func (r *traceRing) find(id string) *RetainedTrace {
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil && t.TraceID == id {
			return t
		}
	}
	return nil
}

// captureCompute decides, at the end of one computation, whether its trace is
// retained: unconditionally when the computation exceeded the slow threshold,
// ended degraded or was explicitly traced (explicitID, the caller's trace id,
// is then the retained id), and on the sampling cadence otherwise (every
// TraceSampleEvery-th untraced computation). Spans are only assembled when
// the trace is actually kept, so the hot path pays one atomic increment and
// two compares. It records the verdict on ans (traceID, slow) and returns the
// retained trace, nil when none was kept.
func (s *Server) captureCompute(eta int, ans *cachedAnswer, explicitID string) *RetainedTrace {
	dur := ans.result.Duration
	explicit := explicitID != ""
	ans.slow = s.cfg.SlowThreshold > 0 && dur >= s.cfg.SlowThreshold
	if ans.slow {
		s.metrics.slowQueries.Inc()
	}
	sampled := !explicit && s.cfg.TraceSampleEvery > 0 && s.sampleCtr.Add(1)%uint64(s.cfg.TraceSampleEvery) == 0
	degraded := ans.result.Degraded
	if !ans.slow && !degraded && !sampled && !explicit {
		return nil
	}
	ans.traceID = explicitID
	if !explicit {
		ans.traceID = newTraceID()
	}
	t := &RetainedTrace{
		TraceID:      ans.traceID,
		Time:         time.Now(),
		Node:         int(ans.result.Query),
		Eta:          eta,
		Mode:         modeNames[s.be.mode()],
		DurationMS:   float64(dur) / 1e6,
		Slow:         ans.slow,
		Degraded:     degraded,
		Sampled:      sampled && !ans.slow && !degraded,
		Explicit:     explicit,
		L1ErrorBound: ans.result.L1ErrorBound,
		Iterations:   traceSpans(ans.result),
	}
	s.traces.add(t)
	return t
}

// legSummaries folds router-mode iteration spans into one per-shard summary
// (sub-request count and summed latency), the compact form the query log
// records, in ascending shard order. Skipped legs (down shards) are excluded —
// they carry no timing — and a shard with no other leg gets no summary.
func legSummaries(spans []cluster.IterationSpan) []querylog.LegSummary {
	var out []querylog.LegSummary // indexed by shard until the final compaction
	for _, it := range spans {
		for _, leg := range it.Legs {
			if leg.Skipped {
				continue
			}
			for len(out) <= leg.Shard {
				out = append(out, querylog.LegSummary{Shard: uint16(len(out))})
			}
			sum := &out[leg.Shard]
			sum.Legs++
			us := sum.DurationUS + uint32(leg.DurationMS*1e3)
			if us < sum.DurationUS { // clamp on overflow
				us = ^uint32(0)
			}
			sum.DurationUS = us
		}
	}
	kept := out[:0]
	for _, sum := range out {
		if sum.Legs > 0 {
			kept = append(kept, sum)
		}
	}
	return kept
}

// logQuery appends one completed query to the persistent log. Append is a
// short critical section and a buffered write (durability follows at the next
// batched fsync), so this sits directly on the serving path.
func (s *Server) logQuery(req queryRequest, ans *cachedAnswer, state cacheState, lat time.Duration, explicit bool) {
	if s.qlog == nil {
		return
	}
	var flags uint8
	if ans.result.Degraded {
		flags |= querylog.FlagDegraded
	}
	switch state {
	case cacheHit:
		flags |= querylog.FlagCacheHit
	case cacheCoalesced:
		flags |= querylog.FlagCoalesced
	}
	if ans.slow {
		flags |= querylog.FlagSlow
	}
	if explicit {
		flags |= querylog.FlagTraced
	}
	iters := ans.result.Iterations
	if iters > 255 {
		iters = 255
	}
	us := lat.Microseconds()
	if us > int64(^uint32(0)) {
		us = int64(^uint32(0))
	}
	eta := req.eta
	if eta > 255 {
		eta = 255
	}
	top := req.top
	if top > int(^uint16(0)) {
		top = int(^uint16(0))
	}
	_ = s.qlog.Append(querylog.Record{
		Source:     req.node,
		Top:        uint16(top),
		Eta:        uint8(eta),
		Mode:       s.be.mode(),
		Flags:      flags,
		Iterations: uint8(iters),
		Epoch:      ans.result.Epoch,
		LatencyUS:  uint32(us),
		Bound:      ans.result.L1ErrorBound,
		TraceID:    ans.traceID,
		Legs:       ans.legs,
	})
}

// debugSlowResponse is the body of GET /v1/debug/slow.
type debugSlowResponse struct {
	// Captured counts every trace ever retained; Retained is how many are
	// still resident in the ring (the rest were overwritten).
	Captured        uint64           `json:"captured"`
	Retained        int              `json:"retained"`
	SlowThresholdMS float64          `json:"slow_threshold_ms"`
	Traces          []*RetainedTrace `json:"traces"`
}

// handleDebugSlow serves the retained-trace ring, newest first. Like /metrics
// and /healthz it is mounted outside instrument: it is operator traffic whose
// latency would only dilute the request histograms.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, badRequest("bad n %q", v))
			return
		}
		limit = n
	}
	traces := s.traces.snapshot(limit)
	writeJSON(w, http.StatusOK, debugSlowResponse{
		Captured:        s.traces.captured(),
		Retained:        len(traces),
		SlowThresholdMS: float64(s.cfg.SlowThreshold) / 1e6,
		Traces:          traces,
	})
}

// handleDebugTrace serves one retained trace by id, 404 when it was never
// captured or has been overwritten.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t := s.traces.find(id)
	if t == nil {
		writeError(w, &httpError{status: http.StatusNotFound, code: api.CodeBadRequest,
			msg: "trace " + id + " not retained (never captured, or evicted from the ring)"})
		return
	}
	writeJSON(w, http.StatusOK, t)
}

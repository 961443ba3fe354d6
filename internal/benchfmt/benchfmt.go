// Package benchfmt defines the JSON report the ad-hoc load generator writes
// (ppvload -json) and the percentile summary it shares with ppvlog. The
// repo benchmark proper is the bench/ module; this is the client-side view
// of one load run against a running daemon.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Schema is the format identifier stamped into every report.
const Schema = "fastppv-bench/v1"

// Report is one load run.
type Report struct {
	Schema string `json:"schema"`
	// Source names the producing tool ("ppvload").
	Source string `json:"source"`
	// Mode is "engine" or "router", matching the trace block's mode.
	Mode      string    `json:"mode"`
	Timestamp time.Time `json:"timestamp"`

	Graph    GraphInfo    `json:"graph"`
	Workload WorkloadInfo `json:"workload"`

	// QPS is successful requests per wall-clock second across all workers.
	QPS       float64     `json:"qps"`
	LatencyMS Percentiles `json:"latency_ms"`
	// BytesPerQuery is the mean HTTP response body size of successful
	// queries.
	BytesPerQuery float64 `json:"bytes_per_query"`
	// ErrorBound summarizes the exact L1 error bound reported per response.
	ErrorBound Percentiles `json:"error_bound"`

	CacheHitRate float64 `json:"cache_hit_rate"`
	Failures     int     `json:"failures"`

	// SlowQueries counts requests over the client-side slow threshold
	// (ppvload -slow-ms) and WorstTraceID is the server-retained trace id of
	// the slowest of them (from the X-Fastppv-Trace response header), ready
	// for GET /v1/debug/trace/{id}.
	SlowQueries  int    `json:"slow_queries,omitempty"`
	WorstTraceID string `json:"worst_trace_id,omitempty"`
}

// GraphInfo describes the dataset the run was served from.
type GraphInfo struct {
	Nodes int `json:"nodes"`
}

// WorkloadInfo describes the client side of the run.
type WorkloadInfo struct {
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	ZipfS       float64 `json:"zipf_s,omitempty"`
	Eta         int     `json:"eta"`
	Top         int     `json:"top"`
}

// Percentiles is the five-point summary used for both latencies and error
// bounds.
type Percentiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
	N   int     `json:"n"`
}

// Summarize computes the percentile summary of xs. It sorts a copy; an empty
// input yields the zero summary.
func Summarize(xs []float64) Percentiles {
	if len(xs) == 0 {
		return Percentiles{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 { return s[int(q*float64(len(s)-1))] }
	return Percentiles{
		P50: at(0.50), P90: at(0.90), P99: at(0.99),
		Max: s[len(s)-1], N: len(s),
	}
}

// SummarizeDurations is Summarize over latencies, reported in milliseconds.
func SummarizeDurations(ds []time.Duration) Percentiles {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	return Summarize(xs)
}

// WriteFile writes the report as indented JSON; "-" writes to stdout.
func WriteFile(path string, r *Report) error {
	r.Schema = Schema
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing bench report: %w", err)
	}
	return nil
}

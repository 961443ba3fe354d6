package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef names one metric of the benchmark. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatchesHarness holds the two
// together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a caller of the service sees. Every one is a
// non-zero number on every workload, which the benchmark contract requires;
// the issue's other two (fail_share, always 0 on a healthy run, and
// update_p50_ms, defined on one workload only) are layer metrics below and
// still appear in every result file.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"qps", "1/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"l1_bound_p50", "l1", "lower"},
	{"l1_err_p50", "l1", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"index_bytes", "bytes", "lower"},
}

// traceLayers are the layers of the stacked traced run, outermost first.
// cluster only has spans on cluster2_uncached.
var traceLayers = []string{"http", "server", "cluster", "core", "prime", "ppvindex", "sparse"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"query_p99_ms", "ms", "lower"},
		{"fail_share", "share", "lower"},
		{"update_p50_ms", "ms", "lower"},
		{"update_p80_ms", "ms", "lower"},
		{"query_samples", "count", "higher"},
		{"trace_overhead_us", "us", "lower"},

		{"gen.graph_s", "s", "lower"},
		{"hub.select_s", "s", "lower"},

		{"prime.ppv_us_p50", "us", "lower"},
		{"prime.pushes_per_ppv", "count", "lower"},
		{"prime.nodes_touched_per_ppv", "count", "lower"},
		{"prime.allocs_per_ppv", "count", "lower"},
		{"prime.alloc_bytes_per_ppv", "bytes", "lower"},

		{"sparse.fold_us_p50", "us", "lower"},
		{"sparse.fold_ns_per_entry", "ns", "lower"},
		{"sparse.entries_per_fold", "count", "lower"},
		{"sparse.topk_us_p50", "us", "lower"},

		{"ppvindex.view_ns.mem_get", "ns", "lower"},
		{"ppvindex.view_ns.mmap", "ns", "lower"},
		{"ppvindex.view_ns.pread", "ns", "lower"},
		{"ppvindex.view_ns.blockcache_hit", "ns", "lower"},
		{"ppvindex.get_decoded_ns", "ns", "lower"},
		{"ppvindex.record_bytes_p50", "bytes", "lower"},
		{"ppvindex.blockcache_hit_rate", "share", "higher"},
		{"ppvindex.blockcache_evictions", "count", "lower"},
		{"ppvindex.disk_reads_per_query", "count", "lower"},
		{"ppvindex.wal_commit_ms_p50", "ms", "lower"},
		{"ppvindex.wal_bytes_per_update", "bytes", "lower"},
		{"ppvindex.compact_ms", "ms", "lower"},
		{"ppvindex.compact_bytes", "bytes", "lower"},

		{"core.query_us_p50", "us", "lower"},
		{"core.iter0_us_p50", "us", "lower"},
		{"core.step_us_p50", "us", "lower"},
		{"core.allocs_per_query", "count", "lower"},
		{"core.alloc_bytes_per_query", "bytes", "lower"},
		{"core.hubs_expanded_per_query", "count", "lower"},
		{"core.hubs_skipped_per_query", "count", "lower"},
		{"core.pool_hit_rate", "share", "higher"},
		{"core.precompute_s", "s", "lower"},
		{"core.precompute_alloc_mb", "MB", "lower"},
		{"core.update_ms_p50", "ms", "lower"},
		{"core.update_affected_hubs_mean", "count", "lower"},

		{"server.inproc_miss_us_p50", "us", "lower"},
		{"server.inproc_hit_us_p50", "us", "lower"},
		{"server.http_overhead_us", "us", "lower"},
		{"server.resp_bytes_per_query", "bytes", "lower"},
		{"server.cache_hit_rate", "share", "higher"},
		{"server.coalesced_share", "share", "higher"},
		{"server.degraded_share", "share", "lower"},
		{"server.open1000_p50_ms", "ms", "lower"},
		{"server.open1000_p99_ms", "ms", "lower"},
		{"server.open1000_late_ms_p99", "ms", "lower"},
		{"server.rss_peak_mb", "MB", "lower"},
		{"server.allocs_per_request", "count", "lower"},

		{"api.encode_partial_us", "us", "lower"},
		{"api.decode_partial_us", "us", "lower"},
		{"api.frame_bytes_per_partial", "bytes", "lower"},

		{"cluster.router_us_p50", "us", "lower"},
		{"cluster.legs_per_query", "count", "lower"},
		{"cluster.wire_bytes_per_query", "bytes", "lower"},
		{"cluster.speculation_hit_rate", "share", "higher"},
		{"cluster.vs_single_ratio", "ratio", "lower"},

		{"querylog.append_ns", "ns", "lower"},
		{"querylog.bytes_per_record", "bytes", "lower"},

		{"telemetry.observe_ns", "ns", "lower"},
	}
	for _, l := range traceLayers {
		defs = append(defs,
			metricDef{l + ".self_us_p50", "us", "lower"},
			metricDef{l + ".self_share", "share", "lower"})
	}
	return defs
}

// hostInfo records where a result's numbers came from.
type hostInfo struct {
	NumCPU    int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

func thisHost() hostInfo {
	return hostInfo{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
}

// metricSet maps a metric name to its value; an absent name is "not
// applicable on this workload" and is written as null.
type metricSet map[string]float64

// Result is one run of one workload, as written to result_<workload>.json.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	DurationS float64  `json:"duration_s"`
	Nodes     int      `json:"nodes"`
	Hubs      int      `json:"hubs"`
	Host      hostInfo `json:"host"`

	Correct   bool     `json:"correct"`
	Failures  []string `json:"failures,omitempty"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`

	// Slices are the five cuts of the timed phase the percentile medians are
	// taken over; SetupRuns are the individual set-up times setup_s is the
	// median of.
	Slices    []sliceStat `json:"slices"`
	SetupRuns []float64   `json:"setup_runs_s"`
	// ThinSlices names the slices under the workload's sample floor. They
	// fail a ledger run; a driver run only records them (see main).
	ThinSlices []string `json:"thin_slices,omitempty"`

	EndToEnd metricSet `json:"-"`
	PerLayer metricSet `json:"-"`
	// Spread is, per end-to-end metric, the quartile spread of the slice (or
	// set-up) values its median was taken over; 0 for single-valued metrics.
	Spread metricSet `json:"spread"`
}

// resultFile is the on-disk shape: every registered name is present, null
// where it does not apply.
type resultFile struct {
	*Result
	EndToEnd map[string]*float64 `json:"end_to_end"`
	PerLayer map[string]*float64 `json:"per_layer"`
}

func nullable(defs []metricDef, m metricSet) map[string]*float64 {
	out := make(map[string]*float64, len(defs))
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			out[d.Name] = &v
		} else {
			out[d.Name] = nil
		}
	}
	return out
}

func fromNullable(m map[string]*float64) metricSet {
	out := metricSet{}
	for k, v := range m {
		if v != nil {
			out[k] = *v
		}
	}
	return out
}

func (r *Result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(resultFile{Result: r,
		EndToEnd: nullable(endToEnd, r.EndToEnd), PerLayer: nullable(perLayer, r.PerLayer)}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result_"+r.Workload+".json"), append(b, '\n'), 0o644)
}

func readResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := resultFile{Result: &Result{}}
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rf.Result.EndToEnd, rf.Result.PerLayer = fromNullable(rf.EndToEnd), fromNullable(rf.PerLayer)
	return rf.Result, nil
}

// print writes every metric as "name value unit", one per line, end-to-end
// first; a metric that does not apply prints "null".
func (r *Result) print(w *strings.Builder) {
	fmt.Fprintf(w, "# workload %s seed %d duration %gs nodes %d hubs %d samples %d failed %d/%d correct %v\n",
		r.Workload, r.Seed, r.DurationS, r.Nodes, r.Hubs, int64(r.PerLayer["query_samples"]), r.Failed, r.Attempted, r.Correct)
	line := func(d metricDef, m metricSet) {
		if v, ok := m[d.Name]; ok {
			fmt.Fprintf(w, "%s %.6g %s\n", d.Name, v, d.Unit)
		} else {
			fmt.Fprintf(w, "%s null %s\n", d.Name, d.Unit)
		}
	}
	for _, d := range endToEnd {
		line(d, r.EndToEnd)
	}
	for _, d := range perLayer {
		line(d, r.PerLayer)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
}

// driverLine is the one JSON object the benchmark contract wants as the last
// line of standard output: every end-to-end metric with -trace 0, every
// per-layer metric with -trace 1. A per-layer metric that does not apply to
// the workload reads 0 there (the contract has no null).
func (r *Result) driverLine(traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.EndToEnd
	if traced {
		defs, vals = perLayer, r.PerLayer
	}
	ms := make(map[string]mv, len(defs))
	for _, d := range defs {
		ms[d.Name] = mv{vals[d.Name], d.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, attempted, r.Failed, ms})
	return string(b)
}

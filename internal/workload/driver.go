package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastppv/internal/api"
	"fastppv/internal/graph"
)

// Request is one entry of a load sequence: a GET /v1/ppv query for Node, or,
// when Update is set, a POST /v1/update adding the one edge Node→To.
type Request struct {
	Node     graph.NodeID
	Eta, Top int
	Update   bool
	To       graph.NodeID
}

// ZipfSequence draws n requests from one Zipf popularity ranking over
// [0, numNodes), so request i depends only on (opts.Seed, i) and every
// worker that later plays the sequence shares one hot set. With updateEvery
// > 0, every updateEvery-th request (1-based) is a one-edge update between
// two draws.
func ZipfSequence(numNodes, n int, opts ZipfOptions, eta, top, updateEvery int) ([]Request, error) {
	zs, err := NewZipfSampler(numNodes, opts)
	if err != nil {
		return nil, err
	}
	seq := make([]Request, n)
	for i := range seq {
		seq[i] = Request{Node: zs.Next(), Eta: eta, Top: top}
		if updateEvery > 0 && (i+1)%updateEvery == 0 {
			seq[i].Update, seq[i].To = true, zs.Next()
			if seq[i].To == seq[i].Node {
				seq[i].To = (seq[i].To + 1) % graph.NodeID(numNodes)
			}
		}
	}
	return seq, nil
}

// timeout bounds every request a Driver makes.
const timeout = 30 * time.Second

// Driver plays request sequences against fastppvd targets over one HTTP
// client, so every query, update and stats read is bounded by its timeout: a
// hung target fails its requests instead of stalling the run.
type Driver struct {
	targets []string
	client  *http.Client
}

// NewDriver normalizes each target (a bare host:port gains http://, see
// api.NormalizeTarget).
func NewDriver(targets []string) (*Driver, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("workload: no targets")
	}
	d := &Driver{targets: make([]string, len(targets)), client: &http.Client{Timeout: timeout}}
	for i, t := range targets {
		var err error
		if d.targets[i], err = api.NormalizeTarget(t); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Targets returns the normalized targets.
func (d *Driver) Targets() []string { return d.targets }

// Stats decodes target i's GET /v1/stats body into v.
func (d *Driver) Stats(i int, v any) error {
	resp, err := d.client.Get(d.targets[i] + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/stats returned %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Percentiles is the five-point summary used for latencies and error bounds.
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
	return Percentiles{P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: s[len(s)-1], N: len(s)}
}

// SummarizeDurations is Summarize over latencies, reported in milliseconds.
func SummarizeDurations(ds []time.Duration) Percentiles {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	return Summarize(xs)
}

// Report is the client-side view of one run. Latency and bound summaries
// cover successful requests only, so LatencyMS.N and UpdateLatencyMS.N count
// the successful queries and updates.
type Report struct {
	Targets     []string `json:"targets"`
	Requests    int      `json:"requests"`
	Concurrency int      `json:"concurrency"`
	ElapsedS    float64  `json:"elapsed_s"`
	// QPS is successful requests, queries and updates, per wall-clock second.
	QPS float64 `json:"qps"`
	// Failures counts failed requests, updates included; FailuresByCode
	// splits them into "transport" (no response), the api error code of a
	// non-200 answer, "http_<status>" when that answer carries no code, and
	// "decode" for a 200 whose body is not a PPV answer.
	Failures       int            `json:"failures"`
	FailuresByCode map[string]int `json:"failures_by_code,omitempty"`
	UpdateFailures int            `json:"update_failures"`

	LatencyMS Percentiles `json:"latency_ms"`
	// TargetLatencyMS is LatencyMS per target, in Targets order.
	TargetLatencyMS []Percentiles `json:"target_latency_ms"`
	UpdateLatencyMS Percentiles   `json:"update_latency_ms"`
	// ErrorBound summarizes the l1_error_bound of each answer.
	ErrorBound Percentiles `json:"error_bound"`
	// Cache counts answers by their X-Fastppv-Cache state (hit, miss,
	// coalesced).
	Cache         map[string]int `json:"cache"`
	CacheHitRate  float64        `json:"cache_hit_rate"`
	Degraded      int            `json:"degraded"`
	MaxShardsDown int            `json:"max_shards_down"`
	// BytesPerQuery is the mean response body size of successful queries.
	BytesPerQuery float64 `json:"bytes_per_query"`

	// SlowMS is the client-side slow threshold (0 = off). SlowQueries counts
	// answers over it; WorstTraceID is the server-retained trace id (the
	// X-Fastppv-Trace response header) of the slowest of them that has one,
	// ready for GET /v1/debug/trace/{id}.
	SlowMS       float64 `json:"slow_ms,omitempty"`
	SlowQueries  int     `json:"slow_queries"`
	WorstTraceID string  `json:"worst_trace_id,omitempty"`
	WorstSlowMS  float64 `json:"worst_slow_ms,omitempty"`
}

// outcome is what one request observed.
type outcome struct {
	latency    time.Duration
	errCode    string // empty on success
	state      string // X-Fastppv-Cache
	traceID    string // X-Fastppv-Trace
	bytes      int
	degraded   bool
	shardsDown int
	bound      float64
}

// Run plays seq over concurrency workers (at least one) and waits for it to
// finish. Query i goes to target i mod len(targets); updates go to target 0
// (the router in a cluster, which fans the batch out to every shard). A slow
// threshold <= 0 disables slow-query counting.
func (d *Driver) Run(seq []Request, concurrency int, slow time.Duration) *Report {
	concurrency = max(concurrency, 1)
	outcomes := make([]outcome, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				outcomes[i] = d.do(i, seq[i])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	r := &Report{
		Targets: d.targets, Requests: len(seq), Concurrency: concurrency,
		ElapsedS: elapsed.Seconds(), FailuresByCode: map[string]int{}, Cache: map[string]int{},
	}
	var lat, updLat []time.Duration
	var bounds []float64
	perTarget := make([][]time.Duration, len(d.targets))
	var bytes int64
	var worstSlow time.Duration
	for i, o := range outcomes {
		if o.errCode != "" {
			r.Failures++
			if seq[i].Update {
				r.UpdateFailures++
			}
			r.FailuresByCode[o.errCode]++
			continue
		}
		if seq[i].Update {
			updLat = append(updLat, o.latency)
			continue
		}
		lat = append(lat, o.latency)
		perTarget[i%len(d.targets)] = append(perTarget[i%len(d.targets)], o.latency)
		bounds = append(bounds, o.bound)
		bytes += int64(o.bytes)
		r.Cache[o.state]++
		if o.degraded {
			r.Degraded++
		}
		r.MaxShardsDown = max(r.MaxShardsDown, o.shardsDown)
		if slow > 0 && o.latency > slow {
			r.SlowQueries++
			if o.traceID != "" && o.latency > worstSlow {
				worstSlow, r.WorstTraceID = o.latency, o.traceID
			}
		}
	}
	r.QPS = float64(len(lat)+len(updLat)) / elapsed.Seconds()
	r.LatencyMS = SummarizeDurations(lat)
	r.UpdateLatencyMS = SummarizeDurations(updLat)
	for _, l := range perTarget {
		r.TargetLatencyMS = append(r.TargetLatencyMS, SummarizeDurations(l))
	}
	r.ErrorBound = Summarize(bounds)
	if len(lat) > 0 {
		r.CacheHitRate = float64(r.Cache["hit"]) / float64(len(lat))
		r.BytesPerQuery = float64(bytes) / float64(len(lat))
	}
	if slow > 0 {
		r.SlowMS = float64(slow) / 1e6
	}
	r.WorstSlowMS = float64(worstSlow) / 1e6
	return r
}

// do issues request i and classifies its outcome.
func (d *Driver) do(i int, req Request) outcome {
	t0 := time.Now()
	var resp *http.Response
	var err error
	if req.Update {
		body := fmt.Sprintf(`{"added_edges":[[%d,%d]]}`, req.Node, req.To)
		resp, err = d.client.Post(d.targets[0]+"/v1/update", "application/json", strings.NewReader(body))
	} else {
		resp, err = d.client.Get(fmt.Sprintf("%s/v1/ppv?node=%d&eta=%d&top=%d",
			d.targets[i%len(d.targets)], req.Node, req.Eta, req.Top))
	}
	if err != nil {
		return outcome{errCode: "transport"}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	o := outcome{latency: time.Since(t0)}
	switch {
	case err != nil:
		o.errCode = "transport"
	case resp.StatusCode != http.StatusOK:
		var eresp api.ErrorResponse
		if json.Unmarshal(raw, &eresp) == nil && eresp.Error.Code != "" {
			o.errCode = eresp.Error.Code
		} else {
			o.errCode = fmt.Sprintf("http_%d", resp.StatusCode)
		}
	case !req.Update:
		var body struct {
			Degraded     bool    `json:"degraded"`
			ShardsDown   int     `json:"shards_down"`
			L1ErrorBound float64 `json:"l1_error_bound"`
		}
		if json.Unmarshal(raw, &body) != nil {
			o.errCode = "decode"
		}
		o.state = resp.Header.Get("X-Fastppv-Cache")
		o.traceID = resp.Header.Get(api.TraceHeader)
		o.bytes = len(raw)
		o.degraded, o.shardsDown, o.bound = body.Degraded, body.ShardsDown, body.L1ErrorBound
	}
	return o
}

// Print writes the human-readable summary of r, one line per aspect; the
// caller prints its own headline first.
func (r *Report) Print(w io.Writer) {
	if len(r.FailuresByCode) > 0 {
		codes := make([]string, 0, len(r.FailuresByCode))
		for c, n := range r.FailuresByCode {
			codes = append(codes, fmt.Sprintf("%s=%d", c, n))
		}
		sort.Strings(codes)
		fmt.Fprintf(w, "failures by code: %s\n", strings.Join(codes, " "))
	}
	if r.LatencyMS.N > 0 {
		fmt.Fprintf(w, "latency ms: %v\n", r.LatencyMS)
	}
	if r.UpdateLatencyMS.N > 0 {
		fmt.Fprintf(w, "update latency ms: %v (%d applied, %d failed)\n",
			r.UpdateLatencyMS, r.UpdateLatencyMS.N, r.UpdateFailures)
	} else if r.UpdateFailures > 0 {
		fmt.Fprintf(w, "updates: all %d failed\n", r.UpdateFailures)
	}
	if len(r.Targets) > 1 {
		for i, t := range r.Targets {
			if p := r.TargetLatencyMS[i]; p.N > 0 {
				fmt.Fprintf(w, "  target %s: %v (%d ok)\n", t, p, p.N)
			} else {
				fmt.Fprintf(w, "  target %s: no successful requests\n", t)
			}
		}
	}
	if b := r.ErrorBound; b.N > 0 {
		fmt.Fprintf(w, "error bound: p50=%.4f p90=%.4f p99=%.4f max=%.4f\n", b.P50, b.P90, b.P99, b.Max)
		fmt.Fprintf(w, "responses: hit=%d miss=%d coalesced=%d degraded=%d (max shards down %d)\n",
			r.Cache["hit"], r.Cache["miss"], r.Cache["coalesced"], r.Degraded, r.MaxShardsDown)
	}
	if r.SlowQueries > 0 {
		line := fmt.Sprintf("slow queries (>%gms): %d", r.SlowMS, r.SlowQueries)
		if r.WorstTraceID != "" {
			line += fmt.Sprintf(", worst retained trace %s (%.3fms) — GET /v1/debug/trace/%s",
				r.WorstTraceID, r.WorstSlowMS, r.WorstTraceID)
		}
		fmt.Fprintln(w, line)
	}
}

// String renders p with three decimals, the form latency lines print.
func (p Percentiles) String() string {
	return fmt.Sprintf("p50=%.3f p90=%.3f p99=%.3f max=%.3f", p.P50, p.P90, p.P99, p.Max)
}

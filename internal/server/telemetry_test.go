package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fastppv/internal/api"
	"fastppv/internal/cluster"
	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/telemetry"
)

// TestMetricsEndpointEngineMode scrapes /metrics on a single-node server and
// checks the families the engine mode must export are present and that the
// output is structurally valid Prometheus text.
func TestMetricsEndpointEngineMode(t *testing.T) {
	g := socialGraph(t, 300)
	srv, err := New(testEngine(t, g, 40), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Drive one miss and one hit so the counters move.
	get(t, ts, "/v1/ppv?node=5&eta=2")
	get(t, ts, "/v1/ppv?node=5&eta=2")

	st, hdr, body := get(t, ts, "/metrics")
	if st != http.StatusOK {
		t.Fatalf("/metrics = %d: %s", st, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition format", ct)
	}
	out := string(body)
	for _, want := range []string{
		`fastppv_http_request_seconds_bucket{endpoint="ppv",le="+Inf"}`,
		`fastppv_http_requests_total{endpoint="ppv",code="2xx"} 2`,
		"fastppv_queries_computed_total 1",
		"fastppv_cache_hits_total 1",
		"fastppv_cache_misses_total 1",
		"fastppv_index_epoch 0",
		"fastppv_graph_nodes 300",
		"fastppv_admission_admitted_total 1",
		"# TYPE fastppv_query_l1_error_bound histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// /metrics must not instrument itself: no "metrics" endpoint label.
	if strings.Contains(out, `endpoint="metrics"`) {
		t.Error("/metrics self-instrumented")
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Fatal("blank line in /metrics output")
		}
		if !strings.HasPrefix(line, "#") && !strings.Contains(line, " ") {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

// routerWithRegistry serves a router over two in-process shards of g behind a
// server that shares the router's registry, as fastppvd does.
func routerWithRegistry(t *testing.T, g *graph.Graph) (*httptest.Server, *cluster.Router) {
	t.Helper()
	shards := shardedServers(t, g, 40, 2)
	reg := telemetry.NewRegistry()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Targets:  []string{shards[0].URL, shards[1].URL},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv, err := NewRouter(rt, Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, rt
}

// TestMetricsEndpointRouterMode shares one registry between a router and its
// fronting server and checks the shard-leg and epoch families appear on the
// router's /metrics.
func TestMetricsEndpointRouterMode(t *testing.T) {
	ts, _ := routerWithRegistry(t, socialGraph(t, 300))
	if st, _, body := get(t, ts, "/v1/ppv?node=7&eta=2"); st != http.StatusOK {
		t.Fatalf("routed query failed: %d %s", st, body)
	}
	st, _, body := get(t, ts, "/metrics")
	if st != http.StatusOK {
		t.Fatalf("/metrics = %d", st)
	}
	out := string(body)
	for _, want := range []string{
		`fastppv_shard_leg_seconds_bucket{shard="0",le="+Inf"}`,
		`fastppv_shard_leg_seconds_bucket{shard="1",le="+Inf"}`,
		"fastppv_cluster_epoch 0",
		"fastppv_cluster_shards_behind 0",
		"fastppv_cluster_shards_healthy 2",
		"fastppv_queries_computed_total 1",
		`fastppv_shard_failures_total{shard="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
}

// scrapeValue returns the value of the one sample of series (name plus its
// label set, exactly as rendered) in a /metrics body.
func scrapeValue(t *testing.T, out, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no sample %s", series)
	return 0
}

// TestNoExportedNumberIsACopy: in router mode every served number has one
// producer. A shard's request count and mean latency on /v1/stats are read
// off its leg-latency histogram, and the families that re-exported the
// serving layer's per-query counts or the histogram's count are gone.
func TestNoExportedNumberIsACopy(t *testing.T) {
	ts, _ := routerWithRegistry(t, socialGraph(t, 300))
	for _, node := range []int{3, 7, 11, 19, 42} {
		if st, _, body := get(t, ts, fmt.Sprintf("/v1/ppv?node=%d&eta=3", node)); st != http.StatusOK {
			t.Fatalf("routed query of %d failed: %d %s", node, st, body)
		}
	}
	if st, body := post(t, ts, "/v1/update", `{"added_edges":[[1,2],[3,4]]}`); st != http.StatusOK {
		t.Fatalf("update failed: %d %s", st, body)
	}
	if st, _, body := get(t, ts, "/v1/ppv?node=3&eta=3"); st != http.StatusOK {
		t.Fatalf("post-update query failed: %d %s", st, body)
	}

	var stats StatsResponse
	_, _, statsBody := get(t, ts, "/v1/stats")
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(statsBody), "max_latency_ms") {
		t.Error("/v1/stats still serves max_latency_ms")
	}
	_, _, body := get(t, ts, "/metrics")
	out := string(body)
	if stats.Cluster == nil || len(stats.Cluster.Shards) != 2 {
		t.Fatalf("stats cluster block = %+v, want two shards", stats.Cluster)
	}
	for i, ss := range stats.Cluster.Shards {
		lbl := fmt.Sprintf(`{shard="%d"}`, i)
		count := scrapeValue(t, out, "fastppv_shard_leg_seconds_count"+lbl)
		sum := scrapeValue(t, out, "fastppv_shard_leg_seconds_sum"+lbl)
		if count == 0 || float64(ss.Requests) != count {
			t.Errorf("shard %d: stats requests %d, leg histogram count %v", i, ss.Requests, count)
		}
		if want := sum / count * 1e3; math.Abs(ss.MeanLatencyMS-want) > 1e-12*want {
			t.Errorf("shard %d: stats mean_latency_ms %v, leg histogram sum/count %v", i, ss.MeanLatencyMS, want)
		}
	}
	for _, gone := range []string{
		"fastppv_router_queries_total",
		"fastppv_router_query_iterations",
		"fastppv_router_l1_error_bound",
		"fastppv_shard_requests_total",
	} {
		if strings.Contains(out, gone) {
			t.Errorf("/metrics still exports %s", gone)
		}
	}
	// The per-query numbers are recorded once, by the serving layer: six
	// computations (the post-update query misses the retired cache entry).
	if got := scrapeValue(t, out, "fastppv_queries_computed_total"); got != 6 {
		t.Errorf("fastppv_queries_computed_total = %v, want 6", got)
	}
	if got := scrapeValue(t, out, "fastppv_query_iterations_count"); got != 6 {
		t.Errorf("fastppv_query_iterations_count = %v, want 6", got)
	}
}

// TestTraceRoutedQuery sends ?trace=1 through the router front and checks the
// response carries per-iteration spans with per-shard leg timings, the trace
// header, and is never cached.
func TestTraceRoutedQuery(t *testing.T) {
	g := socialGraph(t, 400)
	shards := shardedServers(t, g, 60, 2)
	routerTS, _ := routerServer(t, []string{shards[0].URL, shards[1].URL})

	// Warm the cache with an untraced query so the traced one would hit if it
	// (incorrectly) consulted the cache.
	path := "/v1/ppv?node=9&eta=3&top=5"
	get(t, routerTS, path)

	st, hdr, body := get(t, routerTS, path+"&trace=1")
	if st != http.StatusOK {
		t.Fatalf("traced query = %d: %s", st, body)
	}
	if hdr.Get("X-Fastppv-Cache") != string(cacheBypass) {
		t.Errorf("traced query cache state = %q, want bypass", hdr.Get("X-Fastppv-Cache"))
	}
	tid := hdr.Get(api.TraceHeader)
	if tid == "" {
		t.Error("traced response missing the trace header")
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatalf("no trace block in %s", body)
	}
	if resp.Trace.TraceID != tid {
		t.Errorf("trace block ID %q != header %q", resp.Trace.TraceID, tid)
	}
	if resp.Trace.Mode != "router" {
		t.Errorf("trace mode = %q, want router", resp.Trace.Mode)
	}
	if len(resp.Trace.Iterations) != resp.Iterations+1 {
		t.Fatalf("%d spans for %d iterations (+root)", len(resp.Trace.Iterations), resp.Iterations)
	}
	if resp.Trace.Iterations[0].Iteration != 0 || len(resp.Trace.Iterations[0].Legs) == 0 {
		t.Errorf("root span malformed: %+v", resp.Trace.Iterations[0])
	}
	sawLeg := false
	for _, span := range resp.Trace.Iterations[1:] {
		if span.FrontierSize == 0 {
			t.Errorf("iteration %d span has zero frontier", span.Iteration)
		}
		for _, leg := range span.Legs {
			sawLeg = true
			if leg.Skipped || leg.Error != "" {
				t.Errorf("healthy-cluster leg reports a fault: %+v", leg)
			}
			if leg.DurationMS <= 0 {
				t.Errorf("leg %d/%d has no timing", span.Iteration, leg.Shard)
			}
		}
	}
	if !sawLeg {
		t.Error("no shard legs in any expansion span")
	}

	// The traced response must not have been cached: the next untraced query
	// is a hit on the pre-trace entry (byte-identical, no trace block).
	_, hdr2, body2 := get(t, routerTS, path)
	if hdr2.Get("X-Fastppv-Cache") != string(cacheHit) {
		t.Errorf("untraced follow-up = %q, want hit", hdr2.Get("X-Fastppv-Cache"))
	}
	if strings.Contains(string(body2), `"trace"`) {
		t.Error("trace block leaked into a cached body")
	}

	checkTraceEquivalence(t, routerTS, "/v1/ppv?node=21&eta=3&top=5")
}

// checkTraceEquivalence asks path (not queried before on ts) with ?trace=1
// and checks the one-builder guarantees: the response's trace is the trace
// retained under its id, the traced answer equals the untraced one, and the
// traced answer was not cached (the untraced follow-up is a miss).
func checkTraceEquivalence(t *testing.T, ts *httptest.Server, path string) {
	t.Helper()
	st, hdr, body := get(t, ts, path+"&trace=1")
	if st != http.StatusOK {
		t.Fatalf("traced query = %d: %s", st, body)
	}
	var traced QueryResponse
	if err := json.Unmarshal(body, &traced); err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil || len(traced.Trace.Iterations) == 0 {
		t.Fatalf("no trace block in %s", body)
	}
	id := hdr.Get(api.TraceHeader)
	st, _, body = get(t, ts, "/v1/debug/trace/"+id)
	if st != http.StatusOK {
		t.Fatalf("debug/trace/%s = %d: %s", id, st, body)
	}
	var retained RetainedTrace
	if err := json.Unmarshal(body, &retained); err != nil {
		t.Fatal(err)
	}
	// One shape: the response's trace is the retained trace, field for field.
	if !retained.Explicit || !reflect.DeepEqual(retained, *traced.Trace) {
		t.Errorf("retained trace differs from the response's:\n%+v\n%+v", retained, *traced.Trace)
	}

	_, hdr, body = get(t, ts, path)
	if got := hdr.Get("X-Fastppv-Cache"); got != string(cacheMiss) {
		t.Errorf("untraced follow-up = %q, want miss (a traced answer must not be cached)", got)
	}
	var plain QueryResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Results, traced.Results) || plain.L1ErrorBound != traced.L1ErrorBound {
		t.Errorf("traced and untraced answers diverge: %+v vs %+v", traced, plain)
	}
}

// frameTap is a TCP proxy in front of one shard that forwards every byte
// unchanged and reports the trace ID of each partial request frame the router
// puts on a stream through it.
func frameTap(t *testing.T, shardURL string, seen func(traceID string)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	shardAddr := strings.TrimPrefix(shardURL, "http://")
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", shardAddr)
			if err != nil {
				down.Close()
				continue
			}
			go func() {
				io.Copy(down, up)
				down.Close()
			}()
			go func() {
				defer up.Close()
				// Everything read from the router is forwarded by the tee
				// before it is parsed here.
				br := bufio.NewReader(io.TeeReader(down, up))
				req, err := http.ReadRequest(br)
				if err != nil || req.URL.Path != api.StreamPath {
					io.Copy(io.Discard, br)
					return
				}
				for {
					ftype, payload, _, err := api.ReadFrame(br)
					if err != nil {
						return
					}
					if ftype == api.FramePartialRequest {
						if _, traceID, _, err := api.DecodePartialRequest(payload); err == nil {
							seen(traceID)
						}
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestTraceIDPropagation verifies the client-supplied trace ID travels
// router -> shard -> response: every shard leg carries it inside its request
// frame and the response echoes it.
func TestTraceIDPropagation(t *testing.T) {
	g := socialGraph(t, 300)

	var mu sync.Mutex
	var seen []string
	record := func(traceID string) {
		mu.Lock()
		seen = append(seen, traceID)
		mu.Unlock()
	}
	shardURLs := make([]string, 2)
	for i := 0; i < 2; i++ {
		e, err := core.NewEngine(g, nil, core.Options{NumHubs: 40, Partition: core.Partition{Shard: i, Shards: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Precompute(); err != nil {
			t.Fatal(err)
		}
		srv, err := New(e, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { srv.CloseStreams(); ts.Close() })
		shardURLs[i] = frameTap(t, ts.URL, record)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Targets: shardURLs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rsrv, err := NewRouter(rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(rsrv.Handler())
	t.Cleanup(routerTS.Close)

	const clientID = "test-trace-42"
	req, err := http.NewRequest(http.MethodGet, routerTS.URL+"/v1/ppv?node=3&eta=2&trace=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.TraceHeader, clientID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced query = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(api.TraceHeader); got != clientID {
		t.Errorf("response trace header = %q, want the client-supplied %q", got, clientID)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace == nil || qr.Trace.TraceID != clientID {
		t.Fatalf("trace block does not carry the client ID: %+v", qr.Trace)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("no partial request frames observed")
	}
	for i, id := range seen {
		if id != clientID {
			t.Errorf("shard leg %d received trace ID %q, want %q", i, id, clientID)
		}
	}
}

// TestTraceEngineMode checks a single-node ?trace=1 answer: engine spans with
// hub expansion counts, no legs.
func TestTraceEngineMode(t *testing.T) {
	g := socialGraph(t, 300)
	srv, err := New(testEngine(t, g, 40), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, hdr, body := get(t, ts, "/v1/ppv?node=11&eta=3&trace=1")
	if st != http.StatusOK {
		t.Fatalf("traced query = %d: %s", st, body)
	}
	if hdr.Get(api.TraceHeader) == "" {
		t.Error("no trace header on engine-mode traced response")
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || resp.Trace.Mode != "engine" {
		t.Fatalf("bad trace block: %+v", resp.Trace)
	}
	if len(resp.Trace.Iterations) != resp.Iterations+1 {
		t.Fatalf("%d spans for %d iterations", len(resp.Trace.Iterations), resp.Iterations)
	}
	expanded := 0
	for _, span := range resp.Trace.Iterations {
		if len(span.Legs) != 0 {
			t.Errorf("engine-mode span %d has shard legs", span.Iteration)
		}
		expanded += span.HubsExpanded
	}
	if resp.Iterations > 0 && expanded == 0 {
		t.Error("no hub expansions recorded across spans")
	}

	// Determinism cross-check: the traced body minus its trace block equals
	// the untraced body.
	_, _, plain := get(t, ts, "/v1/ppv?node=11&eta=3")
	var plainResp QueryResponse
	if err := json.Unmarshal(plain, &plainResp); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", plainResp.Results) != fmt.Sprintf("%v", resp.Results) ||
		plainResp.L1ErrorBound != resp.L1ErrorBound {
		t.Error("traced and untraced answers diverge")
	}

	checkTraceEquivalence(t, ts, "/v1/ppv?node=23&eta=3&top=5")
}

// TestInstrumentAllowlist verifies unknown endpoint names are refused at
// wiring time, which is what keeps the endpoint label set closed.
func TestInstrumentAllowlist(t *testing.T) {
	g := socialGraph(t, 100)
	srv, err := New(testEngine(t, g, 20), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("instrument accepted a name outside the allowlist")
		}
	}()
	srv.instrument("metrics", func(http.ResponseWriter, *http.Request) {})
}

// TestStatusClassCounter checks 4xx answers land in the right class.
func TestStatusClassCounter(t *testing.T) {
	g := socialGraph(t, 100)
	reg := telemetry.NewRegistry()
	srv, err := New(testEngine(t, g, 20), Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get(t, ts, "/v1/ppv?node=notanumber")
	_, _, body := get(t, ts, "/metrics")
	if !strings.Contains(string(body), `fastppv_http_requests_total{endpoint="ppv",code="4xx"} 1`) {
		t.Errorf("4xx not counted:\n%s", grepLines(string(body), "fastppv_http_requests_total"))
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fastppv/internal/core"
	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
	"fastppv/internal/telemetry"
)

// testEngine precomputes a small deterministic engine.
func testEngine(t testing.TB, g *graph.Graph, numHubs int) *core.Engine {
	t.Helper()
	engine, err := core.NewEngine(g, nil, core.Options{NumHubs: numHubs})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Precompute(); err != nil {
		t.Fatal(err)
	}
	return engine
}

func socialGraph(t testing.TB, nodes int) *graph.Graph {
	t.Helper()
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: nodes, OutDegreeMean: 6, Attachment: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// twoComponents builds a graph of two disconnected directed cycles (each with
// a chord), so updates in one component cannot affect answers in the other.
func twoComponents(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(true)
	b.EnsureNodes(20)
	for u := 0; u < 10; u++ {
		b.MustAddEdge(graph.NodeID(u), graph.NodeID((u+1)%10))
		b.MustAddEdge(graph.NodeID(u), graph.NodeID((u+3)%10))
	}
	for u := 10; u < 20; u++ {
		b.MustAddEdge(graph.NodeID(u), graph.NodeID(10+(u-10+1)%10))
		b.MustAddEdge(graph.NodeID(u), graph.NodeID(10+(u-10+4)%10))
	}
	return b.Finalize()
}

func get(t *testing.T, ts *httptest.Server, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestServerCachedResponseIdenticalToCold is the core serving guarantee: a
// cached response and a cold computation at the same eta are byte-identical.
func TestServerCachedResponseIdenticalToCold(t *testing.T) {
	g := socialGraph(t, 500)
	engine := testEngine(t, g, 50)

	srv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const path = "/v1/ppv?node=17&eta=2&top=10"
	status, hdr, first := get(t, ts, path)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, first)
	}
	if got := hdr.Get("X-Fastppv-Cache"); got != "miss" {
		t.Fatalf("first request cache state = %q, want miss", got)
	}
	status, hdr, second := get(t, ts, path)
	if status != http.StatusOK {
		t.Fatal("second request failed")
	}
	if got := hdr.Get("X-Fastppv-Cache"); got != "hit" {
		t.Fatalf("second request cache state = %q, want hit", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cached response differs from original:\n%s\n%s", first, second)
	}

	// A completely cold server over the same engine must produce the same
	// bytes: the engine's deterministic hub expansion order makes the answer
	// a pure function of (node, eta, graph state).
	coldSrv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	coldTS := httptest.NewServer(coldSrv.Handler())
	defer coldTS.Close()
	status, _, cold := get(t, coldTS, path)
	if status != http.StatusOK {
		t.Fatal("cold request failed")
	}
	if !bytes.Equal(first, cold) {
		t.Fatalf("cold recomputation differs from cached response:\n%s\n%s", first, cold)
	}
}

// TestServerConcurrentIdenticalRequests hammers one key from many goroutines
// (run under -race) and checks every response is byte-identical while the
// engine computed the answer far fewer times than it was asked.
func TestServerConcurrentIdenticalRequests(t *testing.T) {
	g := socialGraph(t, 500)
	engine := testEngine(t, g, 50)
	srv, err := New(engine, Config{MaxConcurrent: 64, QueueWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 32
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + "/v1/ppv?node=99&eta=3&top=20")
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	computations := srv.adm.stats().Admitted + srv.adm.stats().Degraded
	if computations >= clients {
		t.Fatalf("engine computed %d times for %d identical requests; caching/coalescing is not working", computations, clients)
	}
}

// TestServerUpdateInvalidation checks that a graph update drops exactly the
// cached answers it can have made stale: queries in the updated component are
// invalidated, queries in the untouched component stay cached.
func TestServerUpdateInvalidation(t *testing.T) {
	g := twoComponents(t)
	engine := testEngine(t, g, 6)
	srv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the cache with one query per component.
	get(t, ts, "/v1/ppv?node=2&eta=2")
	get(t, ts, "/v1/ppv?node=12&eta=2")
	if _, hdr, _ := get(t, ts, "/v1/ppv?node=2&eta=2"); hdr.Get("X-Fastppv-Cache") != "hit" {
		t.Fatal("warmup for node 2 did not cache")
	}

	// Add an edge inside the first component.
	status, out := post(t, ts, "/v1/update", `{"added_edges":[[2,7]]}`)
	if status != http.StatusOK {
		t.Fatalf("update failed: %d %s", status, out)
	}
	var ur UpdateResponse
	if err := json.Unmarshal(out, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Invalidated == 0 {
		t.Fatalf("update invalidated nothing: %+v", ur)
	}

	// The component-1 answer must be recomputed ...
	_, hdr, _ := get(t, ts, "/v1/ppv?node=2&eta=2")
	if got := hdr.Get("X-Fastppv-Cache"); got != "miss" {
		t.Errorf("node 2 after update: cache state %q, want miss", got)
	}
	// ... while the untouched component stays cached.
	_, hdr, _ = get(t, ts, "/v1/ppv?node=12&eta=2")
	if got := hdr.Get("X-Fastppv-Cache"); got != "hit" {
		t.Errorf("node 12 after update: cache state %q, want hit (targeted invalidation over-invalidated)", got)
	}

	// And the recomputed answer must reflect the new edge: node 7 is now one
	// hop from node 2.
	var qr QueryResponse
	_, _, body := get(t, ts, "/v1/ppv?node=2&eta=4&top=20")
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range qr.Results {
		if r.Node == 7 {
			found = true
		}
	}
	if !found {
		t.Error("node 7 missing from node 2's results after adding edge 2->7")
	}
}

// TestServerDegradation saturates the admission gate and checks the server
// still answers — with fewer iterations and a strictly positive, honestly
// reported L1 error bound — instead of queueing.
func TestServerDegradation(t *testing.T) {
	g := socialGraph(t, 500)
	engine := testEngine(t, g, 50)
	srv, err := New(engine, Config{
		DefaultEta:    3,
		MaxConcurrent: 1,
		QueueWait:     -1, // degrade immediately when saturated
		DegradedEta:   0,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only computation slot, as a long-running query would.
	if srv.adm.acquire() != svcFull {
		t.Fatal("could not take the slot on an idle server")
	}

	var qr QueryResponse
	status, hdr, body := get(t, ts, "/v1/ppv?node=33&eta=3")
	if status != http.StatusOK {
		t.Fatalf("saturated server returned %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Degraded {
		t.Fatal("saturated server served a non-degraded answer")
	}
	if qr.Iterations >= 3 {
		t.Fatalf("degraded answer ran %d iterations, want < 3", qr.Iterations)
	}
	if qr.L1ErrorBound <= 0 {
		t.Fatalf("degraded answer reports error bound %v, want > 0", qr.L1ErrorBound)
	}
	if hdr.Get("X-Fastppv-Cache") != "miss" {
		t.Fatalf("degraded answer state %q", hdr.Get("X-Fastppv-Cache"))
	}

	// When even the degradation pool is full, the request is shed with 503
	// instead of queueing.
	for i := 0; i < cap(srv.adm.degradedSlots); i++ {
		srv.adm.degradedSlots <- struct{}{}
	}
	status, _, body = get(t, ts, "/v1/ppv?node=34&eta=3")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("fully saturated server returned %d (%s), want 503", status, body)
	}
	if st := srv.adm.stats(); st.Shed == 0 {
		t.Errorf("admission stats did not count the shed request: %+v", st)
	}
	for i := 0; i < cap(srv.adm.degradedSlots); i++ {
		<-srv.adm.degradedSlots
	}

	// Degraded answers must not poison the cache: the same query after the
	// slot frees is computed fully.
	srv.adm.release(svcFull)
	status, _, body = get(t, ts, "/v1/ppv?node=33&eta=3")
	if status != http.StatusOK {
		t.Fatal("request after release failed")
	}
	qr = QueryResponse{}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Degraded {
		t.Fatal("idle server served a degraded answer")
	}
	if qr.Iterations == 0 {
		t.Fatal("full answer ran zero iterations")
	}
	if st := srv.adm.stats(); st.Degraded == 0 {
		t.Errorf("admission stats did not count the degraded request: %+v", st)
	}
}

// TestServerBatch checks the batch endpoint agrees with single queries.
func TestServerBatch(t *testing.T) {
	g := socialGraph(t, 300)
	engine := testEngine(t, g, 30)
	srv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, out := post(t, ts, "/v1/ppv/batch", `{"queries":[{"node":5},{"node":8,"eta":1,"top":3}]}`)
	if status != http.StatusOK {
		t.Fatalf("batch failed: %d %s", status, out)
	}
	var br BatchResponse
	if err := json.Unmarshal(out, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("batch returned %d results, want 2", len(br.Results))
	}
	if br.Results[0].Node != 5 || br.Results[1].Node != 8 {
		t.Fatalf("batch results out of order: %+v", br.Results)
	}
	if len(br.Results[1].Results) > 3 {
		t.Fatalf("batch query top=3 returned %d entries", len(br.Results[1].Results))
	}

	// The batch answer for node 5 must match the single-query body.
	var single QueryResponse
	_, _, body := get(t, ts, "/v1/ppv?node=5")
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(single)
	b, _ := json.Marshal(br.Results[0])
	if !bytes.Equal(a, b) {
		t.Fatalf("batch and single answers differ:\n%s\n%s", b, a)
	}
}

// TestServerStatsAndHealth sanity-checks the observability endpoints.
func TestServerStatsAndHealth(t *testing.T) {
	g := socialGraph(t, 300)
	engine := testEngine(t, g, 30)
	srv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, _, body := get(t, ts, "/healthz")
	if status != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", status, body)
	}

	get(t, ts, "/v1/ppv?node=1")
	get(t, ts, "/v1/ppv?node=1")

	var st StatsResponse
	status, _, body = get(t, ts, "/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Graph.Nodes != 300 {
		t.Errorf("stats graph nodes = %d, want 300", st.Graph.Nodes)
	}
	if st.Offline.Hubs != 30 {
		t.Errorf("stats offline hubs = %d, want 30", st.Offline.Hubs)
	}
	if st.Cache == nil || st.Cache.Hits < 1 {
		t.Errorf("stats cache = %+v, want at least one hit", st.Cache)
	}
	ppv, ok := st.Endpoints["ppv"]
	if !ok || ppv.Count < 2 {
		t.Errorf("stats ppv histogram = %+v, want count >= 2", ppv)
	}
	if ppv.P50MS > ppv.P99MS {
		t.Errorf("histogram quantiles inverted: %+v", ppv)
	}
	// The endpoints block is a rendering of the one request-latency family:
	// its count is that family's _count on /metrics.
	_, _, scrape := get(t, ts, "/metrics")
	want := fmt.Sprintf("fastppv_http_request_seconds_count{endpoint=\"ppv\"} %d\n", ppv.Count)
	if !strings.Contains(string(scrape), want) {
		t.Errorf("/v1/stats counts %d ppv requests; /metrics has no line %q", ppv.Count, want)
	}
}

// TestEndpointLatencyClampsOverflow: a quantile in the overflow bucket renders
// as the largest finite bound, never +Inf (which encoding/json rejects).
func TestEndpointLatencyClampsOverflow(t *testing.T) {
	h := telemetry.NewHistogram([]float64{0.001, 0.01})
	for i := 0; i < 10; i++ {
		h.Observe(5) // seconds: past every bound
	}
	got := endpointLatency(h.Snapshot())
	if got.Count != 10 || got.P50MS != 10 || got.P99MS != 10 {
		t.Errorf("overflowed endpoint = %+v, want count 10 and quantiles clamped to 10ms", got)
	}
	if _, err := json.Marshal(got); err != nil {
		t.Errorf("overflowed endpoint does not encode: %v", err)
	}
}

// blockCachedIndex is an IndexStore that pretends to front a hub-block cache,
// standing in for the disk-backed store of fastppv.OpenDiskIndex.
type blockCachedIndex struct {
	*ppvindex.MemIndex
}

func (blockCachedIndex) BlockCacheStats() (ppvindex.BlockCacheStats, bool) {
	return ppvindex.BlockCacheStats{Hits: 7, Misses: 3, Entries: 2}, true
}

// TestServerStatsExposeBlockCache checks that an engine whose index fronts a
// hub-block cache gets its counters reported under "block_cache".
func TestServerStatsExposeBlockCache(t *testing.T) {
	g := socialGraph(t, 200)
	engine, err := core.NewEngine(g, blockCachedIndex{ppvindex.NewMemIndex()}, core.Options{NumHubs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Precompute(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var st StatsResponse
	status, _, body := get(t, ts, "/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.BlockCache == nil || st.BlockCache.Hits != 7 || st.BlockCache.Misses != 3 {
		t.Fatalf("stats block_cache = %+v, want hits=7 misses=3", st.BlockCache)
	}

	// A plain in-memory engine reports no block cache at all.
	plain := testEngine(t, g, 20)
	srv2, err := New(plain, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var st2 StatsResponse
	_, _, body2 := get(t, ts2, "/v1/stats")
	if err := json.Unmarshal(body2, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.BlockCache != nil {
		t.Fatalf("in-memory engine reported block_cache = %+v", st2.BlockCache)
	}
}

// TestServerBadRequests checks parameter validation.
func TestServerBadRequests(t *testing.T) {
	g := socialGraph(t, 100)
	engine := testEngine(t, g, 10)
	srv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{
		"/v1/ppv",               // missing node
		"/v1/ppv?node=abc",      // non-numeric
		"/v1/ppv?node=100",      // out of range
		"/v1/ppv?node=-1",       // negative
		"/v1/ppv?node=1&eta=-2", // bad eta
		"/v1/ppv?node=1&top=0",  // bad top
		fmt.Sprintf("/v1/ppv?node=1&target-error=%s", "x"), // bad target
		"/v1/ppv?node=1&target-error=NaN",                  // NaN poisons map keys
		"/v1/ppv?node=1&target-error=+Inf",                 // non-finite
		"/v1/ppv?node=1&target-error=-1",                   // negative
	} {
		if status, _, body := get(t, ts, path); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", path, status, body)
		}
	}
	if status, out := post(t, ts, "/v1/update", `{}`); status != http.StatusBadRequest {
		t.Errorf("empty update: status %d (%s), want 400", status, out)
	}
	if status, out := post(t, ts, "/v1/update", `{"added_edges":[[1]]}`); status != http.StatusBadRequest {
		t.Errorf("one-element edge: status %d (%s), want 400", status, out)
	}
	if status, out := post(t, ts, "/v1/update", `{"added_edges":[[1,2,3]]}`); status != http.StatusBadRequest {
		t.Errorf("three-element edge: status %d (%s), want 400", status, out)
	}
	if status, out := post(t, ts, "/v1/ppv/batch", `{"queries":[]}`); status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d (%s), want 400", status, out)
	}
}

// durableIndex is an IndexStore that pretends to persist updates behind an
// update log, standing in for fastppv's disk-backed store: Compact empties
// the pretend log and reports what it folded.
type durableIndex struct {
	*ppvindex.MemIndex
	mu          sync.Mutex
	logRecords  int64
	logBytes    int64
	compactions int64
	compactBusy bool
	failCompact bool
}

func (d *durableIndex) DurabilityStats() (ppvindex.DurabilityStats, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return ppvindex.DurabilityStats{
		LogEnabled:  true,
		LogRecords:  d.logRecords,
		LogBytes:    d.logBytes,
		Compactions: d.compactions,
	}, true
}

func (d *durableIndex) Compact() (ppvindex.CompactionResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.compactBusy {
		return ppvindex.CompactionResult{}, ppvindex.ErrCompactionInProgress
	}
	if d.failCompact {
		return ppvindex.CompactionResult{}, fmt.Errorf("disk on fire")
	}
	res := ppvindex.CompactionResult{
		TotalHubs:        d.Len(),
		LogRecordsFolded: d.logRecords,
		LogBytesFreed:    d.logBytes,
	}
	d.logRecords, d.logBytes = 0, 8
	d.compactions++
	return res, nil
}

// TestServerCompactEndpoint drives POST /v1/compact against a durable store:
// the response reports what was folded and /v1/stats reflects the emptied log.
func TestServerCompactEndpoint(t *testing.T) {
	g := socialGraph(t, 200)
	store := &durableIndex{MemIndex: ppvindex.NewMemIndex(), logRecords: 5, logBytes: 4096}
	engine, err := core.NewEngine(g, store, core.Options{NumHubs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Precompute(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var st StatsResponse
	_, _, body := get(t, ts, "/v1/stats")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Durability == nil || st.Durability.LogRecords != 5 {
		t.Fatalf("stats durability = %+v, want 5 log records", st.Durability)
	}

	status, cbody := post(t, ts, "/v1/compact", "")
	if status != http.StatusOK {
		t.Fatalf("compact: %d %s", status, cbody)
	}
	var res ppvindex.CompactionResult
	if err := json.Unmarshal(cbody, &res); err != nil {
		t.Fatal(err)
	}
	if res.LogRecordsFolded != 5 || res.LogBytesFreed != 4096 {
		t.Fatalf("compact response = %+v, want 5 records / 4096 bytes folded", res)
	}

	_, _, body = get(t, ts, "/v1/stats")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Durability == nil || st.Durability.LogRecords != 0 || st.Durability.Compactions != 1 {
		t.Fatalf("stats after compact = %+v, want empty log and 1 compaction", st.Durability)
	}

	// A concurrent compaction maps to 409, a failed one to 500.
	store.mu.Lock()
	store.compactBusy = true
	store.mu.Unlock()
	if status, body := post(t, ts, "/v1/compact", ""); status != http.StatusConflict {
		t.Fatalf("busy compact = %d %s, want 409", status, body)
	}
	store.mu.Lock()
	store.compactBusy, store.failCompact = false, true
	store.mu.Unlock()
	if status, body := post(t, ts, "/v1/compact", ""); status != http.StatusInternalServerError {
		t.Fatalf("failing compact = %d %s, want 500", status, body)
	}
}

// TestServerCompactRequiresDiskIndex: an in-memory engine has nothing to
// compact and must answer 412, and its stats carry no durability section.
func TestServerCompactRequiresDiskIndex(t *testing.T) {
	g := socialGraph(t, 100)
	engine := testEngine(t, g, 10)
	srv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, body := post(t, ts, "/v1/compact", ""); status != http.StatusPreconditionFailed {
		t.Fatalf("compact on an in-memory index = %d %s, want 412", status, body)
	}
	var st StatsResponse
	_, _, body := get(t, ts, "/v1/stats")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Durability != nil {
		t.Fatalf("in-memory engine reported durability = %+v", st.Durability)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fastppv/internal/api"
	"fastppv/internal/cluster"
	"fastppv/internal/core"
	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
	"fastppv/internal/querylog"
	"fastppv/internal/sparse"
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
// An answer holds the ranking of its top's prefix class, so the guarantee is
// checked at tops below, at and across the class boundaries, ascending (the
// first request of a class misses, the rest hit) and then descending (all
// hit), against a server that retains nothing. Node 17's estimate is shorter
// than the 1 000 class: its answer holds the whole ranking.
func TestServerCachedResponseIdenticalToCold(t *testing.T) {
	g := socialGraph(t, 500)
	engine := testEngine(t, g, 50)

	srv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A cache-off server over the same engine must produce the same bytes:
	// the engine's deterministic hub expansion order makes the answer a pure
	// function of (node, eta, graph state).
	coldSrv, err := New(engine, Config{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	coldTS := httptest.NewServer(coldSrv.Handler())
	defer coldTS.Close()

	res, err := engine.Query(17, core.StopCondition{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Entries); n <= 100 || n >= topClass(1000) {
		t.Fatalf("node 17 has a %d-entry estimate; the tops must reach past it from below", n)
	}
	tops := []int{1, 5, 10, 11, 16, 17, 100, 1000}
	seen := map[int]bool{}
	for i := range 2 * len(tops) {
		top := tops[min(i, 2*len(tops)-1-i)]
		path := fmt.Sprintf("/v1/ppv?node=17&eta=2&top=%d", top)
		want := "hit"
		if class := topClass(top); !seen[class] {
			seen[class] = true
			want = "miss"
		}
		status, hdr, body := get(t, ts, path)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, status, body)
		}
		if got := hdr.Get("X-Fastppv-Cache"); got != want {
			t.Fatalf("%s (request %d): cache state %q, want %s", path, i+1, got, want)
		}
		status, hdr, cold := get(t, coldTS, path)
		if status != http.StatusOK || hdr.Get("X-Fastppv-Cache") != "bypass" {
			t.Fatalf("%s on the cache-off server: status %d, cache %q", path, status, hdr.Get("X-Fastppv-Cache"))
		}
		if !bytes.Equal(body, cold) {
			t.Fatalf("%s (%s) differs from the cache-off server:\n%s\n%s", path, want, body, cold)
		}
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
	computations := srv.adm.stats().Admitted
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

// TestServerLabelsSurviveUpdate: a labelled engine still answers with node
// labels after POST /v1/update, and a node the update adds has none.
func TestServerLabelsSurviveUpdate(t *testing.T) {
	b := graph.NewBuilder(true)
	for u := 0; u < 6; u++ {
		b.AddLabeledNode(fmt.Sprintf("n%d", u))
	}
	for u := 0; u < 6; u++ {
		b.MustAddEdge(graph.NodeID(u), graph.NodeID((u+1)%6))
	}
	srv, err := New(testEngine(t, b.Finalize(), 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, out := post(t, ts, "/v1/update", `{"added_edges":[[3,6]],"num_nodes":7}`); status != http.StatusOK {
		t.Fatalf("update failed: %d %s", status, out)
	}
	status, _, body := get(t, ts, "/v1/ppv?node=3&eta=2&top=7")
	if status != http.StatusOK {
		t.Fatalf("query after the update: %d %s", status, body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) < 2 {
		t.Fatalf("node 3 ranks %d nodes after the update, want the new node among several: %s", len(resp.Results), body)
	}
	for _, r := range resp.Results {
		want := fmt.Sprintf("n%d", r.Node)
		if r.Node == 6 {
			want = ""
		}
		if r.Label != want {
			t.Errorf("node %d labelled %q after the update, want %q", r.Node, r.Label, want)
		}
	}
}

// TestServerUpdateInvalidatesByEstimate covers the invalidation rule: a
// cached answer whose estimate reaches a touched node is dropped even when it
// is not for that node. At eta=0 a non-hub source reads no hub record (its
// prime PPV is pushed on the fly), so only its on-the-fly push can reach the
// touched node. A single-edge update exercises the lookup of each
// touched node in the sorted estimate; a bulk update touching more nodes than
// the estimate holds exercises the scan of the estimate.
func TestServerUpdateInvalidatesByEstimate(t *testing.T) {
	g := twoComponents(t)
	engine := testEngine(t, g, 6)
	srv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	nonHub := func(from graph.NodeID) graph.NodeID {
		for q := from; ; q++ {
			if !engine.Hubs().Contains(q) {
				return q
			}
		}
	}
	src, other := nonHub(0), nonHub(10) // one source per component
	touched := g.OutNeighbors(src)[0]   // in src's estimate, in neither other's nor the key
	stop := core.StopCondition{MaxIterations: 0}
	for _, q := range []graph.NodeID{src, other} {
		qs, err := engine.NewQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res := qs.Run(stop)
		qs.Close()
		if reaches := sparse.Lookup(res.Entries, touched) != 0; reaches != (q == src) {
			t.Fatalf("q=%d: estimate reaches %d: %v; the test needs a different graph", q, touched, reaches)
		}
	}
	// Chords touched -> touched+5 and touched+7 are new: each node links to +1
	// and +3 within its component of ten.
	chord := func(d graph.NodeID) string {
		return fmt.Sprintf("[%d,%d]", touched, 10*(touched/10)+(touched+d)%10)
	}
	bulk := `{"num_nodes":40,"added_edges":[` + chord(7)
	for u := 20; u < 39; u++ {
		bulk += fmt.Sprintf(",[%d,%d]", u, u+1)
	}
	bulk += `]}`
	pathOf := func(q graph.NodeID) string { return fmt.Sprintf("/v1/ppv?node=%d&eta=0", q) }
	for _, update := range []string{`{"added_edges":[` + chord(5) + `]}`, bulk} {
		for _, q := range []graph.NodeID{src, other} {
			get(t, ts, pathOf(q))
			if _, hdr, _ := get(t, ts, pathOf(q)); hdr.Get("X-Fastppv-Cache") != "hit" {
				t.Fatalf("node %d did not cache before the update", q)
			}
		}
		if status, out := post(t, ts, "/v1/update", update); status != http.StatusOK {
			t.Fatalf("update %s: %d %s", update, status, out)
		}
		if _, hdr, _ := get(t, ts, pathOf(src)); hdr.Get("X-Fastppv-Cache") != "miss" {
			t.Errorf("update %s: node %d, whose estimate reaches touched node %d, answered %q, want miss",
				update, src, touched, hdr.Get("X-Fastppv-Cache"))
		}
		if _, hdr, _ := get(t, ts, pathOf(other)); hdr.Get("X-Fastppv-Cache") != "hit" {
			t.Errorf("update %s: node %d, whose estimate does not reach it, answered %q, want hit",
				update, other, hdr.Get("X-Fastppv-Cache"))
		}
	}
}

// TestServerDegradation checks the overload contract: a computation that
// finds no admission slot within QueueWait is shed with the retryable 503
// "overloaded", on /v1/ppv and on the partial protocol alike, and is never
// answered at fewer iterations; once the slot frees, the same request answers
// at full accuracy. A router with no MaxConcurrent gets the slots of a
// leg-waiting workload.
func TestServerDegradation(t *testing.T) {
	g := socialGraph(t, 500)
	engine := testEngine(t, g, 50)
	const wait = 20 * time.Millisecond
	srv, err := New(engine, Config{DefaultEta: 3, MaxConcurrent: 1, QueueWait: wait})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only computation slot, as a long-running query would.
	if !srv.adm.acquire() {
		t.Fatal("could not take the slot on an idle server")
	}
	start := time.Now()
	status, _, body := get(t, ts, "/v1/ppv?node=33&eta=3")
	waited := time.Since(start)
	var eresp api.ErrorResponse
	if err := json.Unmarshal(body, &eresp); status != http.StatusServiceUnavailable || err != nil || eresp.Error.Code != api.CodeOverloaded {
		t.Fatalf("saturated server answered %d (%s), want 503 %s", status, body, api.CodeOverloaded)
	}
	if waited < wait {
		t.Errorf("shed after %v, before the %v queue wait", waited, wait)
	}
	if st := srv.adm.stats(); st.Shed != 1 {
		t.Errorf("admission stats %+v, want one shed request", st)
	}
	node := graph.NodeID(33)
	var herr *httpError
	if _, err := srv.evalPartial(&api.PartialRequest{Query: &node}, ""); !errors.As(err, &herr) ||
		herr.status != http.StatusServiceUnavailable || herr.code != api.CodeOverloaded {
		t.Fatalf("saturated shard answered a partial with %v, want 503 %s", err, api.CodeOverloaded)
	}

	// Once the slot frees, the same request is computed at the eta it asked
	// for: nothing was cached or cut short while the server was saturated.
	srv.adm.release()
	want, err := engine.Query(node, core.StopCondition{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	status, hdr, body := get(t, ts, "/v1/ppv?node=33&eta=3")
	if status != http.StatusOK {
		t.Fatalf("request after release answered %d: %s", status, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if hdr.Get("X-Fastppv-Cache") != "miss" || qr.Degraded || qr.Iterations != want.Iterations {
		t.Fatalf("after release: cache %q, degraded %v, %d iterations; want a miss at full accuracy, %d iterations",
			hdr.Get("X-Fastppv-Cache"), qr.Degraded, qr.Iterations, want.Iterations)
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{Targets: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rsrv, err := NewRouter(rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rsrv.Handler())
	defer rts.Close()
	var st StatsResponse
	if _, _, body := get(t, rts, "/v1/stats"); json.Unmarshal(body, &st) != nil {
		t.Fatalf("router stats: %s", body)
	}
	procs := runtime.GOMAXPROCS(0)
	if want := procs + max(8, 4*procs); st.Admission.MaxConcurrent != want {
		t.Errorf("router admission.max_concurrent = %d, want %d at GOMAXPROCS %d", st.Admission.MaxConcurrent, want, procs)
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

	// A negative knob is the same client mistake it is on GET /v1/ppv, not a
	// silent server default.
	for _, body := range []string{
		`{"queries":[{"node":5,"top":-1}]}`,
		`{"queries":[{"node":5,"target_error":-0.5}]}`,
	} {
		status, out := post(t, ts, "/v1/ppv/batch", body)
		var eresp api.ErrorResponse
		if err := json.Unmarshal(out, &eresp); status != http.StatusBadRequest || err != nil || eresp.Error.Code != api.CodeBadRequest {
			t.Errorf("batch %s: status %d (%s), want 400 %s", body, status, out, api.CodeBadRequest)
		}
	}

	// A bad query anywhere in a batch rejects it before any query is
	// computed, cached or logged.
	qlog, err := querylog.Open(filepath.Join(t.TempDir(), "batch.qlog"), querylog.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer qlog.Close()
	logged, err := New(engine, Config{QueryLog: qlog})
	if err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(logged.Handler())
	defer lts.Close()
	if status, out := post(t, lts, "/v1/ppv/batch", `{"queries":[{"node":5},{"node":8},{"node":-1}]}`); status != http.StatusBadRequest {
		t.Fatalf("batch with a bad last query: status %d (%s), want 400", status, out)
	}
	_, _, metrics := get(t, lts, "/metrics")
	if got := scrapeValue(t, string(metrics), "fastppv_queries_computed_total"); got != 0 {
		t.Errorf("a rejected batch computed %v queries, want 0", got)
	}
	if st := qlog.Stats(); st.Appended != 0 {
		t.Errorf("a rejected batch logged %d queries, want 0", st.Appended)
	}
}

// TestServerRenderTopPrefix: an answer is ranked once, at its top's prefix
// class, when it is computed, and render serves every top of the class from a
// prefix of that ranking. For tops below, at, just above and well above
// defaultTopK and at maxTopK, the miss body, the hit body and a body built
// from the public map-based API are byte-identical, in engine and in router
// mode.
func TestServerRenderTopPrefix(t *testing.T) {
	g := socialGraph(t, 600)
	engine := testEngine(t, g, 80)
	srv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	engineTS := httptest.NewServer(srv.Handler())
	defer engineTS.Close()
	shards := shardedServers(t, g, 80, 2)
	routerTS, rt := routerServer(t, []string{shards[0].URL, shards[1].URL})

	const eta = 2
	stop := core.StopCondition{MaxIterations: eta}
	modes := []struct {
		name   string
		ts     *httptest.Server
		public func(q graph.NodeID) (*core.Result, error)
	}{
		{"engine", engineTS, func(q graph.NodeID) (*core.Result, error) { return engine.Query(q, stop) }},
		{"router", routerTS, func(q graph.NodeID) (*core.Result, error) {
			res, err := rt.Query(q, stop)
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		}},
	}
	tops := []int{1, 9, 10, 11, 50, maxTopK}
	for _, m := range modes {
		for i, top := range tops {
			q := graph.NodeID(17 + 97*i) // one source per top, so its first request is a miss
			res, err := m.public(q)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(res.Estimate); n <= 50 || n >= maxTopK {
				t.Fatalf("%s q=%d: %d-entry estimate; the tops must straddle it", m.name, q, n)
			}
			want := QueryResponse{Node: int(q), RequestedEta: eta, Iterations: res.Iterations,
				L1ErrorBound: res.L1ErrorBound, Results: []ScoredNode{}}
			for _, e := range res.Estimate.TopK(top) {
				want.Results = append(want.Results, ScoredNode{Node: int(e.Node), Score: e.Score})
			}
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, want)

			path := fmt.Sprintf("/v1/ppv?node=%d&eta=%d&top=%d", q, eta, top)
			for _, state := range []string{"miss", "hit"} {
				status, hdr, body := get(t, m.ts, path)
				if status != http.StatusOK || hdr.Get("X-Fastppv-Cache") != state {
					t.Fatalf("%s %s: status %d, cache %q, want %s", m.name, path, status, hdr.Get("X-Fastppv-Cache"), state)
				}
				if !bytes.Equal(body, rec.Body.Bytes()) {
					t.Errorf("%s %s (%s): body\n%s\nthe public API gives\n%s", m.name, path, state, body, rec.Body.Bytes())
				}
			}
		}
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
// standing in for ppvindex.Store.
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

// TestServerNodeIDBeyondInt32 checks that a node id outside the 32-bit range
// is refused on both query endpoints instead of wrapping onto a valid node
// (4294967298 is 2 modulo 2^32).
func TestServerNodeIDBeyondInt32(t *testing.T) {
	srv, err := New(testEngine(t, socialGraph(t, 100), 10), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, node := range []string{"4294967298", "2147483648", "-4294967294"} {
		if status, _, body := get(t, ts, "/v1/ppv?node="+node); status != http.StatusBadRequest {
			t.Errorf("GET node %s: status %d (%s), want 400", node, status, body)
		}
		if status, body := post(t, ts, "/v1/ppv/batch", `{"queries":[{"node":`+node+`}]}`); status != http.StatusBadRequest {
			t.Errorf("batch node %s: status %d (%s), want 400", node, status, body)
		}
	}
}

// TestServerUpdateIDsBeyondInt32 checks that an update naming a node id or a
// node count past the NodeID range is refused with 400 instead of wrapping an
// endpoint onto a valid node (4294967301 is 5 modulo 2^32) or building a graph
// of billions of nodes, and that the graph is left as it was.
func TestServerUpdateIDsBeyondInt32(t *testing.T) {
	if edges, err := parseEdges("added_edges", [][]int{{1<<32 + 5, 1}}, 1<<32+10); err == nil {
		t.Errorf("parseEdges accepted an endpoint past the NodeID range as %v", edges)
	}
	if _, err := parseEdges("added_edges", [][]int{{math.MaxInt32, 1}}, math.MaxInt32+1); err != nil {
		t.Errorf("parseEdges refused the largest NodeID: %v", err)
	}
	srv, err := New(testEngine(t, socialGraph(t, 100), 10), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, update := range []string{
		`{"num_nodes":4294967306,"added_edges":[[4294967301,1]]}`,
		`{"num_nodes":2147483648}`,
		`{"added_edges":[[4294967301,1]]}`,
	} {
		if status, body := post(t, ts, "/v1/update", update); status != http.StatusBadRequest {
			t.Errorf("update %s: status %d (%s), want 400", update, status, body)
		}
	}
	if n, e := srv.engine.Graph().NumNodes(), srv.engine.Epoch(); n != 100 || e != 0 {
		t.Errorf("after the refused updates the graph has %d nodes at epoch %d, want 100 at 0", n, e)
	}
}

// durableIndex is an IndexStore that pretends to persist updates behind an
// update log, standing in for ppvindex.Store: Compact empties
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

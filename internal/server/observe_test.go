package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"fastppv/internal/api"
	"fastppv/internal/cluster"
	"fastppv/internal/querylog"
)

// TestTraceRingEvictionOrder overfills a small ring and checks that exactly
// the newest traces survive, snapshot order is newest-first, and evicted ids
// are no longer findable.
func TestTraceRingEvictionOrder(t *testing.T) {
	r := newTraceRing(4)
	for i := 1; i <= 6; i++ {
		r.add(&RetainedTrace{TraceID: fmt.Sprintf("t%d", i), Node: i})
	}
	if got := r.captured(); got != 6 {
		t.Fatalf("captured = %d, want 6", got)
	}
	snap := r.snapshot(0)
	if len(snap) != 4 {
		t.Fatalf("snapshot holds %d traces, want 4", len(snap))
	}
	for i, want := range []string{"t6", "t5", "t4", "t3"} {
		if snap[i].TraceID != want {
			t.Errorf("snapshot[%d] = %s, want %s", i, snap[i].TraceID, want)
		}
	}
	for _, evicted := range []string{"t1", "t2"} {
		if r.find(evicted) != nil {
			t.Errorf("evicted trace %s still findable", evicted)
		}
	}
	if r.find("t5") == nil {
		t.Errorf("resident trace t5 not findable")
	}
	if got := r.snapshot(2); len(got) != 2 || got[0].TraceID != "t6" {
		t.Errorf("snapshot(2) = %d traces starting %s, want 2 starting t6", len(got), got[0].TraceID)
	}
}

// TestTraceRingConcurrent hammers the ring from concurrent writers and
// readers; under -race this is the lock-freedom proof. Every surviving trace
// must be one of the newest capacity-many sequence numbers.
func TestTraceRingConcurrent(t *testing.T) {
	const writers, perWriter, capacity = 8, 500, 32
	r := newTraceRing(capacity)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ { // concurrent readers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.snapshot(0)
					r.find("w0-0")
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				r.add(&RetainedTrace{TraceID: fmt.Sprintf("w%d-%d", w, i)})
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	if got := r.captured(); got != writers*perWriter {
		t.Fatalf("captured = %d, want %d", got, writers*perWriter)
	}
	snap := r.snapshot(0)
	if len(snap) != capacity {
		t.Fatalf("snapshot holds %d traces, want %d", len(snap), capacity)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].seq > snap[i-1].seq {
			t.Fatalf("snapshot not newest-first at %d: seq %d after %d", i, snap[i].seq, snap[i-1].seq)
		}
	}
	if oldest := snap[len(snap)-1].seq; oldest <= writers*perWriter-capacity {
		t.Errorf("oldest resident seq = %d, want > %d", oldest, writers*perWriter-capacity)
	}
}

// TestSlowQueryCapturedWithoutTraceParam is the acceptance path of the debug
// surface: with a tiny slow threshold, a plain /v1/ppv request — no ?trace=1 —
// must surface on /v1/debug/slow with its full per-iteration trace, carry the
// retained id in the X-Fastppv-Trace response header, and resolve via
// /v1/debug/trace/{id}.
func TestSlowQueryCapturedWithoutTraceParam(t *testing.T) {
	g := socialGraph(t, 300)
	engine := testEngine(t, g, 30)
	srv, err := New(engine, Config{
		SlowThreshold:    time.Nanosecond, // everything is slow
		TraceSampleEvery: -1,              // isolate the slow path from sampling
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, hdr, _ := get(t, ts, "/v1/ppv?node=7&eta=3")
	if status != http.StatusOK {
		t.Fatalf("ppv: %d", status)
	}
	id := hdr.Get(api.TraceHeader)
	if id == "" {
		t.Fatalf("no %s header on a slow untraced query", api.TraceHeader)
	}

	var slow debugSlowResponse
	status, _, body := get(t, ts, "/v1/debug/slow")
	if status != http.StatusOK {
		t.Fatalf("debug/slow: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	if slow.Captured < 1 || slow.Retained < 1 || len(slow.Traces) < 1 {
		t.Fatalf("debug/slow empty: %+v", slow)
	}
	tr := slow.Traces[0]
	if tr.TraceID != id {
		t.Errorf("newest retained trace %s, want header id %s", tr.TraceID, id)
	}
	if !tr.Slow || tr.Node != 7 || tr.Eta != 3 || tr.Mode != "engine" {
		t.Errorf("retained trace = %+v, want slow engine query on node 7 eta 3", tr)
	}
	if len(tr.Iterations) == 0 {
		t.Errorf("retained trace has no per-iteration spans")
	}

	status, _, body = get(t, ts, "/v1/debug/trace/"+id)
	if status != http.StatusOK {
		t.Fatalf("debug/trace/%s: %d %s", id, status, body)
	}
	var byID RetainedTrace
	if err := json.Unmarshal(body, &byID); err != nil {
		t.Fatal(err)
	}
	if byID.TraceID != id || len(byID.Iterations) != len(tr.Iterations) {
		t.Errorf("trace by id = %+v, want the retained trace %s", byID, id)
	}

	if status, _, _ = get(t, ts, "/v1/debug/trace/nope"); status != http.StatusNotFound {
		t.Errorf("missing trace id: %d, want 404", status)
	}
	if status, _, _ = get(t, ts, "/v1/debug/slow?n=bogus"); status != http.StatusBadRequest {
		t.Errorf("bad n: %d, want 400", status)
	}
}

// TestSlowTracedQueryCounted: an explicitly traced query over the slow
// threshold is a slow computation like any other — it bumps
// fastppv_slow_queries_total, not only the Slow flag of its retained trace.
func TestSlowTracedQueryCounted(t *testing.T) {
	srv, err := New(testEngine(t, socialGraph(t, 300), 30), Config{SlowThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if got := srv.metrics.slowQueries.Value(); got != 0 {
		t.Fatalf("slow counter starts at %v", got)
	}
	status, hdr, _ := get(t, ts, "/v1/ppv?node=7&eta=3&trace=1")
	if status != http.StatusOK {
		t.Fatalf("traced ppv: %d", status)
	}
	if got := srv.metrics.slowQueries.Value(); got != 1 {
		t.Errorf("slow counter after one slow traced query = %v, want 1", got)
	}
	if tr := srv.traces.find(hdr.Get(api.TraceHeader)); tr == nil || !tr.Slow || !tr.Explicit {
		t.Errorf("retained trace = %+v, want slow and explicit", tr)
	}
}

// TestSampledCaptureCadence checks the every-Nth sampling path retains fast,
// healthy queries too, marked Sampled rather than Slow.
func TestSampledCaptureCadence(t *testing.T) {
	g := socialGraph(t, 300)
	engine := testEngine(t, g, 30)
	srv, err := New(engine, Config{
		SlowThreshold:    -1, // slow capture off
		TraceSampleEvery: 1,  // sample every computation
		CacheBytes:       -1, // every request computes
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		get(t, ts, fmt.Sprintf("/v1/ppv?node=%d", i))
	}
	var slow debugSlowResponse
	_, _, body := get(t, ts, "/v1/debug/slow")
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	if slow.Captured != 3 {
		t.Fatalf("captured = %d, want 3", slow.Captured)
	}
	for _, tr := range slow.Traces {
		if !tr.Sampled || tr.Slow {
			t.Errorf("trace %s: sampled=%v slow=%v, want a pure sample", tr.TraceID, tr.Sampled, tr.Slow)
		}
	}
}

// TestSLOAccounting drives queries against an impossible latency objective and
// a generous one, checking the good/bad totals and burn rates that /v1/stats
// reports.
func TestSLOAccounting(t *testing.T) {
	g := socialGraph(t, 300)
	engine := testEngine(t, g, 30)

	srv, err := New(engine, Config{SLOLatency: time.Nanosecond, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 5; i++ {
		get(t, ts, fmt.Sprintf("/v1/ppv?node=%d", i))
	}
	// A client mistake is not an SLO event.
	if status, _, _ := get(t, ts, "/v1/ppv?node=notanode"); status != http.StatusBadRequest {
		t.Fatalf("bad node accepted")
	}
	var st StatsResponse
	_, _, body := get(t, ts, "/v1/stats")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.SLO == nil {
		t.Fatal("stats carry no slo block")
	}
	if st.SLO.Good != 0 || st.SLO.Bad != 5 {
		t.Errorf("slo good=%d bad=%d, want 0/5 against a 1ns objective", st.SLO.Good, st.SLO.Bad)
	}
	// All-bad traffic burns the 1% budget at 100x its sustainable rate.
	if st.SLO.BurnRate1M != 1/sloErrorBudget {
		t.Errorf("burn_rate_1m = %v, want %v", st.SLO.BurnRate1M, 1/sloErrorBudget)
	}

	srv2, err := New(engine, Config{SLOLatency: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	for i := 0; i < 5; i++ {
		get(t, ts2, fmt.Sprintf("/v1/ppv?node=%d", i))
	}
	var st2 StatsResponse
	_, _, body2 := get(t, ts2, "/v1/stats")
	if err := json.Unmarshal(body2, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.SLO == nil || st2.SLO.Good != 5 || st2.SLO.Bad != 0 {
		t.Errorf("slo = %+v, want 5 good / 0 bad against a 1h objective", st2.SLO)
	}

	// No objectives: no tracker, no stats block.
	srv3, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	get(t, ts3, "/v1/ppv?node=1")
	var st3 StatsResponse
	_, _, body3 := get(t, ts3, "/v1/stats")
	if err := json.Unmarshal(body3, &st3); err != nil {
		t.Fatal(err)
	}
	if st3.SLO != nil {
		t.Errorf("slo block present with no objectives configured: %+v", st3.SLO)
	}
}

// TestQueryLogOnServingPath checks the end-to-end loop: served queries land in
// the log with the right outcome flags, /v1/stats reports the log, and a
// restart replays the records and reports them under query_log.replayed.
func TestQueryLogOnServingPath(t *testing.T) {
	g := socialGraph(t, 300)
	engine := testEngine(t, g, 30)
	path := filepath.Join(t.TempDir(), "queries.qlog")

	qlog, err := querylog.Open(path, querylog.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(engine, Config{QueryLog: qlog})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	for i := 0; i < 4; i++ {
		get(t, ts, "/v1/ppv?node=5&eta=2&top=7") // repeats: 1 miss + 3 cache hits
	}
	get(t, ts, "/v1/ppv?node=9&eta=2")
	// Failures must not be logged.
	get(t, ts, "/v1/ppv?node=notanode")

	var st StatsResponse
	_, _, body := get(t, ts, "/v1/stats")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.QueryLog == nil || st.QueryLog.Appended != 5 {
		t.Fatalf("stats query_log = %+v, want 5 appended", st.QueryLog)
	}
	ts.Close()
	if err := qlog.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: replay the log.
	var replayed []querylog.Record
	qlog2, err := querylog.Open(path, querylog.Options{}, func(r querylog.Record) error {
		replayed = append(replayed, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer qlog2.Close()
	if len(replayed) != 5 {
		t.Fatalf("replayed %d records, want 5", len(replayed))
	}
	if r := replayed[0]; r.Source != 5 || r.Eta != 2 || r.Top != 7 || r.Flags&querylog.FlagCacheHit != 0 {
		t.Errorf("first record = %+v, want the cold node-5 query", r)
	}
	hits := 0
	for _, r := range replayed {
		if r.Flags&querylog.FlagCacheHit != 0 {
			hits++
		}
	}
	if hits != 3 {
		t.Errorf("cache-hit records = %d, want 3", hits)
	}

	srv2, err := New(engine, Config{QueryLog: qlog2})
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
	if st2.QueryLog == nil || st2.QueryLog.Replayed != 5 || st2.QueryLog.Appended != 0 {
		t.Errorf("stats query_log after restart = %+v, want 5 replayed, 0 appended", st2.QueryLog)
	}
}

// TestLegSummariesShardOrder: the query log's per-shard summaries come out in
// ascending shard order even when the root leg ran on a higher shard than a
// later iteration's first leg, and skipped legs neither count nor open a
// summary of their own.
func TestLegSummariesShardOrder(t *testing.T) {
	spans := []cluster.IterationSpan{
		{Legs: []cluster.ShardLegSpan{{Shard: 1, DurationMS: 2}}},
		{Legs: []cluster.ShardLegSpan{{Shard: 0, DurationMS: 0.5}, {Shard: 1, DurationMS: 1}, {Shard: 3, Skipped: true}}},
	}
	want := []querylog.LegSummary{{Shard: 0, Legs: 1, DurationUS: 500}, {Shard: 1, Legs: 2, DurationUS: 3000}}
	if got := legSummaries(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("legSummaries = %+v, want %+v", got, want)
	}
	if got := legSummaries(nil); got != nil {
		t.Fatalf("legSummaries of an engine answer = %+v, want nil", got)
	}
}

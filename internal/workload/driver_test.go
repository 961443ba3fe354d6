package workload

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fastppv/internal/api"
	"fastppv/internal/graph"
)

func TestSummarize(t *testing.T) {
	if got := Summarize(nil); got != (Percentiles{}) {
		t.Fatalf("empty input: got %+v", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(99 - i) // descending: Summarize must sort a copy
	}
	p := Summarize(xs)
	if p.P50 != 49 || p.P90 != 89 || p.P99 != 98 || p.Max != 99 || p.N != 100 {
		t.Fatalf("unexpected summary %+v", p)
	}
	if xs[0] != 99 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestSummarizeDurations(t *testing.T) {
	p := SummarizeDurations([]time.Duration{2 * time.Millisecond, 4 * time.Millisecond})
	if p.P50 != 2 || p.Max != 4 || p.N != 2 {
		t.Fatalf("unexpected summary %+v", p)
	}
}

func TestZipfSequence(t *testing.T) {
	seq, err := ZipfSequence(1000, 300, ZipfOptions{Seed: 7}, 3, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	// One ranking: the queries are exactly a single sampler's draws, with
	// each update taking two of them.
	zs, err := NewZipfSampler(1000, ZipfOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	for i, r := range seq {
		if r.Node != zs.Next() || r.Eta != 3 || r.Top != 5 {
			t.Fatalf("request %d = %+v, not the single ranking's draw", i, r)
		}
		if r.Update != ((i+1)%50 == 0) {
			t.Fatalf("request %d: update=%v", i, r.Update)
		}
		if r.Update {
			updates++
			if to := zs.Next(); r.To != to && r.To != (to+1)%1000 || r.To == r.Node {
				t.Fatalf("update %d adds %d→%d", i, r.Node, r.To)
			}
		}
	}
	if updates != 6 {
		t.Fatalf("%d updates, want 6", updates)
	}
	// A longer run of the same seed extends the sequence: request i depends
	// only on (seed, i).
	longer, err := ZipfSequence(1000, 600, ZipfOptions{Seed: 7}, 3, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != longer[i] {
			t.Fatalf("request %d differs between run lengths", i)
		}
	}
}

// hit is one request a fake target received.
type hit struct {
	target int
	method string
	path   string
	node   int
	body   string
}

// fakeTargets starts n httptest targets that record every request and answer
// it through answer; the returned func snapshots the record.
func fakeTargets(t *testing.T, n int, answer func(w http.ResponseWriter, r *http.Request, node int)) ([]string, func() []hit) {
	t.Helper()
	var mu sync.Mutex
	var hits []hit
	urls := make([]string, n)
	for i := range urls {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			node, _ := strconv.Atoi(r.URL.Query().Get("node"))
			mu.Lock()
			hits = append(hits, hit{target: i, method: r.Method, path: r.URL.Path, node: node, body: string(body)})
			mu.Unlock()
			answer(w, r, node)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls, func() []hit {
		mu.Lock()
		defer mu.Unlock()
		return append([]hit(nil), hits...)
	}
}

func okAnswer(w http.ResponseWriter, r *http.Request, node int) {
	fmt.Fprintf(w, `{"node":%d,"l1_error_bound":0.5}`, node)
}

func TestDriverRoundRobinAndUpdates(t *testing.T) {
	urls, hits := fakeTargets(t, 2, okAnswer)
	var seq []Request
	for i := 0; i < 12; i++ {
		seq = append(seq, Request{Node: graph.NodeID(i), Eta: 2, Top: 3, Update: i%4 == 3, To: graph.NodeID(100 + i)})
	}
	d, err := NewDriver(urls)
	if err != nil {
		t.Fatal(err)
	}
	r := d.Run(seq, 3, 0)
	if r.Failures != 0 || r.LatencyMS.N != 9 || r.UpdateLatencyMS.N != 3 {
		t.Fatalf("report %+v", r)
	}
	got := hits()
	if len(got) != 12 {
		t.Fatalf("%d requests reached the targets, want 12", len(got))
	}
	for _, h := range got {
		i := h.node
		if h.method == http.MethodPost {
			// The update body names the edge; its source is the request index.
			if _, err := fmt.Sscanf(h.body, `{"added_edges":[[%d,`, &i); err != nil {
				t.Fatalf("update body %q: %v", h.body, err)
			}
			if h.path != "/v1/update" || h.target != 0 || i%4 != 3 || h.body != fmt.Sprintf(`{"added_edges":[[%d,%d]]}`, i, 100+i) {
				t.Fatalf("update %+v", h)
			}
			continue
		}
		if h.path != "/v1/ppv" || i%4 == 3 || h.target != i%2 {
			t.Fatalf("query %+v: want GET /v1/ppv on target %d", h, i%2)
		}
	}
	if r.TargetLatencyMS[0].N != 6 || r.TargetLatencyMS[1].N != 3 {
		t.Fatalf("per-target counts %d/%d, want 6/3", r.TargetLatencyMS[0].N, r.TargetLatencyMS[1].N)
	}
}

// TestDriverReport plays a fixed sequence whose every request has a known
// outcome and checks the report's counts exactly.
func TestDriverReport(t *testing.T) {
	urls, _ := fakeTargets(t, 1, func(w http.ResponseWriter, r *http.Request, node int) {
		if r.Method == http.MethodPost {
			w.Write([]byte(`{"epoch":1}`))
			return
		}
		switch node {
		case 0, 1:
			w.Header().Set("X-Fastppv-Cache", "hit")
			fmt.Fprint(w, `{"l1_error_bound":0.25}`)
		case 2:
			w.Header().Set("X-Fastppv-Cache", "miss")
			w.Header().Set(api.TraceHeader, "slow-2")
			time.Sleep(300 * time.Millisecond)
			fmt.Fprint(w, `{"degraded":true,"shards_down":2,"l1_error_bound":0.75}`)
		case 3:
			w.Header().Set("X-Fastppv-Cache", "coalesced")
			fmt.Fprint(w, `{"degraded":true,"shards_down":1,"l1_error_bound":0.5}`)
		case 4:
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"code":"overloaded","message":"busy"}}`)
		case 5:
			http.Error(w, "bad gateway", http.StatusBadGateway)
		case 6:
			// Drop the connection without answering.
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		case 7:
			fmt.Fprint(w, `not json`)
		}
	})
	seq := []Request{{Node: 0}, {Node: 1}, {Node: 2}, {Node: 3}, {Node: 4}, {Node: 5}, {Node: 6}, {Node: 7}, {Node: 8, To: 9, Update: true}}
	d, err := NewDriver(urls)
	if err != nil {
		t.Fatal(err)
	}
	r := d.Run(seq, 4, 200*time.Millisecond)
	if r.Requests != 9 || r.Concurrency != 4 || r.Failures != 4 || r.UpdateFailures != 0 {
		t.Fatalf("requests/failures: %+v", r)
	}
	wantCodes := map[string]int{"overloaded": 1, "http_502": 1, "transport": 1, "decode": 1}
	if fmt.Sprint(r.FailuresByCode) != fmt.Sprint(wantCodes) {
		t.Fatalf("failures by code %v, want %v", r.FailuresByCode, wantCodes)
	}
	if r.LatencyMS.N != 4 || r.UpdateLatencyMS.N != 1 {
		t.Fatalf("%d queries and %d updates succeeded, want 4 and 1", r.LatencyMS.N, r.UpdateLatencyMS.N)
	}
	if got := (map[string]int{"hit": 2, "miss": 1, "coalesced": 1}); fmt.Sprint(r.Cache) != fmt.Sprint(got) || r.CacheHitRate != 0.5 {
		t.Fatalf("cache states %v (hit rate %v)", r.Cache, r.CacheHitRate)
	}
	if r.Degraded != 2 || r.MaxShardsDown != 2 {
		t.Fatalf("degraded=%d max shards down=%d, want 2 and 2", r.Degraded, r.MaxShardsDown)
	}
	if b := r.ErrorBound; b.N != 4 || b.P50 != 0.25 || b.Max != 0.75 {
		t.Fatalf("error bound %+v", b)
	}
	if r.SlowQueries != 1 || r.WorstTraceID != "slow-2" || r.SlowMS != 200 {
		t.Fatalf("slow=%d worst=%q threshold=%v", r.SlowQueries, r.WorstTraceID, r.SlowMS)
	}
	wantBytes := float64(len(`{"l1_error_bound":0.25}`)*2+len(`{"degraded":true,"shards_down":2,"l1_error_bound":0.75}`)+
		len(`{"degraded":true,"shards_down":1,"l1_error_bound":0.5}`)) / 4
	if r.BytesPerQuery != wantBytes {
		t.Fatalf("bytes per query %v, want %v", r.BytesPerQuery, wantBytes)
	}
	var out strings.Builder
	r.Print(&out)
	for _, want := range []string{
		"failures by code: decode=1 http_502=1 overloaded=1 transport=1",
		"update latency ms: ", "(1 applied, 0 failed)",
		"responses: hit=2 miss=1 coalesced=1 degraded=2 (max shards down 2)",
		"slow queries (>200ms): 1, worst retained trace slow-2",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
}

func TestDriverNormalizesTarget(t *testing.T) {
	urls, hits := fakeTargets(t, 1, okAnswer)
	d, err := NewDriver([]string{strings.TrimPrefix(urls[0], "http://") + "/"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Targets()[0] != urls[0] {
		t.Fatalf("target %q, want %q", d.Targets()[0], urls[0])
	}
	if r := d.Run([]Request{{Node: 1}, {Node: 2}}, 1, 0); r.Failures != 0 || len(hits()) != 2 {
		t.Fatalf("bare host:port target: %+v", r)
	}
}

// TestDriverStatsTimeout: a target that never answers /v1/stats fails the
// read within the driver's timeout instead of hanging the caller.
func TestDriverStatsTimeout(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)
	d, err := NewDriver([]string{srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	d.client.Timeout = 100 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		var v struct{}
		done <- d.Stats(0, &v)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stats read of a silent target succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stats read of a silent target did not time out")
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fastppv/internal/workload"
)

// fakeDaemon answers /v1/stats for a graph of n nodes and records the node of
// every /v1/ppv query.
func fakeDaemon(t *testing.T, n int) (string, func() []int) {
	t.Helper()
	var mu sync.Mutex
	var nodes []int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stats" {
			fmt.Fprintf(w, `{"graph":{"nodes":%d},"cache":{"hits":0,"misses":0}}`, n)
			return
		}
		node, _ := strconv.Atoi(r.URL.Query().Get("node"))
		mu.Lock()
		nodes = append(nodes, node)
		mu.Unlock()
		w.Header().Set("X-Fastppv-Cache", "miss")
		fmt.Fprint(w, `{"l1_error_bound":0.5}`)
	}))
	t.Cleanup(srv.Close)
	return srv.URL, func() []int {
		mu.Lock()
		defer mu.Unlock()
		return slices.Sorted(slices.Values(nodes))
	}
}

// topShare is the share of xs taken by its most frequent value.
func topShare(xs []int) float64 {
	counts := map[int]int{}
	best := 0
	for _, x := range xs {
		counts[x]++
		best = max(best, counts[x])
	}
	return float64(best) / float64(len(xs))
}

// TestOneRankingAtAnyConcurrency: the workers share one popularity ranking,
// so the multiset of queried nodes does not depend on -concurrency and its hot
// node carries a single ranking's share of the traffic.
func TestOneRankingAtAnyConcurrency(t *testing.T) {
	const nodes, requests = 60000, 2000
	var sent [][]int
	for _, c := range []string{"1", "8"} {
		url, queried := fakeDaemon(t, nodes)
		var stdout, stderr strings.Builder
		err := run([]string{"-addr", url, "-requests", strconv.Itoa(requests), "-concurrency", c, "-seed", "1"}, &stdout, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, queried())
	}
	if !slices.Equal(sent[0], sent[1]) {
		t.Fatal("concurrency 1 and 8 queried different node multisets")
	}
	zs, err := workload.NewZipfSampler(nodes, workload.ZipfOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var single []int
	for range requests {
		single = append(single, int(zs.Next()))
	}
	if got, want := topShare(sent[1]), topShare(single); got != want {
		t.Fatalf("top-node share at concurrency 8 is %.3f, one ranking gives %.3f", got, want)
	}
}

func TestJSONReport(t *testing.T) {
	url, _ := fakeDaemon(t, 100)
	path := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr strings.Builder
	if err := run([]string{"-addr", url, "-requests", "40", "-update-every", "10", "-json", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r workload.Report
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if r.Requests != 40 || r.LatencyMS.N != 36 || r.UpdateLatencyMS.N != 4 || r.Cache["miss"] != 36 || r.ErrorBound.P50 != 0.5 {
		t.Fatalf("report %+v", r)
	}
	if !strings.Contains(stdout.String(), "sent 40 requests") || !strings.Contains(stdout.String(), "update latency") {
		t.Fatalf("summary:\n%s", stdout.String())
	}

	// "-json -" puts the report on stdout and the summary on stderr.
	stdout.Reset()
	stderr.Reset()
	if err := run([]string{"-addr", url, "-requests", "5", "-json", "-"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	r = workload.Report{}
	if err := json.Unmarshal([]byte(stdout.String()), &r); err != nil || r.Requests != 5 {
		t.Fatalf("stdout is not the report (%v):\n%s", err, stdout.String())
	}
	if !strings.Contains(stderr.String(), "sent 5 requests") {
		t.Fatalf("summary not on stderr:\n%s", stderr.String())
	}
}

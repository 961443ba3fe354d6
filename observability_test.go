package fastppv

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"fastppv/internal/querylog"
	"fastppv/internal/server"
	"fastppv/internal/workload"
)

// TestLogDrivenWarmingBeatsHeuristic is the acceptance check of PR 9's
// warming path: record a skewed workload into the persistent query log, then
// "restart" against a cold block cache twice — once warming from the replayed
// log, once from the out-degree heuristic — and require the log-driven restart
// to reach at least the heuristic's block-cache hit rate on the same workload.
// The graph is uniform-random, so out-degree carries no workload signal and
// the difference isolates what the log knows: which sources actually get
// queried.
func TestLogDrivenWarmingBeatsHeuristic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a disk index and serves three workload passes")
	}
	g := buildTestGraph(t, 2000, 5, 11)
	const numHubs = 200
	dir := t.TempDir()
	path := filepath.Join(dir, "index.ppv")
	qlogPath := filepath.Join(dir, "queries.qlog")

	build, closeBuild, err := NewWithDiskIndex(g, Options{NumHubs: numHubs}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := build.Precompute(); err != nil {
		t.Fatal(err)
	}
	if err := closeBuild(); err != nil {
		t.Fatal(err)
	}

	// The block cache holds the whole index, so the hit-rate difference
	// between restarts reflects only what warming preloaded.
	dio := DiskIndexOptions{BlockCacheBytes: 256 << 20}
	const warmBudget = 32
	runWorkload := func(qlog *querylog.Log, warmHubs int) (source string, hitRate float64) {
		eng, closeIdx, err := OpenDiskIndexWithOptions(g, Options{NumHubs: numHubs}, path, dio)
		if err != nil {
			t.Fatal(err)
		}
		defer closeIdx()
		srv, err := server.New(eng, server.Config{
			QueryLog: qlog, WarmHubs: warmHubs, CacheBytes: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		bcs, ok := eng.Index().(interface {
			BlockCacheStats() (BlockCacheStats, bool)
		})
		if !ok {
			t.Fatal("disk index exposes no block-cache stats")
		}
		// Snapshot after server.New so warming's own loads don't count
		// against the workload's hit rate.
		before, _ := bcs.BlockCacheStats()

		sampler, err := workload.NewZipfSampler(g.NumNodes(), workload.ZipfOptions{S: 1.3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			resp, err := http.Get(ts.URL + fmt.Sprintf("/v1/ppv?node=%d&eta=2&top=10", sampler.Next()))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query %d: status %d", i, resp.StatusCode)
			}
		}
		after, _ := bcs.BlockCacheStats()
		hits := after.Hits - before.Hits
		misses := after.Misses - before.Misses
		if hits+misses > 0 {
			hitRate = float64(hits) / float64(hits+misses)
		}

		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Warming *struct {
				Source string `json:"source"`
			} `json:"warming"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Warming != nil {
			source = st.Warming.Source
		}
		return source, hitRate
	}

	// Day one: serve cold while the query log records the workload.
	qlog, err := querylog.Open(qlogPath, querylog.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(qlog, 0)
	if qlog.Records() == 0 {
		t.Fatal("day-one pass appended no query-log records")
	}
	if err := qlog.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart A: heuristic warming, no log configured.
	heurSource, heurRate := runWorkload(nil, warmBudget)
	if heurSource != "heuristic" {
		t.Fatalf("warming source without a log = %q, want heuristic", heurSource)
	}

	// Restart B: the log replays on open and drives warming.
	qlog2, err := querylog.Open(qlogPath, querylog.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer qlog2.Close()
	logSource, logRate := runWorkload(qlog2, warmBudget)
	if logSource != "querylog" {
		t.Fatalf("warming source with a replayed log = %q, want querylog", logSource)
	}

	t.Logf("block-cache hit rate: querylog-warmed %.3f, heuristic-warmed %.3f", logRate, heurRate)
	if logRate < heurRate {
		t.Errorf("log-driven warming hit rate %.3f below heuristic %.3f", logRate, heurRate)
	}
}

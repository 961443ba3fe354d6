package ppvindex_test

import (
	"path/filepath"
	"testing"
	"time"

	"fastppv/internal/core"
	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
)

// TestNoViewStaysPinned: every disk view pins its index generation until
// Release, so a view the engine forgets to release would hang Close and
// compaction's swap. On a disk engine, with and without a block cache,
// queries at eta 0-3 from hub and non-hub sources, an update, a compaction
// and more queries leave every generation with no view outstanding, and
// Close returns promptly.
func TestNoViewStaysPinned(t *testing.T) {
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 400, OutDegreeMean: 5, Attachment: 0.8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		cacheBytes int64
	}{{"nocache", -1}, {"blockcache", 1 << 20}} {
		t.Run(c.name, func(t *testing.T) {
			store, err := ppvindex.CreateStore(filepath.Join(t.TempDir(), "index.ppv"),
				ppvindex.GraphBinding{Nodes: g.NumNodes(), Edges: g.NumEdges(), Directed: g.Directed()},
				ppvindex.StoreOptions{BlockCacheBytes: c.cacheBytes, CompactThresholdBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			engine, err := core.NewEngine(g, store, core.Options{NumHubs: 40})
			if err != nil {
				store.Abort()
				t.Fatal(err)
			}
			if err := engine.Precompute(); err != nil {
				store.Abort()
				t.Fatal(err)
			}
			hubs := engine.Hubs()
			var sources []graph.NodeID
			for q, nonHubs := graph.NodeID(0), 0; nonHubs < 5; q++ {
				if !hubs.Contains(q) {
					sources = append(sources, q)
					nonHubs++
				}
			}
			sources = append(sources, hubs.Hubs()[:5]...)
			query := func() {
				t.Helper()
				for eta := 0; eta <= 3; eta++ {
					for _, q := range sources {
						if _, err := engine.Query(q, core.StopCondition{MaxIterations: eta}); err != nil {
							t.Fatalf("query %d at eta %d: %v", q, eta, err)
						}
					}
				}
			}
			unpinned := func(when string, gen *ppvindex.DiskIndex) {
				t.Helper()
				if n := gen.InFlight(); n != 0 {
					t.Fatalf("%s: %d views of the generation are still pinned", when, n)
				}
			}

			query()
			first := store.Generation()
			unpinned("after the queries", first)
			if _, err := engine.ApplyUpdate(core.GraphUpdate{AddedEdges: []graph.Edge{{From: hubs.Hubs()[0], To: sources[0]}}}); err != nil {
				t.Fatal(err)
			}
			unpinned("after the update", first)
			within(t, "Compact", func() error { _, err := store.Compact(); return err })
			second := store.Generation()
			if second == first {
				t.Fatal("the compaction published no new generation")
			}
			unpinned("after the compaction, the retired generation", first)
			query()
			unpinned("after the queries on the compacted index", second)
			within(t, "Close", store.Close)
		})
	}
}

// within runs fn and fails the test if it does not return within a deadline:
// a pinned view makes Close and Compact wait for it forever.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return within 10s: a view is still pinned", what)
	}
}

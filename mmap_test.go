package fastppv

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestPublicAPIMmapCompactionDuringQueries runs concurrent queries against a
// memory-mapped index while a compaction atomically replaces (and remaps) the
// base file underneath them. Answers must not drift and nothing may fault:
// a retired mapping is unmapped only once nothing reads it. Run under -race
// in CI.
func TestPublicAPIMmapCompactionDuringQueries(t *testing.T) {
	g := buildTestGraph(t, 300, 4, 42)
	path := filepath.Join(t.TempDir(), "index.ppv")
	buildDiskIndex(t, g, 30, path)

	engine, closeIndex, err := OpenDiskIndexWithOptions(g, Options{NumHubs: 30}, path, DiskIndexOptions{
		BlockCacheBytes: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeIndex()
	from := engine.Hubs().Hubs()[0]
	if _, err := engine.ApplyUpdate(GraphUpdate{AddedEdges: []Edge{{From: from, To: 250}}}); err != nil {
		t.Fatal(err)
	}
	const probes = 16
	expected := make([]Vector, probes)
	for q := 0; q < probes; q++ {
		res, err := engine.Query(NodeID(q), DefaultStop())
		if err != nil {
			t.Fatal(err)
		}
		expected[q] = res.Estimate
	}

	stop := make(chan struct{})
	errc := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := w; ; q = (q + 1) % probes {
				select {
				case <-stop:
					return
				default:
				}
				res, err := engine.Query(NodeID(q), DefaultStop())
				if err != nil {
					errc <- err
					return
				}
				if d := res.Estimate.L1Distance(expected[q]); d > 1e-12 {
					errc <- fmt.Errorf("query %d drifted by %v across a compaction remap", q, d)
					return
				}
			}
		}(w)
	}

	res := compactIndex(t, engine)
	if res.LogRecordsFolded == 0 {
		t.Error("compaction under load should have folded the update log")
	}

	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

package fastppv

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// buildTestGraph creates a small directed graph through the public API.
func buildTestGraph(t testing.TB, nodes, deg int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(true)
	b.EnsureNodes(nodes)
	for u := 0; u < nodes; u++ {
		for d := 0; d < deg; d++ {
			v := NodeID(rng.Intn(nodes))
			if v != NodeID(u) {
				b.MustAddEdge(NodeID(u), v)
			}
		}
	}
	return b.Finalize()
}

func TestPublicAPIEndToEnd(t *testing.T) {
	g := buildTestGraph(t, 400, 4, 1)
	engine, err := New(g, Options{NumHubs: 40})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := engine.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	off := engine.OfflineStats()
	if off.Hubs != 40 || off.IndexBytes <= 0 {
		t.Errorf("OfflineStats = %+v", off)
	}

	q := NodeID(7)
	res, err := engine.Query(q, DefaultStop())
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Iterations > 2 {
		t.Errorf("DefaultStop ran %d iterations, want at most 2", res.Iterations)
	}
	top := res.TopK(10)
	if len(top) == 0 || top[0].Node != q {
		t.Errorf("the query node should rank first, got %v", top)
	}

	exact, err := ExactPPV(g, q, DefaultAlpha)
	if err != nil {
		t.Fatalf("ExactPPV: %v", err)
	}
	report := Evaluate(exact, res.Estimate, 10)
	if report.Precision < 0.5 {
		t.Errorf("precision %.3f unexpectedly low for eta=2 on a small graph", report.Precision)
	}
	// The accuracy-aware bound is an upper bound on the true L1 error.
	if trueErr := exact.L1Distance(res.Estimate); trueErr > res.L1ErrorBound+1e-9 {
		t.Errorf("true L1 error %.4f exceeds the reported bound %.4f", trueErr, res.L1ErrorBound)
	}
}

func TestPublicAPIIncrementalQuery(t *testing.T) {
	g := buildTestGraph(t, 300, 3, 2)
	engine, err := New(g, Options{NumHubs: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Precompute(); err != nil {
		t.Fatal(err)
	}
	qs, err := engine.NewQuery(3)
	if err != nil {
		t.Fatal(err)
	}
	prev := qs.L1ErrorBound()
	for i := 0; i < 4 && !qs.Exhausted(); i++ {
		st := qs.Step()
		if st.L1ErrorBound > prev+1e-12 {
			t.Errorf("step %d increased the error bound", i+1)
		}
		prev = st.L1ErrorBound
	}
}

func TestPublicAPITimeLimitStop(t *testing.T) {
	g := buildTestGraph(t, 500, 5, 3)
	engine, err := New(g, Options{NumHubs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Precompute(); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Query(1, StopCondition{MaxIterations: -1, TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 1 {
		t.Errorf("a one-nanosecond budget should stop almost immediately, ran %d iterations", res.Iterations)
	}
}

func TestPublicAPIGraphIO(t *testing.T) {
	g := buildTestGraph(t, 50, 3, 4)
	dir := t.TempDir()

	edgePath := filepath.Join(dir, "g.txt")
	if err := SaveEdgeListFile(edgePath, g); err != nil {
		t.Fatalf("SaveEdgeListFile: %v", err)
	}
	loaded, err := LoadEdgeListFile(edgePath)
	if err != nil {
		t.Fatalf("LoadEdgeListFile: %v", err)
	}
	if loaded.NumNodes() != g.NumNodes() || loaded.NumEdges() != g.NumEdges() {
		t.Errorf("edge-list round trip changed the graph: %v vs %v", loaded.Stats(), g.Stats())
	}

	binPath := filepath.Join(dir, "g.bin")
	if err := SaveBinaryFile(binPath, g); err != nil {
		t.Fatalf("SaveBinaryFile: %v", err)
	}
	loadedBin, err := LoadBinaryFile(binPath)
	if err != nil {
		t.Fatalf("LoadBinaryFile: %v", err)
	}
	if loadedBin.NumEdges() != g.NumEdges() {
		t.Error("binary round trip changed the graph")
	}

	if _, err := FromEdges(3, true, []Edge{{From: 0, To: 1}, {From: 1, To: 2}}); err != nil {
		t.Errorf("FromEdges: %v", err)
	}
	pr, err := GlobalPageRank(g, DefaultAlpha)
	if err != nil || len(pr) != g.NumNodes() {
		t.Errorf("GlobalPageRank: %v (len %d)", err, len(pr))
	}
}

func TestPublicAPIDiskIndex(t *testing.T) {
	g := buildTestGraph(t, 300, 4, 5)
	path := filepath.Join(t.TempDir(), "index.ppv")

	diskEngine, closeIndex, err := NewWithDiskIndex(g, Options{NumHubs: 30}, path)
	if err != nil {
		t.Fatalf("NewWithDiskIndex: %v", err)
	}
	defer closeIndex()
	if err := diskEngine.Precompute(); err != nil {
		t.Fatalf("Precompute: %v", err)
	}

	memEngine, err := New(g, Options{NumHubs: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := memEngine.Precompute(); err != nil {
		t.Fatal(err)
	}

	for q := NodeID(0); q < 10; q++ {
		a, err := diskEngine.Query(q, DefaultStop())
		if err != nil {
			t.Fatalf("disk query: %v", err)
		}
		b, err := memEngine.Query(q, DefaultStop())
		if err != nil {
			t.Fatalf("mem query: %v", err)
		}
		if d := a.Estimate.L1Distance(b.Estimate); d > 1e-9 {
			t.Errorf("q=%d: disk-index estimate differs from the in-memory one by %v", q, d)
		}
	}
	if err := closeIndex(); err != nil {
		t.Errorf("closing the disk index: %v", err)
	}
}

// TestPublicAPIDiskIndexConcurrentFirstGet is the -race regression test for
// the writer->reader transition: the first Gets after Precompute finalize the
// index file and open it for reading, and concurrent queries must not race on
// that state.
func TestPublicAPIDiskIndexConcurrentFirstGet(t *testing.T) {
	g := buildTestGraph(t, 300, 4, 8)
	path := filepath.Join(t.TempDir(), "index.ppv")
	engine, closeIndex, err := NewWithDiskIndex(g, Options{NumHubs: 30}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer closeIndex()
	if err := engine.Precompute(); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := NodeID(w); int(q) < g.NumNodes(); q += workers * 10 {
				if _, err := engine.Query(q, DefaultStop()); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent query: %v", err)
	}
}

// TestPublicAPIOpenDiskIndex covers the serving path: precompute into a file,
// reopen it with the hub-block cache, and check answers, cache behaviour and
// incremental updates.
func TestPublicAPIOpenDiskIndex(t *testing.T) {
	g := buildTestGraph(t, 300, 4, 9)
	path := filepath.Join(t.TempDir(), "index.ppv")

	build, closeBuild, err := NewWithDiskIndex(g, Options{NumHubs: 30}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := build.Precompute(); err != nil {
		t.Fatal(err)
	}
	if err := closeBuild(); err != nil {
		t.Fatal(err)
	}

	engine, closeIndex, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 8<<20)
	if err != nil {
		t.Fatalf("OpenDiskIndex: %v", err)
	}
	defer closeIndex()
	if !engine.Precomputed() {
		t.Fatal("an opened index should be immediately query-ready")
	}
	if engine.Hubs().Size() != 30 {
		t.Fatalf("recovered %d hubs, want 30", engine.Hubs().Size())
	}

	memEngine, err := New(g, Options{NumHubs: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := memEngine.Precompute(); err != nil {
		t.Fatal(err)
	}
	for q := NodeID(0); q < 10; q++ {
		a, err := engine.Query(q, DefaultStop())
		if err != nil {
			t.Fatalf("disk query %d: %v", q, err)
		}
		b, err := memEngine.Query(q, DefaultStop())
		if err != nil {
			t.Fatal(err)
		}
		if d := a.Estimate.L1Distance(b.Estimate); d > 1e-9 {
			t.Errorf("q=%d: served estimate differs from the in-memory one by %v", q, d)
		}
	}

	// Repeating the same queries must be answered from the block cache.
	stats, ok := engine.Index().(interface {
		BlockCacheStats() (BlockCacheStats, bool)
	})
	if !ok {
		t.Fatal("disk-backed index should expose block cache stats")
	}
	st, enabled := stats.BlockCacheStats()
	if !enabled {
		t.Fatal("block cache should be enabled")
	}
	loadsAfterFirstPass := st.Loads
	for q := NodeID(0); q < 10; q++ {
		if _, err := engine.Query(q, DefaultStop()); err != nil {
			t.Fatal(err)
		}
	}
	st, _ = stats.BlockCacheStats()
	if st.Loads != loadsAfterFirstPass {
		t.Errorf("warm pass issued %d extra disk loads", st.Loads-loadsAfterFirstPass)
	}
	if st.Hits == 0 {
		t.Error("warm pass should register cache hits")
	}

	// Incremental updates work against the opened index: recomputed hubs land
	// in the overlay and their blocks are invalidated.
	before, err := engine.Query(0, DefaultStop())
	if err != nil {
		t.Fatal(err)
	}
	target := NodeID(250)
	ustats, err := engine.ApplyUpdate(GraphUpdate{AddedEdges: []Edge{{From: 0, To: target}}})
	if err != nil {
		t.Fatalf("ApplyUpdate on an opened index: %v", err)
	}
	if ustats.AffectedHubs+ustats.UnaffectedHubs != engine.Hubs().Size() {
		t.Errorf("update stats do not cover all hubs: %+v", ustats)
	}
	after, err := engine.Query(0, DefaultStop())
	if err != nil {
		t.Fatal(err)
	}
	if after.Estimate.Get(target) <= before.Estimate.Get(target) {
		t.Errorf("adding the edge 0->%d should raise its score: %.6f -> %.6f",
			target, before.Estimate.Get(target), after.Estimate.Get(target))
	}
}

// TestApplyUpdateBypassesBlockCache: an update tests every hub's record for
// the touched nodes, and that scan reads past the block cache, so it neither
// loads blocks nor evicts the ones the queries warmed. (Only the recomputed
// hubs' blocks are invalidated, by their rewrite.)
func TestApplyUpdateBypassesBlockCache(t *testing.T) {
	g := buildTestGraph(t, 2000, 4, 9)
	path := filepath.Join(t.TempDir(), "index.ppv")
	build, closeBuild, err := NewWithDiskIndex(g, Options{NumHubs: 200}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := build.Precompute(); err != nil {
		t.Fatal(err)
	}
	if err := closeBuild(); err != nil {
		t.Fatal(err)
	}
	// A cache a quarter of the index: a scan through it would evict.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	engine, closeIndex, err := OpenDiskIndex(g, Options{NumHubs: 200}, path, fi.Size()/4)
	if err != nil {
		t.Fatal(err)
	}
	defer closeIndex()
	stats := engine.Index().(interface {
		BlockCacheStats() (BlockCacheStats, bool)
	})
	for q := NodeID(0); q < 10; q++ {
		if _, err := engine.Query(q, DefaultStop()); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := stats.BlockCacheStats()
	if before.Loads == 0 || before.Entries == 0 {
		t.Fatalf("the queries should have loaded blocks into the cache: %+v", before)
	}
	upd, err := engine.ApplyUpdate(GraphUpdate{AddedEdges: []Edge{{From: 0, To: 1500}}})
	if err != nil {
		t.Fatal(err)
	}
	if upd.UnaffectedHubs == 0 {
		t.Fatalf("the update should leave some hubs unaffected: %+v", upd)
	}
	after, _ := stats.BlockCacheStats()
	if after.Loads != before.Loads || after.Evictions != before.Evictions ||
		after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("the update's hub scan went through the block cache: before %+v, after %+v", before, after)
	}
}

// TestPublicAPIOpenDiskIndexRejectsTruncated is the acceptance check that a
// truncated index file fails loudly with ErrBadIndexFormat instead of serving
// corrupt scores.
func TestPublicAPIOpenDiskIndexRejectsTruncated(t *testing.T) {
	g := buildTestGraph(t, 200, 3, 10)
	path := filepath.Join(t.TempDir(), "index.ppv")
	build, closeBuild, err := NewWithDiskIndex(g, Options{NumHubs: 20}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := build.Precompute(); err != nil {
		t.Fatal(err)
	}
	if err := closeBuild(); err != nil {
		t.Fatal(err)
	}

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()*3/5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDiskIndex(g, Options{NumHubs: 20}, path, 0); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("OpenDiskIndex on a truncated file = %v, want ErrBadIndexFormat", err)
	}
}

func TestPublicAPIDynamicUpdate(t *testing.T) {
	g := buildTestGraph(t, 200, 3, 6)
	engine, err := New(g, Options{NumHubs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Precompute(); err != nil {
		t.Fatal(err)
	}
	before, err := engine.Query(0, DefaultStop())
	if err != nil {
		t.Fatal(err)
	}
	target := NodeID(150)
	stats, err := engine.ApplyUpdate(GraphUpdate{AddedEdges: []Edge{{From: 0, To: target}}})
	if err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	if stats.AffectedHubs+stats.UnaffectedHubs != engine.Hubs().Size() {
		t.Errorf("update stats do not cover all hubs: %+v", stats)
	}
	after, err := engine.Query(0, DefaultStop())
	if err != nil {
		t.Fatal(err)
	}
	if after.Estimate.Get(target) <= before.Estimate.Get(target) {
		t.Errorf("adding the edge 0->%d should raise its score: %.6f -> %.6f",
			target, before.Estimate.Get(target), after.Estimate.Get(target))
	}
}

// graphWithEdge rebuilds g with one extra directed edge, reproducing the
// graph state a restarted daemon would reload after the update was applied.
func graphWithEdge(t testing.TB, g *Graph, e Edge) *Graph {
	t.Helper()
	b := NewBuilder(true)
	b.EnsureNodes(g.NumNodes())
	g.Edges(func(ed Edge) bool {
		b.MustAddEdge(ed.From, ed.To)
		return true
	})
	b.MustAddEdge(e.From, e.To)
	return b.Finalize()
}

// durabilityOf fetches the durable-update counters of a disk-served engine.
func durabilityOf(t testing.TB, e *Engine) DurabilityStats {
	t.Helper()
	dss, ok := e.Index().(interface {
		DurabilityStats() (DurabilityStats, bool)
	})
	if !ok {
		t.Fatal("disk-backed index should expose durability stats")
	}
	st, enabled := dss.DurabilityStats()
	if !enabled {
		t.Fatal("durability stats should be enabled on an opened index")
	}
	return st
}

// compactIndex runs one compaction of a disk-served engine's store.
func compactIndex(t testing.TB, e *Engine) CompactionResult {
	t.Helper()
	c, ok := e.Index().(interface {
		Compact() (CompactionResult, error)
	})
	if !ok {
		t.Fatal("disk-backed index should expose Compact")
	}
	res, err := c.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	return res
}

// buildDiskIndex precomputes a hub index for g into path and finalizes it.
func buildDiskIndex(t testing.TB, g *Graph, numHubs int, path string) {
	t.Helper()
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
}

// TestPublicAPIDiskUpdateDurability is the restart-durability acceptance
// test: updates applied to a disk-served index must survive closing and
// reopening the index, because each update batch is committed to the update
// log and replayed on open.
func TestPublicAPIDiskUpdateDurability(t *testing.T) {
	g := buildTestGraph(t, 300, 4, 11)
	path := filepath.Join(t.TempDir(), "index.ppv")
	buildDiskIndex(t, g, 30, path)

	engine, closeIndex, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 8<<20)
	if err != nil {
		t.Fatalf("OpenDiskIndex: %v", err)
	}
	// Grow an edge out of a hub: the hub's own prime PPV always has a
	// non-zero self entry, so at least that hub is recomputed and the overlay
	// (and log) are guaranteed non-empty.
	from := engine.Hubs().Hubs()[0]
	target := NodeID(250)
	if target == from {
		target = NodeID(251)
	}
	upd := GraphUpdate{AddedEdges: []Edge{{From: from, To: target}}}
	ustats, err := engine.ApplyUpdate(upd)
	if err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	if ustats.AffectedHubs == 0 {
		t.Fatal("update out of a hub should recompute at least that hub")
	}
	after, err := engine.Query(from, DefaultStop())
	if err != nil {
		t.Fatal(err)
	}
	ds := durabilityOf(t, engine)
	if ds.OverlayHubs != ustats.AffectedHubs || ds.LogRecords != int64(ustats.AffectedHubs) {
		t.Errorf("durability stats %+v do not match the %d recomputed hubs", ds, ustats.AffectedHubs)
	}
	if err := closeIndex(); err != nil {
		t.Fatal(err)
	}

	if st, err := os.Stat(path + ".log"); err != nil || st.Size() == 0 {
		t.Fatalf("update log missing or empty after close: %v", err)
	}

	// "Restart": reopen the index against the original graph, as a restarted
	// daemon does; the logged batch replays its mutation and its records.
	engine2, closeIndex2, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 8<<20)
	if err != nil {
		t.Fatalf("OpenDiskIndex after restart: %v", err)
	}
	defer closeIndex2()
	ds2 := durabilityOf(t, engine2)
	if ds2.OverlayHubs != ustats.AffectedHubs || ds2.LogRecords != int64(ustats.AffectedHubs) {
		t.Errorf("replay restored %+v, want %d overlay hubs", ds2, ustats.AffectedHubs)
	}
	res2, err := engine2.Query(from, DefaultStop())
	if err != nil {
		t.Fatal(err)
	}
	if d := res2.Estimate.L1Distance(after.Estimate); d > 1e-12 {
		t.Errorf("post-restart estimate differs from pre-restart one by %v", d)
	}
	if res2.Estimate.Get(target) <= 0 {
		t.Errorf("the recomputed score of %d should survive the restart", target)
	}
}

// TestPublicAPICompaction folds the update log into the base file and checks
// the log shrinks to empty, answers are unchanged, and a restart needs no
// replay.
func TestPublicAPICompaction(t *testing.T) {
	g := buildTestGraph(t, 300, 4, 12)
	path := filepath.Join(t.TempDir(), "index.ppv")
	buildDiskIndex(t, g, 30, path)

	engine, closeIndex, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	from := engine.Hubs().Hubs()[0]
	target := NodeID(250)
	ustats, err := engine.ApplyUpdate(GraphUpdate{AddedEdges: []Edge{{From: from, To: target}}})
	if err != nil {
		t.Fatal(err)
	}
	after, err := engine.Query(from, DefaultStop())
	if err != nil {
		t.Fatal(err)
	}

	res := compactIndex(t, engine)
	if res.RewrittenHubs != ustats.AffectedHubs || res.LogRecordsFolded != int64(ustats.AffectedHubs) {
		t.Errorf("compaction result %+v does not match the %d recomputed hubs", res, ustats.AffectedHubs)
	}
	if res.TotalHubs != 30 {
		t.Errorf("compaction rewrote %d hubs, want 30", res.TotalHubs)
	}
	ds := durabilityOf(t, engine)
	if ds.OverlayHubs != 0 || ds.LogRecords != 0 || ds.Compactions != 1 {
		t.Errorf("after compaction: %+v, want empty overlay and log", ds)
	}
	post, err := engine.Query(from, DefaultStop())
	if err != nil {
		t.Fatal(err)
	}
	if d := post.Estimate.L1Distance(after.Estimate); d > 1e-12 {
		t.Errorf("compaction changed the answer by %v", d)
	}
	// A second compaction with nothing pending is a no-op.
	res2 := compactIndex(t, engine)
	if res2.RewrittenHubs != 0 || res2.LogRecordsFolded != 0 {
		t.Errorf("idle compaction rewrote %+v", res2)
	}
	if err := closeIndex(); err != nil {
		t.Fatal(err)
	}

	// Restart: the base file alone carries the records now, and the log the
	// mutation, so the index reopens beside its base graph, never beside the
	// updated one, whose counts the log refuses.
	g2 := graphWithEdge(t, g, Edge{From: from, To: target})
	if _, _, err := OpenDiskIndex(g2, Options{NumHubs: 30}, path, 8<<20); !errors.Is(err, ErrGraphMismatch) {
		t.Fatalf("reopen beside the updated graph = %v, want ErrGraphMismatch", err)
	}
	engine2, closeIndex2, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer closeIndex2()
	ds2 := durabilityOf(t, engine2)
	if ds2.OverlayHubs != 0 || ds2.LogRecords != 0 || engine2.Epoch() != 1 || engine2.Graph().NumEdges() != g2.NumEdges() {
		t.Errorf("restart after compaction: %+v at epoch %d over %d edges, want no record to replay, epoch 1 and %d edges",
			ds2, engine2.Epoch(), engine2.Graph().NumEdges(), g2.NumEdges())
	}
	res3, err := engine2.Query(from, DefaultStop())
	if err != nil {
		t.Fatal(err)
	}
	if d := res3.Estimate.L1Distance(after.Estimate); d > 1e-12 {
		t.Errorf("post-compaction restart changed the answer by %v", d)
	}
}

// TestPublicAPICompactionKeepsGraph: compaction folds the logged hub records
// into the base but not the mutations, which no file but the log holds. A
// restart on the original graph after a compaction must replay the batch —
// epoch 1, no record left to replay — and answer bit-identically to the live
// engine, at eta 0 (a pure function of the served graph for a non-hub root)
// and at the default stop.
func TestPublicAPICompactionKeepsGraph(t *testing.T) {
	g := buildTestGraph(t, 300, 4, 19)
	path := filepath.Join(t.TempDir(), "index.ppv")
	buildDiskIndex(t, g, 30, path)

	engine, closeIndex, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	hub := engine.Hubs().Hubs()[0]
	u := nonHubNode(t, engine, 200)
	v := nonHubNode(t, engine, u+1)
	if _, err := engine.ApplyUpdate(GraphUpdate{AddedEdges: []Edge{{From: hub, To: 250}, {From: u, To: v}}}); err != nil {
		t.Fatal(err)
	}
	stops := []StopCondition{{MaxIterations: 0}, DefaultStop()}
	answers := func(e *Engine) []*Result {
		t.Helper()
		var out []*Result
		for _, q := range []NodeID{u, hub} {
			for _, stop := range stops {
				res, err := e.Query(q, stop)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res)
			}
		}
		return out
	}
	live := answers(engine)
	if res := compactIndex(t, engine); res.LogRecordsFolded == 0 {
		t.Fatal("the update logged no hub record to fold")
	}
	if err := closeIndex(); err != nil {
		t.Fatal(err)
	}

	engine2, closeIndex2, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer closeIndex2()
	if ds := durabilityOf(t, engine2); engine2.Epoch() != 1 || ds.LogBatches != 1 || ds.LogRecords != 0 || ds.OverlayHubs != 0 {
		t.Fatalf("restart after compaction: epoch %d, %+v; want epoch 1, one batch, no record", engine2.Epoch(), ds)
	}
	for i, res := range answers(engine2) {
		if !reflect.DeepEqual(res.Entries, live[i].Entries) || res.L1ErrorBound != live[i].L1ErrorBound {
			t.Errorf("answer %d changed across compaction and restart", i)
		}
	}
}

// TestPublicAPICompactionCrashRecovery simulates the two crash points of the
// compaction commit protocol: before the atomic rename (a stale .tmp file is
// left behind) and after the rename but before the log rewrite (the old log,
// bound to the replaced base, replays its mutation and skips its records,
// which the rewritten base already holds).
func TestPublicAPICompactionCrashRecovery(t *testing.T) {
	g := buildTestGraph(t, 300, 4, 13)
	path := filepath.Join(t.TempDir(), "index.ppv")
	buildDiskIndex(t, g, 30, path)

	engine, closeIndex, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	from := engine.Hubs().Hubs()[0]
	target := NodeID(250)
	ustats, err := engine.ApplyUpdate(GraphUpdate{AddedEdges: []Edge{{From: from, To: target}}})
	if err != nil {
		t.Fatal(err)
	}
	after, err := engine.Query(from, DefaultStop())
	if err != nil {
		t.Fatal(err)
	}
	if err := closeIndex(); err != nil {
		t.Fatal(err)
	}
	preCompactionLog, err := os.ReadFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}

	// Crash point 1: the rewrite died before the rename — a partial .tmp
	// exists, base and log are untouched. Recovery must ignore the leftovers
	// and serve base + replayed log.
	if err := os.WriteFile(path+".tmp", []byte("partial compaction output"), 0o644); err != nil {
		t.Fatal(err)
	}
	engine2, closeIndex2, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 8<<20)
	if err != nil {
		t.Fatalf("OpenDiskIndex with a stale .tmp: %v", err)
	}
	res2, err := engine2.Query(from, DefaultStop())
	if err != nil {
		t.Fatal(err)
	}
	if d := res2.Estimate.L1Distance(after.Estimate); d > 1e-12 {
		t.Errorf("recovery from a pre-rename crash changed the answer by %v", d)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("stale .tmp should be removed on open (err=%v)", err)
	}
	// Now actually compact, so the base file owns the updates ...
	compactIndex(t, engine2)
	if err := closeIndex2(); err != nil {
		t.Fatal(err)
	}

	// Crash point 2: ... and pretend the crash hit between the rename and
	// the log rewrite by restoring the pre-compaction log. Its header is
	// bound to the original graph and to the pre-compaction base file, so the
	// open replays the batch's mutation (no base holds it) and skips its
	// records (the rewritten base does hold them).
	if err := os.WriteFile(path+".log", preCompactionLog, 0o644); err != nil {
		t.Fatal(err)
	}
	engine3, closeIndex3, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 8<<20)
	if err != nil {
		t.Fatalf("OpenDiskIndex after a post-rename crash: %v", err)
	}
	defer closeIndex3()
	ds := durabilityOf(t, engine3)
	if engine3.Epoch() != 1 || ds.LogBatches != 1 || ds.LogRecords != 0 || ds.OverlayHubs != 0 {
		t.Errorf("restored log: epoch %d, %+v; want the mutation replayed (epoch 1, one batch) and the %d records skipped",
			engine3.Epoch(), ds, ustats.AffectedHubs)
	}
	res3, err := engine3.Query(from, DefaultStop())
	if err != nil {
		t.Fatal(err)
	}
	if d := res3.Estimate.L1Distance(after.Estimate); d > 1e-12 {
		t.Errorf("post-rename crash recovery changed the answer by %v", d)
	}
}

// TestPublicAPICompactionDuringQueries compacts while concurrent queries
// hammer the engine: answers must stay correct throughout (the old read state
// drains before its descriptor closes) and the log must end up empty. Run
// with -race this doubles as the swap/drain data-race regression test.
func TestPublicAPICompactionDuringQueries(t *testing.T) {
	g := buildTestGraph(t, 300, 4, 14)
	path := filepath.Join(t.TempDir(), "index.ppv")
	buildDiskIndex(t, g, 30, path)

	engine, closeIndex, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 4<<20)
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
					errc <- fmt.Errorf("query %d drifted by %v during compaction", q, d)
					return
				}
			}
		}(w)
	}

	before := durabilityOf(t, engine)
	res := compactIndex(t, engine)
	if res.LogRecordsFolded == 0 {
		t.Error("compaction under load should have folded the update log")
	}
	// What stays is the one batch's mutation.
	ds := durabilityOf(t, engine)
	if ds.LogRecords != 0 || ds.LogBatches != 1 || ds.OverlayHubs != 0 ||
		res.LogBytesFreed <= 0 || ds.LogBytes != before.LogBytes-res.LogBytesFreed {
		t.Errorf("log not shrunk to its mutation under concurrent queries: %+v (before %+v, freed %d)", ds, before, res.LogBytesFreed)
	}

	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestPublicAPIClosedDiskIndex: after the close function runs, queries must
// fail with ErrClosed instead of reading a closed descriptor or serving stale
// overlay hits.
func TestPublicAPIClosedDiskIndex(t *testing.T) {
	g := buildTestGraph(t, 200, 3, 15)
	path := filepath.Join(t.TempDir(), "index.ppv")
	buildDiskIndex(t, g, 20, path)

	engine, closeIndex, err := OpenDiskIndex(g, Options{NumHubs: 20}, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Query(0, DefaultStop()); err != nil {
		t.Fatalf("query before close: %v", err)
	}
	if err := closeIndex(); err != nil {
		t.Fatal(err)
	}
	if err := closeIndex(); err != nil {
		t.Errorf("second close should be a no-op, got %v", err)
	}
	if _, err := engine.Query(0, DefaultStop()); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close = %v, want ErrClosed", err)
	}
	if _, err := engine.ApplyUpdate(GraphUpdate{AddedEdges: []Edge{{From: 0, To: 1}}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("update after close = %v, want ErrClosed", err)
	}
}

// TestPublicAPIPrecomputeFailureLeavesNoIndexFile: the close function of a
// never-precomputed disk engine must discard the temporary file instead of
// publishing a partial index.
func TestPublicAPIPrecomputeFailureLeavesNoIndexFile(t *testing.T) {
	g := buildTestGraph(t, 100, 3, 16)
	path := filepath.Join(t.TempDir(), "index.ppv")
	_, closeIndex, err := NewWithDiskIndex(g, Options{NumHubs: 10}, path)
	if err != nil {
		t.Fatal(err)
	}
	// Precompute never ran (standing in for a failed one).
	if err := closeIndex(); err != nil {
		t.Fatalf("close without precompute: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("index file published without a successful Precompute (err=%v)", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary file left behind (err=%v)", err)
	}
}

// nonHubNode returns a node of g that is not one of e's hubs.
func nonHubNode(t testing.TB, e *Engine, from NodeID) NodeID {
	t.Helper()
	for n := from; int(n) < e.Graph().NumNodes(); n++ {
		if !e.Hubs().Contains(n) {
			return n
		}
	}
	t.Fatal("no non-hub node found")
	return 0
}

// TestPublicAPIGraphMutationDurability is the graph half of restart
// durability: a daemon restart reloads the original -graph file, so without
// the logged mutations every answer computed on the fly (non-hub queries in
// particular) would silently revert even though the updated hub PPVs replay.
// Reopening against the ORIGINAL graph must serve the post-update answers,
// at the post-update epoch.
func TestPublicAPIGraphMutationDurability(t *testing.T) {
	g := buildTestGraph(t, 300, 4, 23)
	path := filepath.Join(t.TempDir(), "index.ppv")
	buildDiskIndex(t, g, 30, path)

	engine, closeIndex, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := engine.Epoch(); got != 0 {
		t.Fatalf("fresh index at epoch %d, want 0", got)
	}
	// An edge between two non-hub nodes: the graph changes in a way only the
	// logged mutation can preserve.
	from := nonHubNode(t, engine, 200)
	to := nonHubNode(t, engine, from+1)
	if _, err := engine.ApplyUpdate(GraphUpdate{AddedEdges: []Edge{{From: from, To: to}}}); err != nil {
		t.Fatal(err)
	}
	if got := engine.Epoch(); got != 1 {
		t.Fatalf("epoch after one update = %d, want 1", got)
	}
	// Iteration 0 of a non-hub query is its prime PPV computed on the fly —
	// a pure function of the served graph, so it detects a reverted graph.
	rootOnly := StopCondition{MaxIterations: 0}
	after, err := engine.Query(from, rootOnly)
	if err != nil {
		t.Fatal(err)
	}
	ds := durabilityOf(t, engine)
	if ds.LogBatches != 1 {
		t.Fatalf("durability stats %+v, want one logged batch", ds)
	}
	if err := closeIndex(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen against the ORIGINAL graph, as a restarted daemon
	// does. The replayed mutation must reproduce the post-update answer.
	engine2, closeIndex2, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 8<<20)
	if err != nil {
		t.Fatalf("OpenDiskIndex after restart: %v", err)
	}
	if got := engine2.Epoch(); got != 1 {
		t.Errorf("epoch after replay = %d, want 1", got)
	}
	res2, err := engine2.Query(from, rootOnly)
	if err != nil {
		t.Fatal(err)
	}
	if d := res2.Estimate.L1Distance(after.Estimate); d > 1e-12 {
		t.Errorf("post-restart PPV differs from pre-restart one by %v: the graph reverted", d)
	}
	assertBoundHolds(t, engine2, 6)
	if err := closeIndex2(); err != nil {
		t.Fatal(err)
	}

	// Control: an in-memory engine on the original graph answers the
	// pre-update PPV, and the replayed answer must differ from it — proving
	// the assertion above is load-bearing.
	orig, err := New(g, Options{NumHubs: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Precompute(); err != nil {
		t.Fatal(err)
	}
	res3, err := orig.Query(from, rootOnly)
	if err != nil {
		t.Fatal(err)
	}
	if d := res3.Estimate.L1Distance(res2.Estimate); d == 0 {
		t.Error("the replayed answer equals the original graph's; the durability test proves nothing")
	}
}

// assertBoundHolds checks Theorem 2 on every node of the graph e serves: at
// eta iterations the reported L1 error bound covers the distance to the
// exact PPV of e.Graph().
func assertBoundHolds(t *testing.T, e *Engine, eta int) {
	t.Helper()
	for q := NodeID(0); int(q) < e.Graph().NumNodes(); q++ {
		res, err := e.Query(q, StopCondition{MaxIterations: eta})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactPPV(e.Graph(), q, DefaultAlpha)
		if err != nil {
			t.Fatal(err)
		}
		if trueErr := exact.L1Distance(res.Estimate); trueErr > res.L1ErrorBound+1e-9 {
			t.Fatalf("node %d: true L1 error %.6f exceeds the reported bound %.6f by %.6f",
				q, trueErr, res.L1ErrorBound, trueErr-res.L1ErrorBound)
		}
	}
}

// TestPublicAPIBuildEngineUpdateDurability: the engine that precomputed a
// disk index can take updates before it is closed, and those commit the whole
// batch — the recomputed hub PPVs and the graph mutation — so the reopened
// index serves one graph: the updated one, at the updated epoch, with the
// error bound holding for every node.
func TestPublicAPIBuildEngineUpdateDurability(t *testing.T) {
	g := buildTestGraph(t, 300, 4, 23)
	path := filepath.Join(t.TempDir(), "index.ppv")
	opts := Options{NumHubs: 30}
	build, closeBuild, err := NewWithDiskIndex(g, opts, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := build.Precompute(); err != nil {
		t.Fatal(err)
	}
	from := nonHubNode(t, build, 200)
	to := nonHubNode(t, build, from+1)
	upd := GraphUpdate{AddedEdges: []Edge{{From: from, To: to}, {From: 1, To: 2}, {From: 3, To: 4}, {From: 10, To: 250}}}
	if _, err := build.ApplyUpdate(upd); err != nil {
		t.Fatal(err)
	}
	rootOnly := StopCondition{MaxIterations: 0}
	before, err := build.Query(from, rootOnly)
	if err != nil {
		t.Fatal(err)
	}
	if err := closeBuild(); err != nil {
		t.Fatal(err)
	}

	engine, closeIndex, err := OpenDiskIndex(g, opts, path, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer closeIndex()
	if got := engine.Epoch(); got != 1 {
		t.Errorf("epoch after reopen = %d, want 1", got)
	}
	if ds := durabilityOf(t, engine); ds.LogBatches != 1 {
		t.Errorf("durability stats %+v, want one logged batch", ds)
	}
	after, err := engine.Query(from, rootOnly)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Entries, before.Entries) {
		t.Errorf("iteration-0 answer of node %d changed across the restart", from)
	}
	assertBoundHolds(t, engine, 6)
}

// TestPublicAPIGraphLogTornTailReplay mirrors the update-log torn-tail suite
// at the public API: a crash mid-append of the second batch must replay
// cleanly up to the first batch — graph, hub PPVs and epoch from before the
// torn batch.
func TestPublicAPIGraphLogTornTailReplay(t *testing.T) {
	g := buildTestGraph(t, 300, 4, 29)
	path := filepath.Join(t.TempDir(), "index.ppv")
	buildDiskIndex(t, g, 30, path)

	engine, closeIndex, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Both batches rewire the same non-hub node's out-edges, so its
	// iteration-0 PPV distinguishes every prefix of the batch sequence.
	u := nonHubNode(t, engine, 150)
	v1 := nonHubNode(t, engine, u+1)
	v2 := nonHubNode(t, engine, v1+1)
	rootOnly := StopCondition{MaxIterations: 0}
	if _, err := engine.ApplyUpdate(GraphUpdate{AddedEdges: []Edge{{From: u, To: v1}}}); err != nil {
		t.Fatal(err)
	}
	afterFirst, err := engine.Query(u, rootOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.ApplyUpdate(GraphUpdate{AddedEdges: []Edge{{From: u, To: v2}}}); err != nil {
		t.Fatal(err)
	}
	afterSecond, err := engine.Query(u, rootOnly)
	if err != nil {
		t.Fatal(err)
	}
	if afterFirst.Estimate.L1Distance(afterSecond.Estimate) == 0 {
		t.Fatal("the two batches are indistinguishable; the torn-tail test proves nothing")
	}
	if err := closeIndex(); err != nil {
		t.Fatal(err)
	}

	// Tear the second batch's frame: chop a few bytes off the log tail.
	logPath := path + ".log"
	st, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, st.Size()-4); err != nil {
		t.Fatal(err)
	}

	engine2, closeIndex2, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 8<<20)
	if err != nil {
		t.Fatalf("OpenDiskIndex with a torn update log: %v", err)
	}
	defer closeIndex2()
	if got := engine2.Epoch(); got != 1 {
		t.Errorf("epoch after torn-tail replay = %d, want 1 (the complete batch only)", got)
	}
	ds := durabilityOf(t, engine2)
	if ds.LogBatches != 1 {
		t.Errorf("update log reports %d batches after truncation, want 1", ds.LogBatches)
	}
	res, err := engine2.Query(u, rootOnly)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Estimate.L1Distance(afterFirst.Estimate); d > 1e-12 {
		t.Errorf("torn-tail replay differs from the first batch's state by %v", d)
	}
}

// TestPublicAPIRebuildPreservesOrDiscardsLog: an aborted rebuild must leave
// the old index and its durable updates (the log) fully intact, while a
// completed rebuild must not let the old log replay onto the fresh index.
func TestPublicAPIRebuildPreservesOrDiscardsLog(t *testing.T) {
	g := buildTestGraph(t, 300, 4, 17)
	path := filepath.Join(t.TempDir(), "index.ppv")
	buildDiskIndex(t, g, 30, path)

	engine, closeIndex, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	from := engine.Hubs().Hubs()[0]
	ustats, err := engine.ApplyUpdate(GraphUpdate{AddedEdges: []Edge{{From: from, To: 250}}})
	if err != nil {
		t.Fatal(err)
	}
	after, err := engine.Query(from, DefaultStop())
	if err != nil {
		t.Fatal(err)
	}
	if err := closeIndex(); err != nil {
		t.Fatal(err)
	}
	g2 := graphWithEdge(t, g, Edge{From: from, To: 250})

	// A rebuild that never completes (Precompute failed / crashed) must not
	// have touched the published index or its log.
	_, closeAborted, err := NewWithDiskIndex(g2, Options{NumHubs: 30}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := closeAborted(); err != nil {
		t.Fatal(err)
	}
	engine2, closeIndex2, err := OpenDiskIndex(g, Options{NumHubs: 30}, path, 0)
	if err != nil {
		t.Fatalf("OpenDiskIndex after an aborted rebuild: %v", err)
	}
	ds := durabilityOf(t, engine2)
	if ds.OverlayHubs != ustats.AffectedHubs {
		t.Errorf("aborted rebuild lost the durable updates: %+v, want %d overlay hubs", ds, ustats.AffectedHubs)
	}
	res2, err := engine2.Query(from, DefaultStop())
	if err != nil {
		t.Fatal(err)
	}
	if d := res2.Estimate.L1Distance(after.Estimate); d > 1e-12 {
		t.Errorf("aborted rebuild changed the answer by %v", d)
	}
	if err := closeIndex2(); err != nil {
		t.Fatal(err)
	}

	// A completed rebuild starts from a clean slate: no stale overlay.
	rebuilt, closeRebuilt, err := NewWithDiskIndex(g2, Options{NumHubs: 30}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.Precompute(); err != nil {
		t.Fatal(err)
	}
	if err := closeRebuilt(); err != nil {
		t.Fatal(err)
	}
	engine3, closeIndex3, err := OpenDiskIndex(g2, Options{NumHubs: 30}, path, 0)
	if err != nil {
		t.Fatalf("OpenDiskIndex after a completed rebuild: %v", err)
	}
	defer closeIndex3()
	ds3 := durabilityOf(t, engine3)
	if ds3.OverlayHubs != 0 || ds3.LogRecords != 0 {
		t.Errorf("completed rebuild should discard the old log, got %+v", ds3)
	}
}

// TestPublicAPIShardedDiskIndex builds per-shard disk indexes, reopens each
// as a sharded serving engine, and checks that the partition covers the
// single-node hub set exactly once and warming loads blocks into the cache.
func TestPublicAPIShardedDiskIndex(t *testing.T) {
	g := buildTestGraph(t, 900, 5, 31)
	dir := t.TempDir()

	full, err := New(g, Options{NumHubs: 80})
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Precompute(); err != nil {
		t.Fatal(err)
	}

	const shards = 2
	totalOwned := 0
	for s := 0; s < shards; s++ {
		opts := Options{NumHubs: 80, Partition: Partition{Shard: s, Shards: shards}}
		path := filepath.Join(dir, fmt.Sprintf("shard%d.ppv", s))
		build, closeBuild, err := NewWithDiskIndex(g, opts, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := build.Precompute(); err != nil {
			t.Fatal(err)
		}
		if err := closeBuild(); err != nil {
			t.Fatal(err)
		}

		engine, closeIdx, err := OpenDiskIndex(g, opts, path, 1<<20)
		if err != nil {
			t.Fatalf("opening shard %d: %v", s, err)
		}
		if got, want := engine.Hubs().Size(), full.Hubs().Size(); got != want {
			t.Errorf("shard %d recovered %d hubs, want the full set of %d", s, got, want)
		}
		owned := engine.Index().Len()
		totalOwned += owned

		// A partial expansion over a foreign hub is refused.
		var foreign NodeID = -1
		for _, h := range full.Hubs().Hubs() {
			if !opts.Partition.Owns(h) {
				foreign = h
				break
			}
		}
		if foreign >= 0 {
			part, err := engine.PartialExpand([]NodeID{foreign}, []float64{0.5})
			if err != nil {
				t.Fatal(err)
			}
			if len(part.Unowned) != 1 {
				t.Errorf("shard %d expanded foreign hub %d", s, foreign)
			}
		}

		// Opening as the wrong shard must fail.
		wrong := opts
		wrong.Partition.Shard = (s + 1) % shards
		if e2, c2, err := OpenDiskIndex(g, wrong, path, -1); err == nil {
			_ = e2
			c2()
			t.Errorf("opening shard %d index as shard %d should fail", s, wrong.Partition.Shard)
		}
		if err := closeIdx(); err != nil {
			t.Fatal(err)
		}
	}
	if totalOwned != full.Index().Len() {
		t.Errorf("shards own %d hubs in total, full index has %d", totalOwned, full.Index().Len())
	}
}

// TestPublicAPIShardedRestartKeepsHubSet: a sharded disk index restarted with
// its logged mutations replayed must come back with the hub set it was
// precomputed with.
// Updates keep the hub set fixed, so recovering the full set by selecting on
// the replayed graph either fails to open or silently serves a different set.
func TestPublicAPIShardedRestartKeepsHubSet(t *testing.T) {
	g := buildTestGraph(t, 900, 5, 31)
	opts := Options{NumHubs: 80, Partition: Partition{Shard: 0, Shards: 2}}
	path := filepath.Join(t.TempDir(), "shard0.ppv")
	build, closeBuild, err := NewWithDiskIndex(g, opts, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := build.Precompute(); err != nil {
		t.Fatal(err)
	}
	if err := closeBuild(); err != nil {
		t.Fatal(err)
	}

	live, closeLive, err := OpenDiskIndexWithOptions(g, opts, path, DiskIndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Turn a non-hub into the best-connected node of the graph: popular and
	// high out-degree, so any selection on the updated graph ranks it in.
	star := nonHubNode(t, live, 500)
	var upd GraphUpdate
	for u := NodeID(0); u < 300; u++ {
		if u != star {
			upd.AddedEdges = append(upd.AddedEdges, Edge{From: star, To: u}, Edge{From: u, To: star})
		}
	}
	if _, err := live.ApplyUpdate(upd); err != nil {
		t.Fatal(err)
	}
	reselected, err := New(live.Graph(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := reselected.Precompute(); err != nil {
		t.Fatal(err)
	}
	if !reselected.Hubs().Contains(star) {
		t.Fatal("the update did not change the selection ranking; the test proves nothing")
	}
	wantHubs := append([]NodeID(nil), live.Hubs().Hubs()...)
	queries := []NodeID{star, 3, 777, wantHubs[0]}
	stop := StopCondition{MaxIterations: 3}
	want := make([]Vector, len(queries))
	for i, q := range queries {
		res, err := live.Query(q, stop)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Estimate.Clone()
	}
	if err := closeLive(); err != nil {
		t.Fatal(err)
	}

	// "Restart": the original graph file, the logged mutations replayed on top.
	reopened, closeReopened, err := OpenDiskIndexWithOptions(g, opts, path, DiskIndexOptions{})
	if err != nil {
		t.Fatalf("reopening the sharded index after an update: %v", err)
	}
	defer closeReopened()
	if got := reopened.Epoch(); got != 1 {
		t.Errorf("epoch after replay = %d, want 1", got)
	}
	if got := reopened.Hubs().Hubs(); !reflect.DeepEqual(got, wantHubs) {
		t.Fatalf("restart changed the hub set: %d hubs, star a hub: %v; want the %d precomputed hubs",
			len(got), reopened.Hubs().Contains(star), len(wantHubs))
	}
	for i, q := range queries {
		res, err := reopened.Query(q, stop)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Estimate) != len(want[i]) {
			t.Fatalf("query %d: %d entries after restart, %d live", q, len(res.Estimate), len(want[i]))
		}
		for n, s := range want[i] {
			if res.Estimate[n] != s {
				t.Fatalf("query %d entry %d = %v after restart, live engine answered %v", q, n, res.Estimate[n], s)
			}
		}
	}
}

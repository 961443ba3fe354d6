package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"fastppv"
	"fastppv/internal/graph"
	"fastppv/internal/pagerank"
	"fastppv/internal/server"
	"fastppv/internal/sparse"
)

func (m metricSet) set(name string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		m[name] = v
	}
}

// runWorkload runs one workload end to end: set-up (repeated, when the
// end-to-end metrics are wanted, so that setup_s is a median), warm-up, the
// timed phase in five slices, verification and — when layers is set — the
// stacked traced run and the per-layer loops.
func runWorkload(cfg config, sp spec, seed int64, layers bool) (*Result, error) {
	res := &Result{
		Workload: sp.name, Seed: seed, DurationS: cfg.duration.Seconds(),
		Nodes: cfg.nodes, Hubs: cfg.hubs, Host: thisHost(),
		EndToEnd: metricSet{}, PerLayer: metricSet{}, Spread: metricSet{},
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-"+sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Set-up, cfg.setups times over; the last stack is the one measured.
	var (
		st     *stack
		src    *sourceStream
		heapMB float64
	)
	// One deferred close of whichever stack is current: a close per stack
	// would keep every earlier engine reachable, and in heap_live_mb.
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
			st = nil
		}
		dir := filepath.Join(tmp, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if st, err = buildStack(cfg, sp, dir); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		built := time.Since(t0)
		if src == nil {
			src = &sourceStream{nodes: sp.sources(st.g, st.hubs(), seed)}
		}
		// The timed phase must not start on a heap full of precompute
		// garbage: collect, hand the pages back, and read the live heap.
		runtime.GC()
		debug.FreeOSMemory()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapMB = float64(ms.HeapAlloc) / (1 << 20)

		warm := closedLoop(st.base, src, 0, cfg.warmupRequests, nil)
		if warm.failed > 0 {
			return nil, fmt.Errorf("%s: %d of %d warm-up requests failed", sp.name, warm.failed, warm.attempted)
		}
		res.SetupRuns = append(res.SetupRuns, (built + warm.elapsed).Seconds())
	}
	res.EndToEnd.set("setup_s", median(res.SetupRuns))
	res.Spread.set("setup_s", quartileSpread(res.SetupRuns))
	res.EndToEnd.set("heap_live_mb", heapMB)
	res.EndToEnd.set("index_bytes", float64(st.indexBytes))
	res.PerLayer.set("gen.graph_s", st.genS)
	res.PerLayer.set("core.precompute_s", st.precomputeS)
	res.PerLayer.set("core.precompute_alloc_mb", st.precomputeAllocMB)

	// The timed phase, bracketed by the counters the layer ledger reads.
	admin := newClient(st.base)
	defer admin.close()
	var wr *writes
	if sp.updates {
		stream, err := newUpdateStream(st.g, seed)
		if err != nil {
			return nil, err
		}
		wr = &writes{stream: stream, every: cfg.updateEvery}
	}
	// A discarded stretch of the same load first, so that the heap target,
	// the block cache and, with writes, the first graph rebuilds have settled
	// before the clock starts.
	if warm := closedLoop(st.base, src, cfg.warmup, 0, wr); warm.failed > 0 {
		return nil, fmt.Errorf("%s: %d of %d warm-up requests failed: %v", sp.name, warm.failed, warm.attempted, warm.failMessages)
	}
	if wr != nil {
		wr.compact = true
	}
	var before, after server.StatsResponse
	if err := admin.getJSON("/v1/stats", &before); err != nil {
		return nil, err
	}
	mc := startMallocs()
	ph := closedLoop(st.base, src, cfg.duration, 0, wr)
	allocsPerRequest, _ := mc.per(int(max(ph.attempted, 1)))
	if err := admin.getJSON("/v1/stats", &after); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = ph.attempted, ph.failed
	res.Failures = append(res.Failures, ph.failMessages...)

	res.Slices = sliceStats(ph.samples, cfg.duration, numSlices)
	floor := sp.minSlice
	if floor == 0 {
		floor = minSliceSamples
	}
	for i, s := range res.Slices {
		if s.Samples < floor {
			res.ThinSlices = append(res.ThinSlices, fmt.Sprintf("slice %d holds %d samples, fewer than %d", i, s.Samples, floor))
		}
	}
	if cfg.checkSlices {
		res.Failures = append(res.Failures, res.ThinSlices...)
	}
	e2e := func(name string, field func(sliceStat) float64) {
		med, spread := overSlices(res.Slices, field)
		res.EndToEnd.set(name, med)
		res.Spread.set(name, spread)
	}
	e2e("query_p50_ms", func(s sliceStat) float64 { return s.P50MS })
	p99med, _ := overSlices(res.Slices, func(s sliceStat) float64 { return s.P99MS })
	res.PerLayer.set("query_p99_ms", p99med)
	_, qpsSpread := overSlices(res.Slices, func(s sliceStat) float64 { return s.QPS })
	var queriesOK int64
	for _, s := range ph.samples {
		if s.ok {
			queriesOK++
		}
	}
	res.EndToEnd.set("qps", float64(queriesOK)/ph.elapsed.Seconds())
	res.Spread.set("qps", qpsSpread)

	pl := res.PerLayer
	pl.set("query_samples", float64(len(ph.samples)))
	pl.set("server.resp_bytes_per_query", float64(ph.bytes)/float64(max(queriesOK, 1)))
	pl.set("server.degraded_share", float64(ph.degraded)/float64(max(ph.attempted, 1)))
	pl.set("server.allocs_per_request", allocsPerRequest)
	if mb, ok := rssPeakMB(); ok {
		pl.set("server.rss_peak_mb", mb)
	}
	if sp.cache {
		pl.set("server.cache_hit_rate", float64(ph.hits)/float64(max(queriesOK, 1)))
		pl.set("server.coalesced_share", float64(ph.coalesced)/float64(max(queriesOK, 1)))
	}
	if b, a := before.BlockCache, after.BlockCache; b != nil && a != nil {
		if probes := (a.Hits - b.Hits) + (a.Misses - b.Misses); probes > 0 {
			pl.set("ppvindex.blockcache_hit_rate", float64(a.Hits-b.Hits)/float64(probes))
		}
		pl.set("ppvindex.blockcache_evictions", float64(a.Evictions-b.Evictions))
		pl.set("ppvindex.disk_reads_per_query", float64(a.Loads-b.Loads)/float64(max(queriesOK, 1)))
	}
	if len(ph.updates) > 0 {
		ms := make([]float64, len(ph.updates))
		for i, d := range ph.updates {
			ms[i] = float64(d) / 1e6
		}
		pl.set("update_p50_ms", p50(ms))
		pl.set("update_p80_ms", quantileOf(ms, 0.80))
		if b, a := before.Durability, after.Durability; b != nil && a != nil {
			pl.set("ppvindex.wal_bytes_per_update", float64(ph.walBytes+a.LogBytes-b.LogBytes)/float64(len(ph.updates)))
		}
	}
	if ph.compaction != nil {
		pl.set("ppvindex.compact_ms", ph.compaction.DurationMS)
		pl.set("ppvindex.compact_bytes", float64(ph.compaction.IndexBytes))
	}

	verify(cfg, st, src, res)

	if layers {
		if err := runLayers(cfg, sp, st, src, seed, tmp, res); err != nil {
			return nil, err
		}
	}
	// fail_share counts every way a request can fail the caller, failed
	// verification included.
	pl.set("fail_share", float64(res.Failed)/float64(max(res.Attempted, 1)))
	res.Correct = len(res.Failures) == 0 && res.Failed == 0
	return res, st.close()
}

// l1Distance sums |a-b| in ascending node order, so the result repeats bit
// for bit (sparse.Vector.L1Distance follows map order).
func l1Distance(a, b sparse.Vector) float64 {
	ids := make([]graph.NodeID, 0, len(a)+len(b))
	for id := range a {
		ids = append(ids, id)
	}
	for id := range b {
		if _, ok := a[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var total float64
	for _, id := range ids {
		total += math.Abs(a[id] - b[id])
	}
	return total
}

// verify checks, outside the timed phase, that the answers are right: for
// cfg.verifySources seeded sources the estimate lies within its reported
// bound of the exact PPV, and what HTTP serves is what the engine computes —
// score for score on a single engine, byte for byte across two identical
// requests on the cluster. Each source checked counts as one attempt.
func verify(cfg config, st *stack, src *sourceStream, res *Result) {
	c := newClient(st.base)
	defer c.close()
	fail := func(format string, args ...any) {
		res.Failed++
		res.Failures = append(res.Failures, "verify: "+fmt.Sprintf(format, args...))
	}
	var bounds, errs []float64
	for _, q := range src.distinctHead(cfg.verifySources) {
		res.Attempted++
		var (
			est   sparse.Vector
			bound float64
			top   []sparse.Entry
			g     *graph.Graph
			alpha float64
		)
		if st.router != nil {
			cres, err := st.router.Query(q, stop)
			if err != nil {
				fail("router query %d: %v", q, err)
				continue
			}
			est, bound, g, alpha = cres.Estimate, cres.L1ErrorBound, st.g, st.shards[0].Options().Alpha
		} else {
			eres, err := st.engine.Query(q, stop)
			if err != nil {
				fail("engine query %d: %v", q, err)
				continue
			}
			est, bound, top = eres.Estimate, eres.L1ErrorBound, eres.TopK(queryTop)
			g, alpha = st.engine.Graph(), st.engine.Options().Alpha
		}
		exact, err := pagerank.ExactPPV(g, q, pagerank.Options{Alpha: alpha})
		if err != nil {
			fail("exact PPV of %d: %v", q, err)
			continue
		}
		l1 := l1Distance(exact, est)
		bounds, errs = append(bounds, bound), append(errs, l1)
		if l1 > bound+1e-9 {
			fail("source %d: L1 error %.12g exceeds the reported bound %.12g", q, l1, bound)
			continue
		}

		o := c.query(q)
		if !o.ok {
			fail("HTTP query %d failed", q)
			continue
		}
		if st.router != nil {
			first := append([]byte(nil), o.body...)
			if o = c.query(q); !o.ok || !bytes.Equal(first, o.body) {
				fail("source %d: two identical requests returned different bodies", q)
			}
			continue
		}
		var body server.QueryResponse
		if err := json.Unmarshal(o.body, &body); err != nil {
			fail("source %d: body does not parse: %v", q, err)
			continue
		}
		if body.L1ErrorBound != bound || len(body.Results) != len(top) {
			fail("source %d: HTTP bound %.17g / %d results, engine %.17g / %d", q, body.L1ErrorBound, len(body.Results), bound, len(top))
			continue
		}
		for i, e := range top {
			if body.Results[i].Node != int(e.Node) || body.Results[i].Score != e.Score {
				fail("source %d: HTTP top-%d entry %d is (%d, %.17g), the engine's (%d, %.17g)",
					q, queryTop, i, body.Results[i].Node, body.Results[i].Score, e.Node, e.Score)
				break
			}
		}
	}
	res.EndToEnd.set("l1_bound_p50", p50(bounds))
	res.EndToEnd.set("l1_err_p50", p50(errs))
}

// runLayers is everything -trace 1 adds: the fixed-rate pass (where the
// workload has one), the stacked traced run and the per-layer loops.
func runLayers(cfg config, sp spec, st *stack, src *sourceStream, seed int64, tmp string, res *Result) error {
	pl := res.PerLayer
	if sp.openLoop {
		op := openLoop(st.base, src, cfg.duration/3, openLoopRate)
		var ms []float64
		for _, s := range op.samples {
			if s.ok {
				ms = append(ms, float64(s.latency)/1e6)
			}
		}
		late := make([]float64, len(op.lateness))
		for i, d := range op.lateness {
			late[i] = float64(d) / 1e6
		}
		pl.set("server.open1000_p50_ms", p50(ms))
		pl.set("server.open1000_p99_ms", p99(ms))
		pl.set("server.open1000_late_ms_p99", p99(late))
		res.Attempted += op.attempted
		res.Failed += op.failed
	}

	// The two innermost depths need an unsharded engine; the cluster
	// workload precomputes one here, outside every timed figure.
	ref := st.engine
	if ref == nil {
		var err error
		if ref, err = fastppv.New(st.g, fastppv.Options{NumHubs: cfg.hubs}); err != nil {
			return err
		}
		if err := ref.Precompute(); err != nil {
			return err
		}
	}
	sources := src.head(cfg.traceQueries)
	var routerBefore = routerCounters(st)
	tr, err := tracedRun(st, ref, sp, sources)
	if err != nil {
		return err
	}
	routerAfter := routerCounters(st)
	res.Failures = append(res.Failures, tr.failures...)
	res.Attempted += int64(len(sources))
	res.Failed += int64(len(tr.failures))
	if err := tr.tr.write(filepath.Join(cfg.outDir, "trace_"+sp.name+".jsonl")); err != nil {
		return err
	}

	selfUS, share := layerSelf(tr.tr.spans)
	for _, l := range traceLayers {
		if l == "cluster" && st.router == nil {
			continue
		}
		pl.set(l+".self_us_p50", selfUS[l])
		pl.set(l+".self_share", share[l])
	}
	httpP50 := p50(tr.spanUS("http"))
	pl.set("server.http_overhead_us", httpP50-p50(tr.spanUS("server")))
	pl.set("trace_overhead_us", httpP50-res.EndToEnd["query_p50_ms"]*1e3)
	pl.set("core.iter0_us_p50", p50(tr.iter0US))
	pl.set("core.step_us_p50", p50(tr.stepUS))

	var foldUS, entries, folds float64
	var perQueryFold []float64
	for _, rp := range tr.replays {
		perQueryFold = append(perQueryFold, float64(rp.fold)/1e3)
		foldUS += float64(rp.fold) / 1e3
		entries += float64(rp.entries)
		folds++
	}
	pl.set("sparse.fold_us_p50", p50(perQueryFold))
	pl.set("sparse.entries_per_fold", entries/math.Max(folds, 1))
	if entries > 0 {
		pl.set("sparse.fold_ns_per_entry", foldUS*1e3/entries)
	}

	if err := layerMetrics(pl, cfg, st, ref, sp, sources, seed, tmp); err != nil {
		return err
	}
	if st.router != nil {
		routerUS := p50(tr.spanUS("cluster"))
		// Three of the four depths go through the router, so its counters
		// saw every source three times.
		n := 3 * float64(len(sources))
		pl.set("cluster.router_us_p50", routerUS)
		pl.set("cluster.legs_per_query", mean(tr.legs))
		pl.set("cluster.wire_bytes_per_query", float64(routerAfter.wire-routerBefore.wire)/n)
		if sent := routerAfter.specSent - routerBefore.specSent; sent > 0 {
			pl.set("cluster.speculation_hit_rate", float64(routerAfter.specHits-routerBefore.specHits)/float64(sent))
		}
		if single := pl["core.query_us_p50"]; single > 0 {
			pl.set("cluster.vs_single_ratio", routerUS/single)
		}
	}
	return nil
}

type routerCount struct{ wire, specSent, specHits int64 }

func routerCounters(st *stack) routerCount {
	if st.router == nil {
		return routerCount{}
	}
	s := st.router.Stats()
	return routerCount{wire: s.WireBytesSent + s.WireBytesReceived, specSent: s.SpeculationsSent, specHits: s.SpeculationHits}
}

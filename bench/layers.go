package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fastppv/internal/api"
	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/hub"
	"fastppv/internal/pagerank"
	"fastppv/internal/ppvindex"
	"fastppv/internal/prime"
	"fastppv/internal/querylog"
	"fastppv/internal/sparse"
	"fastppv/internal/telemetry"
)

// stop is the stopping condition of every benchmark query.
var stop = core.StopCondition{MaxIterations: queryEta}

// stepQuery runs one query through NewQuery/Step, the way Engine.Query does,
// and times iteration 0 and each step from outside.
func stepQuery(e *core.Engine, q graph.NodeID) (res *core.Result, start, end time.Time, iter0 time.Duration, steps []time.Duration, err error) {
	start = time.Now()
	qs, err := e.NewQuery(q)
	if err != nil {
		return nil, start, start, 0, nil, err
	}
	iter0 = time.Since(start)
	for i := 0; i < queryEta && !qs.Exhausted(); i++ {
		prev := qs.L1ErrorBound()
		t := time.Now()
		st := qs.Step()
		steps = append(steps, time.Since(t))
		if st.MassAdded == 0 && st.L1ErrorBound >= prev {
			break
		}
	}
	qs.Close()
	end = time.Now()
	return qs.Result(), start, end, iter0, steps, nil
}

// traced is what the stacked traced run recorded.
type traced struct {
	tr      *tracer
	replays []replay
	iter0US []float64
	stepUS  []float64
	// legs is the shard legs of each routed query; cluster workload only.
	legs     []float64
	failures []string
}

// tracedRun replays the sources stacked: each query is issued over loopback
// HTTP, through the handler with no socket, through Engine.Query (Router.Query
// on the cluster workload), and through NewQuery/Step followed by the
// harness's own replay of the query's prime PPV, record reads and fold. ref is
// the unsharded engine the two innermost depths run on.
func tracedRun(st *stack, ref *core.Engine, sp spec, sources []graph.NodeID) (*traced, error) {
	out := &traced{tr: newTracer()}
	var bufs replayBufs
	h := st.front.Handler()
	w := &memWriter{}
	c := newClient(st.base)
	defer c.close()
	fail := func(format string, args ...any) {
		if len(out.failures) < 8 {
			out.failures = append(out.failures, fmt.Sprintf(format, args...))
		}
	}
	for i, q := range sources {
		path := queryPath(q)
		if sp.cache {
			// Prime the result cache so that both served depths see the same
			// disposition (a hit); the miss stack is what the uncached
			// workloads trace.
			if _, _, _, err := inproc(h, w, path); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		o := c.query(q)
		httpID := out.tr.add(i, "http", 0, t0, time.Now())
		if !o.ok {
			fail("traced HTTP query %d failed", q)
		}
		s0, s1, disposition, err := inproc(h, w, path)
		if err != nil {
			return nil, err
		}
		parent := out.tr.add(i, "server", httpID, s0, s1)
		if disposition == "hit" || disposition == "coalesced" {
			// The server answered from its cache: the engine work below is
			// recorded, but no served request paid for it.
			parent = 0
		}

		var bound float64
		if st.router != nil {
			t0 = time.Now()
			cres, err := st.router.Query(q, stop)
			if err != nil {
				return nil, fmt.Errorf("traced router query %d: %w", q, err)
			}
			parent = out.tr.add(i, "cluster", parent, t0, time.Now())
			var legs int
			for _, sp := range cres.Spans {
				legs += len(sp.Legs)
			}
			out.legs = append(out.legs, float64(legs))
			bound = cres.L1ErrorBound
			if cres.Degraded {
				fail("traced router query %d came back degraded", q)
			}
		} else {
			t0 = time.Now()
			res, err := ref.Query(q, stop)
			if err != nil {
				return nil, fmt.Errorf("traced engine query %d: %w", q, err)
			}
			parent = out.tr.add(i, "core", parent, t0, time.Now())
			bound = res.L1ErrorBound
		}
		_, s0, s1, iter0, steps, err := stepQuery(ref, q)
		if err != nil {
			return nil, fmt.Errorf("traced stepping %d: %w", q, err)
		}
		out.iter0US = append(out.iter0US, float64(iter0)/1e3)
		out.stepUS = append(out.stepUS, durationsUS(steps)...)
		if st.router != nil {
			parent = out.tr.add(i, "core", parent, s0, s1)
		} else {
			// On a single engine depth three already is the core span; the
			// stepping pass is kept for the record, outside the tree.
			out.tr.add(i, "core.steps", 0, s0, s1)
		}

		t0 = time.Now()
		rp, err := replayQuery(ref, &bufs, q, queryEta)
		if err != nil {
			return nil, err
		}
		if diff := rp.bound - bound; diff > 1e-12 || diff < -1e-12 {
			fail("replay of query %d reached bound %.17g, the engine %.17g", q, rp.bound, bound)
		}
		out.replays = append(out.replays, rp)
		if rp.computed {
			out.tr.add(i, "prime", parent, t0, t0.Add(rp.prime))
			t0 = t0.Add(rp.prime)
		}
		out.tr.add(i, "ppvindex", parent, t0, t0.Add(rp.index))
		t0 = t0.Add(rp.index)
		out.tr.add(i, "sparse", parent, t0, t0.Add(rp.fold))
	}
	return out, nil
}

func (t *traced) spanUS(name string) []float64 {
	var out []float64
	for _, s := range t.tr.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// mallocs brackets a loop with the process's allocation counters; with one
// goroutine driving an otherwise idle process the counts repeat run to run.
type mallocs struct{ before runtime.MemStats }

func startMallocs() *mallocs {
	m := &mallocs{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *mallocs) per(n int) (allocs, bytes float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-m.before.Mallocs) / float64(n), float64(after.TotalAlloc-m.before.TotalAlloc) / float64(n)
}

// layerMetrics times calls into each module's public functions from outside,
// over the traced run's sources, one goroutine at a time. dir takes the
// scratch files (a disk copy of the index, a WAL, a query log).
func layerMetrics(m metricSet, cfg config, st *stack, ref *core.Engine, sp spec, sources []graph.NodeID, seed int64, dir string) error {
	opts := ref.Options()
	n := len(sources)

	t := time.Now()
	if _, err := hub.Select(ref.Graph(), hub.Options{Count: cfg.hubs, Policy: opts.HubPolicy,
		PageRankOptions: pagerank.Options{Alpha: opts.Alpha}, Seed: opts.HubSeed}); err != nil {
		return err
	}
	m.set("hub.select_s", time.Since(t).Seconds())

	// prime: the on-the-fly prime PPV every non-hub query and every update
	// recomputation pays.
	var us, pushes, touched []float64
	primeOpts := prime.Options{Alpha: opts.Alpha, Epsilon: opts.Epsilon, MaxPushes: opts.MaxPushes}
	mc := startMallocs()
	for _, q := range sources {
		t := time.Now()
		_, ps, err := prime.ComputePPV(ref.Graph(), q, ref.Hubs(), primeOpts)
		if err != nil {
			return err
		}
		us = append(us, float64(time.Since(t))/1e3)
		pushes, touched = append(pushes, float64(ps.Pushes)), append(touched, float64(ps.NodesTouched))
	}
	allocs, bytes := mc.per(n)
	m.set("prime.ppv_us_p50", p50(us))
	m.set("prime.pushes_per_ppv", mean(pushes))
	m.set("prime.nodes_touched_per_ppv", mean(touched))
	m.set("prime.allocs_per_ppv", allocs)
	m.set("prime.alloc_bytes_per_ppv", bytes)

	// core: whole queries through the engine.
	var expanded, skipped, topkUS []float64
	us = us[:0]
	poolBefore := core.QueryPoolStats()
	results := make([]*core.Result, 0, n)
	mc = startMallocs()
	for _, q := range sources {
		t := time.Now()
		res, err := ref.Query(q, stop)
		if err != nil {
			return err
		}
		us = append(us, float64(time.Since(t))/1e3)
		results = append(results, res)
	}
	allocs, bytes = mc.per(n)
	poolAfter := core.QueryPoolStats()
	for _, res := range results {
		var ex, sk int
		for _, it := range res.PerIteration {
			ex, sk = ex+it.HubsExpanded, sk+it.HubsSkipped
		}
		expanded, skipped = append(expanded, float64(ex)), append(skipped, float64(sk))
		t := time.Now()
		res.TopK(queryTop)
		topkUS = append(topkUS, float64(time.Since(t))/1e3)
	}
	m.set("core.query_us_p50", p50(us))
	m.set("core.allocs_per_query", allocs)
	m.set("core.alloc_bytes_per_query", bytes)
	m.set("core.hubs_expanded_per_query", mean(expanded))
	m.set("core.hubs_skipped_per_query", mean(skipped))
	if gets := poolAfter.Gets - poolBefore.Gets; gets > 0 {
		m.set("core.pool_hit_rate", float64(poolAfter.Hits-poolBefore.Hits)/float64(gets))
	}
	m.set("sparse.topk_us_p50", p50(topkUS))

	if err := indexMetrics(m, ref, dir); err != nil {
		return err
	}
	if err := serverMetrics(m, st, sp, sources); err != nil {
		return err
	}
	if err := apiMetrics(m, ref, sources); err != nil {
		return err
	}
	if err := querylogMetrics(m, dir); err != nil {
		return err
	}

	h := telemetry.NewHistogram(nil)
	const observes = 2_000_000
	t = time.Now()
	for i := 0; i < observes; i++ {
		h.Observe(float64(i&1023) * 1e-5)
	}
	m.set("telemetry.observe_ns", float64(time.Since(t))/observes)

	// core.update mutates the engine, so it runs last.
	stream, err := newUpdateStream(ref.Graph(), seed+1)
	if err != nil {
		return err
	}
	var updMS, affected []float64
	for i := 0; i < 6; i++ {
		t := time.Now()
		us, err := ref.ApplyUpdate(graphUpdate(stream.next()))
		if err != nil {
			return fmt.Errorf("core.update round %d: %w", i, err)
		}
		updMS = append(updMS, float64(time.Since(t))/1e6)
		affected = append(affected, float64(us.AffectedHubs))
	}
	m.set("core.update_ms_p50", p50(updMS))
	m.set("core.update_affected_hubs_mean", mean(affected))
	return nil
}

// indexMetrics times one hub-record read on each backend. The records are
// the workload's own: the reference index is copied to a disk file so that
// every backend serves the same bytes whatever the workload runs on.
func indexMetrics(m metricSet, ref *core.Engine, dir string) error {
	idx := ref.Index()
	hubs := idx.Hubs()
	path := filepath.Join(dir, "layers.ppv")
	wr, err := ppvindex.CreateDisk(path)
	if err != nil {
		return err
	}
	mem := ppvindex.NewMemIndex()
	var sizes []float64
	for _, h := range hubs {
		v, ok, err := idx.Get(h)
		if err != nil || !ok {
			wr.Abort()
			return fmt.Errorf("copying hub %d: ok=%v err=%v", h, ok, err)
		}
		if err := wr.Put(h, v); err != nil {
			wr.Abort()
			return err
		}
		mem.Put(h, v)
		sizes = append(sizes, float64(len(v)*sparse.EncodedEntrySize))
	}
	if err := wr.Close(); err != nil {
		return err
	}
	m.set("ppvindex.record_bytes_p50", p50(sizes))

	// perRead times fn over every hub after one untimed pass, so lazy state
	// (page faults of a fresh mapping, cache fill) is paid before the clock.
	perRead := func(fn func(h graph.NodeID) error) (float64, error) {
		for pass := 0; pass < 2; pass++ {
			t := time.Now()
			for _, h := range hubs {
				if err := fn(h); err != nil {
					return 0, err
				}
			}
			if pass == 1 {
				return float64(time.Since(t)) / float64(len(hubs)), nil
			}
		}
		return 0, nil
	}
	viewRead := func(vg ppvindex.ViewGetter) func(graph.NodeID) error {
		return func(h graph.NodeID) error {
			v, ok, err := vg.GetView(h)
			if err != nil || !ok {
				return fmt.Errorf("view of hub %d: ok=%v err=%v", h, ok, err)
			}
			v.Release()
			return nil
		}
	}
	ns, err := perRead(func(h graph.NodeID) error {
		if _, ok, _ := mem.Get(h); !ok {
			return fmt.Errorf("hub %d missing from the memory index", h)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("ppvindex.view_ns.mem_get", ns)

	mm, err := ppvindex.OpenDiskWithOptions(path, ppvindex.DiskOptions{Mmap: true})
	if err != nil {
		return err
	}
	defer mm.Close()
	if mm.MmapActive() {
		if ns, err = perRead(viewRead(mm)); err != nil {
			return err
		}
		m.set("ppvindex.view_ns.mmap", ns)
	}
	pr, err := ppvindex.OpenDisk(path)
	if err != nil {
		return err
	}
	defer pr.Close()
	if ns, err = perRead(viewRead(pr)); err != nil {
		return err
	}
	m.set("ppvindex.view_ns.pread", ns)
	if ns, err = perRead(func(h graph.NodeID) error {
		_, ok, err := pr.Get(h)
		if err != nil || !ok {
			return fmt.Errorf("decoded read of hub %d: ok=%v err=%v", h, ok, err)
		}
		return nil
	}); err != nil {
		return err
	}
	m.set("ppvindex.get_decoded_ns", ns)
	// A budget of the whole file plus the per-block overhead keeps every
	// block resident, so the timed pass is all hits.
	bc := ppvindex.NewBlockCache(pr, 2*pr.SizeBytes()+int64(len(hubs))*256, 0)
	if ns, err = perRead(viewRead(bc)); err != nil {
		return err
	}
	m.set("ppvindex.view_ns.blockcache_hit", ns)

	// WAL: one record appended and fsync'd, the durable half of an update.
	lg, err := ppvindex.OpenUpdateLog(filepath.Join(dir, "layers.log"), pr.SizeBytes(), pr.Len(), nil)
	if err != nil {
		return err
	}
	defer lg.Close()
	var commitMS []float64
	for i := 0; i < 20 && i < len(hubs); i++ {
		v, _, _ := mem.Get(hubs[i])
		t := time.Now()
		if err := lg.Append(hubs[i], v); err != nil {
			return err
		}
		if err := lg.Commit(); err != nil {
			return err
		}
		commitMS = append(commitMS, float64(time.Since(t))/1e6)
	}
	m.set("ppvindex.wal_commit_ms_p50", p50(commitMS))
	return nil
}

// serverMetrics times the serving layers with no socket: a miss (the whole
// answer path) and, where the result cache is on, a hit.
func serverMetrics(m metricSet, st *stack, sp spec, sources []graph.NodeID) error {
	h := st.front.Handler()
	w := &memWriter{}
	var missUS, hitUS []float64
	for _, q := range sources {
		path := queryPath(q)
		if sp.cache {
			// A target error no bound can reach is a cache key nothing has
			// used yet and changes no arithmetic: the first call is a miss.
			path += "&target-error=1e-300"
		}
		t0, t1, disposition, err := inproc(h, w, path)
		if err != nil {
			return err
		}
		if disposition == "hit" {
			continue // a repeated source: its miss was timed the first time
		}
		missUS = append(missUS, float64(t1.Sub(t0))/1e3)
		if !sp.cache {
			continue
		}
		if t0, t1, disposition, err = inproc(h, w, path); err != nil {
			return err
		}
		if disposition == "hit" {
			hitUS = append(hitUS, float64(t1.Sub(t0))/1e3)
		}
	}
	m.set("server.inproc_miss_us_p50", p50(missUS))
	m.set("server.inproc_hit_us_p50", p50(hitUS))
	return nil
}

// apiMetrics times the shard-wire codec on the partial responses the
// sources' own root iterations produce.
func apiMetrics(m metricSet, ref *core.Engine, sources []graph.NodeID) error {
	if len(sources) > 100 {
		sources = sources[:100]
	}
	var encUS, decUS, frame []float64
	var buf bytes.Buffer
	for i, q := range sources {
		inc, err := ref.PartialRoot(q)
		if err != nil {
			return err
		}
		resp := &api.PartialResponse{
			Shards: 1, Increment: api.EncodeVector(inc.Increment), Frontier: api.EncodeMap(inc.Frontier),
			FromIndex: inc.FromIndex,
		}
		buf.Reset()
		t := time.Now()
		payload, err := api.EncodePartialResponse(uint64(i), resp)
		if err != nil {
			return err
		}
		if _, err := api.WriteFrame(&buf, api.FramePartialResponse, payload); err != nil {
			return err
		}
		encUS = append(encUS, float64(time.Since(t))/1e3)
		frame = append(frame, float64(buf.Len()))
		t = time.Now()
		_, payload, _, err = api.ReadFrame(&buf)
		if err != nil {
			return err
		}
		if _, _, err := api.DecodePartialResponse(payload); err != nil {
			return err
		}
		decUS = append(decUS, float64(time.Since(t))/1e3)
	}
	m.set("api.encode_partial_us", p50(encUS))
	m.set("api.decode_partial_us", p50(decUS))
	m.set("api.frame_bytes_per_partial", mean(frame))
	return nil
}

func querylogMetrics(m metricSet, dir string) error {
	lg, err := querylog.Open(filepath.Join(dir, "layers.qlog"), querylog.Options{}, nil)
	if err != nil {
		return err
	}
	const records = 20_000
	t := time.Now()
	for i := 0; i < records; i++ {
		if err := lg.Append(querylog.Record{Source: graph.NodeID(i), Top: queryTop, Eta: queryEta,
			Iterations: queryEta, LatencyUS: 1000, Bound: 0.5}); err != nil {
			lg.Close()
			return err
		}
	}
	m.set("querylog.append_ns", float64(time.Since(t))/records)
	bytes := lg.Stats().ActiveBytes
	if err := lg.Close(); err != nil {
		return err
	}
	m.set("querylog.bytes_per_record", float64(bytes)/records)
	return nil
}

// rssPeakMB is the process's peak resident set, from /proc; absent elsewhere.
func rssPeakMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, false
			}
			return kb / 1024, true
		}
	}
	return 0, false
}

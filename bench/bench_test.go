package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fastppv"
	"fastppv/internal/gen"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one value = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestSliceStats(t *testing.T) {
	// Five slices of a 5 s phase; slice i holds 100 samples of latency
	// (i+1) ms .. (i+1)+0.99 ms, plus one failure and stragglers outside
	// the window that must not count.
	var samples []sample
	for i := 0; i < 5; i++ {
		for j := 0; j < 100; j++ {
			samples = append(samples, sample{
				start:   time.Duration(i)*time.Second + time.Duration(j)*time.Millisecond,
				latency: time.Duration(i+1)*time.Millisecond + time.Duration(j)*10*time.Microsecond,
				ok:      true,
			})
		}
		samples = append(samples, sample{start: time.Duration(i) * time.Second, latency: time.Hour})
	}
	samples = append(samples, sample{start: 5 * time.Second, latency: time.Hour, ok: true})
	samples = append(samples, sample{start: -time.Millisecond, latency: time.Hour, ok: true})

	slices := sliceStats(samples, 5*time.Second, 5)
	for i, s := range slices {
		if s.Samples != 100 || s.QPS != 100 {
			t.Fatalf("slice %d: %d samples at %v/s, want 100 at 100/s", i, s.Samples, s.QPS)
		}
		if want := float64(i+1) + 0.49; !near(s.P50MS, want) {
			t.Errorf("slice %d p50 = %v, want %v", i, s.P50MS, want)
		}
		if want := float64(i+1) + 0.98; !near(s.P99MS, want) {
			t.Errorf("slice %d p99 = %v, want %v", i, s.P99MS, want)
		}
	}
	med, spread := overSlices(slices, func(s sliceStat) float64 { return s.P50MS })
	if !near(med, 3.49) {
		t.Errorf("median of slice p50s = %v, want 3.49", med)
	}
	// Quartiles of {1.49 .. 5.49} by the exclusive method are 1.99 and 4.99.
	if want := 3.0 / 3.49; !near(spread, want) {
		t.Errorf("slice spread = %v, want %v", spread, want)
	}
}

func TestQuartileSpreadIsPythons(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if got, want := quartileSpread([]float64{1, 2, 3, 4}), 2.5/2.5; !near(got, want) {
		t.Errorf("spread of 1..4 = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got, want := quartileSpread([]float64{1, 2}), 1.5/1.5; !near(got, want) {
		t.Errorf("spread of 1,2 = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestOpenLoopDueTimeAccounting(t *testing.T) {
	if got := openLoopDue(250, 1000); got != 250*time.Millisecond {
		t.Fatalf("request 250 at 1000/s due at %v", got)
	}
	// Sent 2 ms late and answered 4 ms after it was due: the caller waited
	// 4 ms, whatever the server took.
	s, late := openLoopSample(5*time.Millisecond, 7*time.Millisecond, 9*time.Millisecond, true)
	if s.start != 5*time.Millisecond || s.latency != 4*time.Millisecond || late != 2*time.Millisecond || !s.ok {
		t.Errorf("late send: %+v late %v", s, late)
	}
	// A generator that is early is not late.
	if _, late := openLoopSample(5*time.Millisecond, 4*time.Millisecond, 6*time.Millisecond, true); late != 0 {
		t.Errorf("early send counted %v late", late)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) int64 { return int64(n) * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Query: 0, Name: "http", StartNS: 0, EndNS: ms(100)},
		{ID: 2, Query: 0, Name: "server", Parent: 1, StartNS: ms(100), EndNS: ms(170)},
		{ID: 3, Query: 0, Name: "core", Parent: 2, StartNS: ms(170), EndNS: ms(220)},
		{ID: 4, Query: 0, Name: "prime", Parent: 3, StartNS: ms(220), EndNS: ms(250)},
		{ID: 5, Query: 0, Name: "sparse", Parent: 3, StartNS: ms(250), EndNS: ms(260)},
		// A cache hit: the engine work below was recorded, but hangs under
		// no served request.
		{ID: 6, Query: 1, Name: "http", StartNS: ms(300), EndNS: ms(310)},
		{ID: 7, Query: 1, Name: "server", Parent: 6, StartNS: ms(310), EndNS: ms(314)},
		{ID: 8, Query: 1, Name: "core", StartNS: ms(314), EndNS: ms(364)},
		{ID: 9, Query: 1, Name: "prime", Parent: 8, StartNS: ms(364), EndNS: ms(424)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 30 * time.Millisecond, 2: 20 * time.Millisecond, 3: 10 * time.Millisecond,
		4: 30 * time.Millisecond, 5: 10 * time.Millisecond,
		6: 6 * time.Millisecond, 7: 4 * time.Millisecond,
		8: -10 * time.Millisecond, // the child ran slower alone than its parent did
		9: 60 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	p50us, share := layerSelf(spans)
	if p50us["core"] != 10_000 || p50us["prime"] != 30_000 {
		t.Errorf("detached spans leaked into the layer p50s: %v", p50us)
	}
	// 110 ms of http time in all; the server's self time is 20 + 4.
	if !near(share["server"], 24.0/110) || !near(share["http"], 36.0/110) {
		t.Errorf("shares %v", share)
	}
	var sum float64
	for _, v := range share {
		sum += v
	}
	if !near(sum, 1) {
		t.Errorf("self shares of the attached spans sum to %v, want 1", sum)
	}
}

func TestUpdateStreamIsSeeded(t *testing.T) {
	gc := gen.DefaultSocialConfig()
	gc.Nodes, gc.Seed = 2000, 3
	g, err := gen.SocialGraph(gc)
	if err != nil {
		t.Fatal(err)
	}
	rounds := func(seed int64) (reqs []string, affectedMean float64) {
		e, err := fastppv.New(g, fastppv.Options{NumHubs: 200})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Precompute(); err != nil {
			t.Fatal(err)
		}
		us, err := newUpdateStream(g, seed)
		if err != nil {
			t.Fatal(err)
		}
		var affected []float64
		for i := 0; i < 6; i++ {
			req := us.next()
			if len(req.AddedEdges) != updateEdges {
				t.Fatalf("round %d adds %d edges", i, len(req.AddedEdges))
			}
			if want := min(i/2, 1) * updateEdges; len(req.RemovedEdges) != want {
				t.Fatalf("round %d removes %d edges, want %d", i, len(req.RemovedEdges), want)
			}
			for _, p := range req.AddedEdges {
				if g.InDegree(fastppv.NodeID(p[0])) > 2 {
					t.Fatalf("update source %d has in-degree %d", p[0], g.InDegree(fastppv.NodeID(p[0])))
				}
			}
			b, _ := json.Marshal(req)
			reqs = append(reqs, string(b))
			st, err := e.ApplyUpdate(graphUpdate(req))
			if err != nil {
				t.Fatal(err)
			}
			affected = append(affected, float64(st.AffectedHubs))
		}
		return reqs, mean(affected)
	}
	a, am := rounds(11)
	b, bm := rounds(11)
	if !reflect.DeepEqual(a, b) || am != bm {
		t.Errorf("same seed gave different streams or affected-hub means (%v vs %v)", am, bm)
	}
	if c, _ := rounds(12); reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same stream")
	}
	// Round r removes exactly what round r-2 added.
	var r0, r2 struct {
		AddedEdges   [][]int `json:"added_edges"`
		RemovedEdges [][]int `json:"removed_edges"`
	}
	json.Unmarshal([]byte(a[0]), &r0)
	json.Unmarshal([]byte(a[2]), &r2)
	if !reflect.DeepEqual(r0.AddedEdges, r2.RemovedEdges) {
		t.Errorf("round 2 removes %v, round 0 added %v", r2.RemovedEdges, r0.AddedEdges)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		a, b, sa, sb, bound float64
		better, want        string
	}{
		{100, 105, 0.01, 0.01, 0.10, "lower", "ok"},
		{100, 115, 0.01, 0.01, 0.10, "lower", "worse"},
		{100, 85, 0.01, 0.01, 0.10, "lower", "ok"},
		{100, 85, 0.01, 0.01, 0.10, "higher", "worse"},
		{100, 115, 0.01, 0.01, 0.10, "higher", "ok"},
		{100, 115, 0.20, 0.01, 0.10, "lower", "unresolved"},
		{100, 100, 0.20, 0.20, 0, "lower", "ok"},
		{100, 100.5, 0, 0, 0, "lower", "worse"},
	} {
		if got := verdict(c.a, c.b, c.sa, c.sb, c.bound, c.better); got != c.want {
			t.Errorf("verdict(%v -> %v, spreads %v/%v, bound %v, %s) = %s, want %s", c.a, c.b, c.sa, c.sb, c.bound, c.better, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json and the harness
// together: the same workloads and the same metrics, named, united and
// directed alike.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, specs[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the harness", i, m, d)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d (at most 128)", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the harness", i, m, d)
		}
	}
}

// TestSmokeAllWorkloads runs every workload, traced run and layer loops
// included, on a 2 000-node graph for a second each. It runs under -short
// too: it is what keeps the harness from rotting between benchmark runs.
func TestSmokeAllWorkloads(t *testing.T) {
	cfg := config{
		nodes: 2000, hubs: 200,
		duration:       time.Second,
		warmupRequests: 50,
		setups:         1,
		warmup:         200 * time.Millisecond,
		traceQueries:   40,
		verifySources:  4,
		updateEvery:    150 * time.Millisecond,
		outDir:         t.TempDir(),
	}
	for _, sp := range specs {
		res, err := runWorkload(cfg, sp, 5, true)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !res.Correct {
			t.Fatalf("%s: not correct: failed %d of %d, %v", sp.name, res.Failed, res.Attempted, res.Failures)
		}
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want a positive number", sp.name, d.Name, v, ok)
			}
		}
		applies := map[string]bool{
			"update_p50_ms":                sp.updates,
			"ppvindex.compact_ms":          sp.updates,
			"ppvindex.blockcache_hit_rate": sp.disk,
			"server.cache_hit_rate":        sp.cache,
			"server.inproc_hit_us_p50":     sp.cache,
			"server.open1000_p99_ms":       sp.openLoop,
			"cluster.router_us_p50":        sp.shards > 0,
			"cluster.self_share":           sp.shards > 0,
			"prime.ppv_us_p50":             true,
			"core.query_us_p50":            true,
			"sparse.fold_us_p50":           true,
			"ppvindex.view_ns.pread":       true,
			"api.encode_partial_us":        true,
			"querylog.append_ns":           true,
			"telemetry.observe_ns":         true,
			"core.update_ms_p50":           true,
			"http.self_share":              true,
		}
		for name, want := range applies {
			if _, have := res.PerLayer[name]; have != want {
				t.Errorf("%s: per-layer metric %s present %v, want %v", sp.name, name, have, want)
			}
		}

		// The result file round-trips, null where a metric does not apply.
		if err := res.write(cfg.outDir); err != nil {
			t.Fatal(err)
		}
		back, err := readResult(filepath.Join(cfg.outDir, "result_"+sp.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.EndToEnd, res.EndToEnd) || !reflect.DeepEqual(back.PerLayer, res.PerLayer) {
			t.Errorf("%s: result file does not round-trip", sp.name)
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+sp.name+".jsonl")); err != nil {
			t.Errorf("%s: no trace file: %v", sp.name, err)
		}

		// The driver's line carries exactly the registered metrics.
		for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
			var line struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(res.driverLine(traced)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(defs) {
				t.Errorf("%s: driver line (traced %v): %+v", sp.name, traced, line)
			}
			for _, d := range defs {
				if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s: driver line lacks %s [%s]", sp.name, d.Name, d.Unit)
				}
			}
		}
	}

	// Two sets of the same results compare clean.
	var out strings.Builder
	worse, err := compareSets(&out, cfg.outDir, cfg.outDir)
	if err != nil || worse {
		t.Fatalf("comparing a set with itself: worse %v, err %v\n%s", worse, err, out.String())
	}
	if rows := strings.Count(out.String(), "\n") - 1; rows != len(specs)*len(endToEnd) {
		t.Errorf("compare printed %d rows, want %d", rows, len(specs)*len(endToEnd))
	}
}

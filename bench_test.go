package fastppv

// Benchmark harness: one testing.B benchmark per table/figure of the paper's
// evaluation section (see README.md, "Experiment index"). Every
// benchmark runs the corresponding experiment driver and, on the first
// iteration, prints the regenerated table so that
//
//	go test -bench=. -benchmem
//
// both times the experiments and emits the paper-style tables. The dataset
// scale defaults to "tiny" under -short and to the FASTPPV_BENCH_SCALE
// environment variable otherwise ("small" when unset).
//
// Additional micro-benchmarks cover the primitive operations (prime PPV
// computation, a single online query, exact PPV as the naive baseline) and
// the ablations listed under that index. The serving stack is measured by
// the bench/ module (BENCHMARK.json), not here.

import (
	"fmt"
	"os"
	"testing"

	"fastppv/internal/core"
	"fastppv/internal/experiments"
	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/hub"
	"fastppv/internal/pagerank"
	"fastppv/internal/prime"
	"fastppv/internal/workload"
)

// benchScale picks the dataset scale for the experiment benchmarks.
func benchScale(b *testing.B) experiments.Scale {
	b.Helper()
	if testing.Short() {
		return experiments.ScaleTiny
	}
	if env := os.Getenv("FASTPPV_BENCH_SCALE"); env != "" {
		s, err := experiments.ParseScale(env)
		if err != nil {
			b.Fatalf("FASTPPV_BENCH_SCALE: %v", err)
		}
		return s
	}
	return experiments.ScaleSmall
}

// reportTable prints a regenerated table once per benchmark run.
func reportTable(b *testing.B, printed *bool, table fmt.Stringer) {
	b.Helper()
	if !*printed {
		b.Logf("\n%s", table.String())
		*printed = true
	}
}

// BenchmarkFig06AccuracyModerated regenerates the accuracy table of Fig. 6
// (and the configuration table of Fig. 5, which is embedded in it).
func BenchmarkFig06AccuracyModerated(b *testing.B) {
	scale := benchScale(b)
	printed := false
	for i := 0; i < b.N; i++ {
		results, err := experiments.AccuracyModerated(scale)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, &printed, experiments.Fig6Table(results))
	}
}

// BenchmarkFig07OnlineOffline regenerates the online/offline cost comparison
// of Fig. 7 (a)-(c).
func BenchmarkFig07OnlineOffline(b *testing.B) {
	scale := benchScale(b)
	printed := false
	for i := 0; i < b.N; i++ {
		results, err := experiments.AccuracyModerated(scale)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, &printed, experiments.Fig7Table(results))
	}
}

// BenchmarkFig08HubPolicyOnline regenerates Fig. 8 (hub selection policies,
// online phase).
func BenchmarkFig08HubPolicyOnline(b *testing.B) {
	scale := benchScale(b)
	printed := false
	for i := 0; i < b.N; i++ {
		results, err := experiments.HubPolicies(scale, false)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, &printed, experiments.Fig8Table(results))
	}
}

// BenchmarkFig09HubPolicyOffline regenerates Fig. 9 (hub selection policies,
// offline phase).
func BenchmarkFig09HubPolicyOffline(b *testing.B) {
	scale := benchScale(b)
	printed := false
	for i := 0; i < b.N; i++ {
		results, err := experiments.HubPolicies(scale, false)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, &printed, experiments.Fig9Table(results))
	}
}

// BenchmarkFig10HubsOnline regenerates Fig. 10 (effect of |H| on online
// processing).
func BenchmarkFig10HubsOnline(b *testing.B) {
	scale := benchScale(b)
	printed := false
	for i := 0; i < b.N; i++ {
		points, err := experiments.HubCountSweep(scale)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, &printed, experiments.Fig10Table(points))
	}
}

// BenchmarkFig11HubsOffline regenerates Fig. 11 (effect of |H| on offline
// precomputation).
func BenchmarkFig11HubsOffline(b *testing.B) {
	scale := benchScale(b)
	printed := false
	for i := 0; i < b.N; i++ {
		points, err := experiments.HubCountSweep(scale)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, &printed, experiments.Fig11Table(points))
	}
}

// BenchmarkFig12Iterations regenerates Fig. 12 (incremental online processing
// by varying eta).
func BenchmarkFig12Iterations(b *testing.B) {
	scale := benchScale(b)
	printed := false
	for i := 0; i < b.N; i++ {
		points, err := experiments.IterationSweep(scale, 3)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, &printed, experiments.Fig12Table(points))
	}
}

// BenchmarkFig13GrowthSeries regenerates Fig. 13 (the snapshot/sample series
// used by the scalability study).
func BenchmarkFig13GrowthSeries(b *testing.B) {
	scale := benchScale(b)
	printed := false
	for i := 0; i < b.N; i++ {
		points, err := experiments.GrowthSeries(scale)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, &printed, experiments.Fig13Table(points))
	}
}

// BenchmarkFig14ScalabilityOnline regenerates Fig. 14 (near-constant online
// query time on growing graphs).
func BenchmarkFig14ScalabilityOnline(b *testing.B) {
	scale := benchScale(b)
	printed := false
	for i := 0; i < b.N; i++ {
		points, err := experiments.Scalability(scale)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, &printed, experiments.Fig14Table(points))
	}
}

// BenchmarkFig15ScalabilityOffline regenerates Fig. 15 (offline costs growing
// linearly with graph size).
func BenchmarkFig15ScalabilityOffline(b *testing.B) {
	scale := benchScale(b)
	printed := false
	for i := 0; i < b.N; i++ {
		points, err := experiments.Scalability(scale)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, &printed, experiments.Fig15Table(points))
	}
}

// BenchmarkFig16DiskBased regenerates Fig. 16 (disk-based online query
// processing with a one-cluster memory budget).
func BenchmarkFig16DiskBased(b *testing.B) {
	scale := benchScale(b)
	printed := false
	for i := 0; i < b.N; i++ {
		points, err := experiments.DiskBased(scale, nil)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, &printed, experiments.Fig16Table(points))
	}
}

// BenchmarkTheorem2Bound regenerates the Theorem 2 comparison of measured L1
// error against the analytical exponential bound.
func BenchmarkTheorem2Bound(b *testing.B) {
	scale := benchScale(b)
	printed := false
	for i := 0; i < b.N; i++ {
		points, err := experiments.Theorem2(scale, 8)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, &printed, experiments.Theorem2Table(points))
	}
}

// BenchmarkAblationDeltaClip runs the delta-prune / storage-clip ablations
// (README.md, "Experiment index").
func BenchmarkAblationDeltaClip(b *testing.B) {
	scale := benchScale(b)
	printed := false
	for i := 0; i < b.N; i++ {
		results, err := experiments.Ablations(scale)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, &printed, experiments.AblationTable(results))
	}
}

// --- Micro-benchmarks on the primitive operations ---

// benchGraph builds a moderately sized social-style graph once per benchmark
// binary invocation.
func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 20000, OutDegreeMean: 8, Attachment: 0.85, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchEngine precomputes a FastPPV engine over benchGraph.
func benchEngine(b *testing.B, g *graph.Graph) *core.Engine {
	b.Helper()
	engine, err := core.NewEngine(g, nil, core.Options{NumHubs: 2000})
	if err != nil {
		b.Fatal(err)
	}
	if err := engine.Precompute(); err != nil {
		b.Fatal(err)
	}
	return engine
}

// BenchmarkOnlineQuery measures a single FastPPV online query at the paper's
// default eta = 2.
func BenchmarkOnlineQuery(b *testing.B) {
	g := benchGraph(b)
	engine := benchEngine(b, g)
	queries := workload.QuerySet(g, workload.QueryOptions{Count: 256, Seed: 1, RequireOutEdges: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := engine.Query(q, core.DefaultStop()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactPPV measures the naive exact PPV computation that FastPPV
// replaces; comparing it with BenchmarkOnlineQuery shows the online speedup.
func BenchmarkExactPPV(b *testing.B) {
	g := benchGraph(b)
	queries := workload.QuerySet(g, workload.QueryOptions{Count: 64, Seed: 1, RequireOutEdges: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := pagerank.ExactPPV(g, q, pagerank.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrimePPV measures computing a single prime PPV, the unit of work
// of both offline precomputation and iteration 0 of a non-hub query.
func BenchmarkPrimePPV(b *testing.B) {
	g := benchGraph(b)
	hubs, err := hub.Select(g, hub.Options{Policy: hub.ExpectedUtility, Count: 2000})
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.QuerySet(g, workload.QueryOptions{Count: 256, Seed: 2, RequireOutEdges: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, _, err := prime.ComputePPV(g, q, hubs, prime.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOfflinePrecompute measures the full offline phase (hub selection
// plus prime PPVs for every hub).
func BenchmarkOfflinePrecompute(b *testing.B) {
	g := benchGraph(b)
	pr, err := pagerank.Global(g, pagerank.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine, err := core.NewEngine(g, nil, core.Options{NumHubs: 2000, PageRank: pr})
		if err != nil {
			b.Fatal(err)
		}
		if err := engine.Precompute(); err != nil {
			b.Fatal(err)
		}
	}
}

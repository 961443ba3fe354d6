// Command tradeoff demonstrates the incremental and accuracy-aware properties
// that give FastPPV its name: the same precomputed index answers queries at
// any accuracy/time trade-off chosen at query time, and the error of the
// current estimate is known without ever computing the exact PPV. The program
// compares three stopping policies on the same query workload:
//
//   - a fixed number of iterations (eta = 2, the paper's default),
//   - a target L1 error (stop as soon as phi <= 0.03),
//   - a per-query time budget.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"fastppv"
)

func main() {
	var (
		nodes = flag.Int("nodes", 30000, "number of nodes")
		deg   = flag.Int("deg", 6, "out-degree of every node")
		hubs  = flag.Int("hubs", 3000, "number of hub nodes to index")
		q     = flag.Int("queries", 20, "number of query nodes")
		seed  = flag.Int64("seed", 3, "generator seed")
	)
	flag.Parse()

	g := buildGraph(*nodes, *deg, *seed)
	fmt.Println(g.Stats())

	engine, err := fastppv.New(g, fastppv.Options{NumHubs: *hubs})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Precompute(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline: %d hubs in %v\n\n", engine.OfflineStats().Hubs,
		engine.OfflineStats().Total.Round(time.Millisecond))

	rng := rand.New(rand.NewSource(*seed + 1))
	queries := make([]fastppv.NodeID, *q)
	exact := make([]fastppv.Vector, *q)
	for i := range queries {
		queries[i] = fastppv.NodeID(rng.Intn(*nodes))
		if exact[i], err = fastppv.ExactPPV(g, queries[i], fastppv.DefaultAlpha); err != nil {
			log.Fatal(err)
		}
	}

	policies := []struct {
		name string
		stop fastppv.StopCondition
	}{
		{"eta = 0 (prime PPV only)", fastppv.StopCondition{MaxIterations: 0}},
		{"eta = 2 (paper default)", fastppv.StopCondition{MaxIterations: 2}},
		{"target L1 error 0.03", fastppv.StopCondition{MaxIterations: -1, TargetL1Error: 0.03}},
		{"time budget 2ms", fastppv.StopCondition{MaxIterations: -1, TimeLimit: 2 * time.Millisecond}},
	}
	fmt.Printf("%-28s %14s %12s %12s %12s\n", "policy", "avg iterations", "avg phi", "avg L1 err", "avg time")
	for _, p := range policies {
		var (
			iterSum int
			phiSum  float64
			trueSum float64
			timeSum time.Duration
		)
		for i, query := range queries {
			start := time.Now()
			res, err := engine.QueryOn(nil, query, p.stop)
			timeSum += time.Since(start)
			if err != nil {
				log.Fatal(err)
			}
			iterSum += res.Iterations
			phiSum += res.L1ErrorBound
			// The bound is a guarantee: the true error may not exceed it
			// beyond the exact solver's own convergence tolerance.
			estimate := make(fastppv.Vector, len(res.Entries))
			for _, e := range res.Entries {
				estimate[e.Node] = e.Score
			}
			trueErr := exact[i].L1Distance(estimate)
			if trueErr > res.L1ErrorBound+1e-9 {
				log.Fatalf("%s, query %d: true L1 error %.6f exceeds the bound %.6f", p.name, query, trueErr, res.L1ErrorBound)
			}
			trueSum += trueErr
		}
		n := float64(len(queries))
		fmt.Printf("%-28s %14.2f %12.4f %12.4f %12s\n",
			p.name, float64(iterSum)/n, phiSum/n, trueSum/n,
			(timeSum / time.Duration(len(queries))).Round(time.Microsecond))
	}

	fmt.Println("\nper-iteration progress of a single query (accuracy-aware stopping):")
	qs, err := engine.NewQuery(queries[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  iter %d: phi = %.4f\n", 0, qs.L1ErrorBound())
	for i := 1; i <= 5 && !qs.Exhausted(); i++ {
		st := qs.Step()
		fmt.Printf("  iter %d: phi = %.4f (+%d hubs expanded, %.4f mass added, %v)\n",
			i, st.L1ErrorBound, st.HubsExpanded, st.MassAdded, st.Duration.Round(time.Microsecond))
	}
}

// buildGraph generates a random regular directed graph using the public API.
func buildGraph(nodes, deg int, seed int64) *fastppv.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := fastppv.NewBuilder(true)
	b.EnsureNodes(nodes)
	for u := 0; u < nodes; u++ {
		for d := 0; d < deg; d++ {
			v := fastppv.NodeID(rng.Intn(nodes))
			if v == fastppv.NodeID(u) {
				continue
			}
			b.MustAddEdge(fastppv.NodeID(u), v)
		}
	}
	return b.Finalize()
}

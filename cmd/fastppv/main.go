// Command fastppv is the end-user CLI of the FastPPV library. It supports
// three subcommands:
//
//	fastppv precompute -graph g.txt -hubs 20000 -index idx.ppv
//	    select hubs and precompute their prime PPVs into a disk index.
//
//	fastppv query -graph g.txt -hubs 20000 -node 42 -eta 2 -top 10
//	    precompute an in-memory index and answer a single query from it.
//
//	fastppv evaluate -graph g.txt -hubs 20000 -queries 50 -eta 2
//	    precompute, run a random query workload, and report the paper's
//	    accuracy metrics against exact PPVs.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"
	"time"

	"fastppv"
	"fastppv/internal/accuracy"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fastppv: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "precompute":
		err = runPrecompute(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "evaluate":
		err = runEvaluate(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fastppv precompute -graph <file> [-hubs N] [-alpha 0.15] [-shard i/n] -index <file>
  fastppv query      -graph <file> [-hubs N] [-alpha 0.15] -node <id> [-eta 2] [-top 10] [-target-error 0]
  fastppv evaluate   -graph <file> [-hubs N] [-queries 50] [-eta 2] [-seed 1]`)
}

// loadGraph reads either the edge-list or binary format, dispatching on a
// quick magic check.
func loadGraph(path string) (*fastppv.Graph, error) {
	if g, err := fastppv.LoadBinaryFile(path); err == nil {
		return g, nil
	}
	return fastppv.LoadEdgeListFile(path)
}

func runPrecompute(args []string) error {
	fs := flag.NewFlagSet("precompute", flag.ExitOnError)
	graphPath := fs.String("graph", "", "graph file (edge list or binary)")
	hubs := fs.Int("hubs", 0, "number of hubs (0 = choose automatically)")
	alpha := fs.Float64("alpha", fastppv.DefaultAlpha, "teleporting probability")
	indexPath := fs.String("index", "", "output index file")
	shardSpec := fs.String("shard", "", "build one hub partition only, as \"i/n\" (for fastppvd -shard i/n)")
	fs.Parse(args)
	if *graphPath == "" || *indexPath == "" {
		return fmt.Errorf("precompute requires -graph and -index")
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	fmt.Println(g.Stats())
	opts := fastppv.Options{NumHubs: *hubs, Alpha: *alpha}
	if *shardSpec != "" {
		if opts.Partition, err = fastppv.ParsePartition(*shardSpec); err != nil {
			return err
		}
		fmt.Printf("building hub partition %s\n", opts.Partition)
	}
	engine, closeIndex, err := fastppv.NewWithDiskIndex(g, opts, *indexPath)
	if err != nil {
		return err
	}
	if err := engine.Precompute(); err != nil {
		// The close function discards the temporary file when Precompute
		// failed, so no partial index is left at -index.
		closeIndex()
		return err
	}
	// Finalizing publishes the index (fsync + atomic rename); a failure here
	// means no usable file was written, so it must be reported.
	if err := closeIndex(); err != nil {
		return fmt.Errorf("finalizing index %s: %w", *indexPath, err)
	}
	off := engine.OfflineStats()
	fmt.Printf("indexed %d hubs in %v (hub selection %v, prime PPVs %v)\n",
		off.Hubs, off.Total.Round(time.Millisecond),
		off.HubSelection.Round(time.Millisecond), off.PrimePPV.Round(time.Millisecond))
	fmt.Printf("index: %s (%.2f MB, %d entries)\n", *indexPath, float64(off.IndexBytes)/(1<<20), off.IndexEntries)
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	graphPath := fs.String("graph", "", "graph file (edge list or binary)")
	hubs := fs.Int("hubs", 0, "number of hubs when precomputing in memory")
	alpha := fs.Float64("alpha", fastppv.DefaultAlpha, "teleporting probability")
	node := fs.Int("node", -1, "query node id")
	eta := fs.Int("eta", 2, "number of online iterations")
	top := fs.Int("top", 10, "number of results to print")
	targetErr := fs.Float64("target-error", 0, "stop once the L1 error bound drops below this (0 = ignore)")
	fs.Parse(args)
	if *graphPath == "" || *node < 0 {
		return fmt.Errorf("query requires -graph and -node")
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	engine, err := fastppv.New(g, fastppv.Options{NumHubs: *hubs, Alpha: *alpha})
	if err != nil {
		return err
	}
	start := time.Now()
	if err := engine.Precompute(); err != nil {
		return err
	}
	fmt.Printf("precomputed %d hubs in %v\n", engine.OfflineStats().Hubs, time.Since(start).Round(time.Millisecond))

	res, err := engine.QueryOn(nil, fastppv.NodeID(*node), fastppv.StopCondition{
		MaxIterations: *eta,
		TargetL1Error: *targetErr,
	})
	if err != nil {
		return err
	}
	fmt.Printf("query %d: %d iterations, L1 error bound %.4f, %v\n",
		*node, res.Iterations, res.L1ErrorBound, res.Duration.Round(time.Microsecond))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rank\tnode\tlabel\tscore")
	for i, e := range res.TopK(*top) {
		fmt.Fprintf(w, "%d\t%d\t%s\t%.6f\n", i+1, e.Node, g.Label(e.Node), e.Score)
	}
	return w.Flush()
}

func runEvaluate(args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	graphPath := fs.String("graph", "", "graph file (edge list or binary)")
	hubs := fs.Int("hubs", 0, "number of hubs (0 = choose automatically)")
	alpha := fs.Float64("alpha", fastppv.DefaultAlpha, "teleporting probability")
	queries := fs.Int("queries", 50, "number of random query nodes")
	eta := fs.Int("eta", 2, "number of online iterations")
	seed := fs.Int64("seed", 1, "workload seed")
	fs.Parse(args)
	if *graphPath == "" {
		return fmt.Errorf("evaluate requires -graph")
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	fmt.Println(g.Stats())
	engine, err := fastppv.New(g, fastppv.Options{NumHubs: *hubs, Alpha: *alpha})
	if err != nil {
		return err
	}
	if err := engine.Precompute(); err != nil {
		return err
	}
	off := engine.OfflineStats()
	fmt.Printf("offline: %d hubs, %v, %.2f MB\n", off.Hubs, off.Total.Round(time.Millisecond), float64(off.IndexBytes)/(1<<20))

	rng := rand.New(rand.NewSource(*seed))
	var (
		reports   []accuracy.Report
		totalTime time.Duration
	)
	for i := 0; i < *queries; i++ {
		q := fastppv.NodeID(rng.Intn(g.NumNodes()))
		start := time.Now()
		res, err := engine.QueryOn(nil, q, fastppv.StopCondition{MaxIterations: *eta})
		totalTime += time.Since(start)
		if err != nil {
			return err
		}
		exact, err := fastppv.ExactPPV(g, q, *alpha)
		if err != nil {
			return err
		}
		reports = append(reports, fastppv.Evaluate(exact, res.Entries, 10))
	}
	avg := accuracy.Average(reports)
	fmt.Printf("online (%d queries, eta=%d): %.3f ms/query\n",
		*queries, *eta, float64(totalTime.Microseconds())/float64(*queries)/1000.0)
	fmt.Printf("accuracy: kendall=%.4f precision=%.4f rag=%.4f l1sim=%.4f\n",
		avg.KendallTau, avg.Precision, avg.RAG, avg.L1Similarity)
	return nil
}

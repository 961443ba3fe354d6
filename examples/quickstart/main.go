// Command quickstart is the smallest end-to-end FastPPV example: it builds
// the running-example graph of the paper (Fig. 1), precomputes the hub index,
// and ranks all nodes with respect to a query node, printing the estimate
// after each incremental iteration together with the accuracy-aware L1 error
// bound.
package main

import (
	"fmt"
	"log"

	"fastppv"
)

func main() {
	// Build the 8-node running example of the paper: node a fans out to b, c,
	// d, f, h; the high out-degree nodes are selected as hubs below.
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	b := fastppv.NewBuilder(true)
	id := make(map[string]fastppv.NodeID, len(names))
	for _, n := range names {
		id[n] = b.AddLabeledNode(n)
	}
	edges := [][2]string{
		{"a", "b"}, {"a", "c"}, {"a", "d"}, {"a", "f"}, {"a", "h"},
		{"b", "c"}, {"b", "d"}, {"b", "e"},
		{"d", "c"}, {"d", "e"},
		{"f", "d"}, {"f", "g"},
		{"g", "d"},
		{"h", "c"},
	}
	for _, e := range edges {
		b.MustAddEdge(id[e[0]], id[e[1]])
	}
	g := b.Finalize()
	fmt.Println(g.Stats())

	// Precompute the hub index: three hubs selected by expected utility.
	engine, err := fastppv.New(g, fastppv.Options{NumHubs: 3})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Precompute(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hubs selected: ")
	for _, h := range engine.Hubs().Hubs() {
		fmt.Printf("%s ", g.Label(h))
	}
	fmt.Println()

	// Query node a incrementally: print the ranking and the computable error
	// bound after every iteration.
	query := id["a"]
	qs, err := engine.NewQuery(query)
	if err != nil {
		log.Fatal(err)
	}
	for iter := 0; iter <= 3; iter++ {
		res := qs.Result()
		fmt.Printf("\nafter iteration %d (L1 error bound %.4f):\n", iter, res.L1ErrorBound)
		for rank, e := range res.TopK(5) {
			fmt.Printf("  %d. %-2s %.4f\n", rank+1, g.Label(e.Node), e.Score)
		}
		if qs.Exhausted() {
			fmt.Println("\nall tour partitions processed — the estimate is now exact")
			break
		}
		qs.Step()
	}

	// Compare with the exact PPV computed by power iteration.
	exact, err := fastppv.ExactPPV(g, query, fastppv.DefaultAlpha)
	if err != nil {
		log.Fatal(err)
	}
	report := fastppv.Evaluate(exact, qs.Result().Entries, 5)
	fmt.Printf("\naccuracy vs exact PPV: kendall=%.3f precision=%.3f rag=%.3f l1sim=%.4f\n",
		report.KendallTau, report.Precision, report.RAG, report.L1Similarity)
}

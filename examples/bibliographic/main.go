// Command bibliographic reproduces Scenario 1 of the paper's introduction:
// expert finding on a bibliographic network. It generates a synthetic
// author-paper-venue network, takes a paper node as the query, and uses
// FastPPV to rank author nodes as candidate reviewers for that paper.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"fastppv"
)

func main() {
	var (
		papers  = flag.Int("papers", 4000, "number of paper nodes")
		authors = flag.Int("authors", 2500, "number of author nodes")
		venues  = flag.Int("venues", 60, "number of venue nodes")
		hubs    = flag.Int("hubs", 200, "number of hub nodes to index")
		eta     = flag.Int("eta", 2, "number of online iterations")
		seed    = flag.Int64("seed", 42, "generator seed")
	)
	flag.Parse()

	g, labels := buildNetwork(*papers, *authors, *venues, *seed)
	fmt.Println(g.Stats())

	engine, err := fastppv.New(g, fastppv.Options{NumHubs: *hubs})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Precompute(); err != nil {
		log.Fatal(err)
	}
	off := engine.OfflineStats()
	fmt.Printf("offline: %d hubs indexed in %v (%.2f MB)\n",
		off.Hubs, off.Total.Round(1000000), float64(off.IndexBytes)/(1<<20))

	// Query: the first paper node. Who should review it?
	query := labels.papers[0]
	res, err := engine.Query(query, fastppv.StopCondition{MaxIterations: *eta})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery %s — candidate reviewers (top authors by personalized PageRank):\n", g.Label(query))
	shown := 0
	for _, e := range res.TopK(200) {
		if !strings.HasPrefix(g.Label(e.Node), "author/") {
			continue
		}
		// Exclude the paper's own authors: they cannot review it.
		if labels.isAuthorOf(e.Node, query) {
			continue
		}
		shown++
		fmt.Printf("  %2d. %-12s score %.5f\n", shown, g.Label(e.Node), e.Score)
		if shown == 10 {
			break
		}
	}
	fmt.Printf("\nquery processed in %v over %d iterations (L1 error bound %.4f)\n",
		res.Duration.Round(1000), res.Iterations, res.L1ErrorBound)
}

// network keeps the node-kind bookkeeping of the generated graph.
type network struct {
	papers    []fastppv.NodeID
	authors   []fastppv.NodeID
	venues    []fastppv.NodeID
	authorsOf map[fastppv.NodeID][]fastppv.NodeID
}

func (n *network) isAuthorOf(author, paper fastppv.NodeID) bool {
	for _, a := range n.authorsOf[paper] {
		if a == author {
			return true
		}
	}
	return false
}

// buildNetwork generates an undirected author-paper-venue network with skewed
// author productivity and venue sizes, using only the public API.
func buildNetwork(papers, authors, venues int, seed int64) (*fastppv.Graph, *network) {
	rng := rand.New(rand.NewSource(seed))
	b := fastppv.NewBuilder(false)
	net := &network{authorsOf: make(map[fastppv.NodeID][]fastppv.NodeID, papers)}

	for i := 0; i < authors; i++ {
		net.authors = append(net.authors, b.AddLabeledNode(fmt.Sprintf("author/%d", i)))
	}
	for i := 0; i < venues; i++ {
		net.venues = append(net.venues, b.AddLabeledNode(fmt.Sprintf("venue/%d", i)))
	}
	authorPick := rand.NewZipf(rng, 1.3, 1, uint64(authors-1))
	venuePick := rand.NewZipf(rng, 1.3, 1, uint64(venues-1))
	for i := 0; i < papers; i++ {
		p := b.AddLabeledNode(fmt.Sprintf("paper/%d", i))
		net.papers = append(net.papers, p)
		b.MustAddEdge(p, net.venues[venuePick.Uint64()])
		coauthors := 1 + rng.Intn(4)
		for a := 0; a < coauthors; a++ {
			author := net.authors[authorPick.Uint64()]
			b.MustAddEdge(p, author)
			net.authorsOf[p] = append(net.authorsOf[p], author)
		}
	}
	return b.Finalize(), net
}

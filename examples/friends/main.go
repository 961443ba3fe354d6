// Command friends reproduces Scenario 2 of the paper's introduction: friend
// recommendation on a social network. It generates a synthetic directed
// friendship graph, picks a user, and uses FastPPV to recommend new friends —
// the highest-ranked users the query user has not already befriended. It also
// demonstrates incremental index maintenance: after the user adds a friend,
// only the affected hub prime PPVs are recomputed and the recommendations are
// refreshed.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"fastppv"
)

func main() {
	var (
		users = flag.Int("users", 20000, "number of users")
		deg   = flag.Int("deg", 8, "average number of declared friends")
		hubs  = flag.Int("hubs", 2000, "number of hub nodes to index")
		eta   = flag.Int("eta", 2, "number of online iterations")
		seed  = flag.Int64("seed", 7, "generator seed")
	)
	flag.Parse()

	g := buildSocialGraph(*users, *deg, *seed)
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

	query := fastppv.NodeID(1)
	fmt.Printf("\nrecommendations for %s:\n", g.Label(query))
	recs := recommend(engine, g, query, *eta, 10)
	for i, e := range recs {
		fmt.Printf("  %2d. %-10s score %.5f\n", i+1, g.Label(e.Node), e.Score)
	}

	// The user follows the top recommendation; maintain the index
	// incrementally and refresh the recommendations.
	if len(recs) > 0 {
		newFriend := recs[0].Node
		fmt.Printf("\n%s adds %s as a friend — applying the update incrementally\n",
			g.Label(query), g.Label(newFriend))
		stats, err := engine.ApplyUpdate(fastppv.GraphUpdate{
			AddedEdges: []fastppv.Edge{{From: query, To: newFriend}},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("update: %d hub prime PPVs recomputed, %d reused (%v)\n",
			stats.AffectedHubs, stats.UnaffectedHubs, stats.Duration.Round(1000000))
		fmt.Printf("\nrefreshed recommendations for %s:\n", g.Label(query))
		for i, e := range recommend(engine, engine.Graph(), query, *eta, 10) {
			fmt.Printf("  %2d. %-10s score %.5f\n", i+1, g.Label(e.Node), e.Score)
		}
	}
}

// recommend ranks users by personalized PageRank and filters out the query
// user and everyone they already follow.
func recommend(engine *fastppv.Engine, g *fastppv.Graph, query fastppv.NodeID, eta, k int) []fastppv.Entry {
	res, err := engine.Query(query, fastppv.StopCondition{MaxIterations: eta})
	if err != nil {
		log.Fatal(err)
	}
	already := make(map[fastppv.NodeID]bool)
	already[query] = true
	for _, f := range g.OutNeighbors(query) {
		already[f] = true
	}
	var out []fastppv.Entry
	for _, e := range res.TopK(k + len(already) + 16) {
		if already[e.Node] {
			continue
		}
		out = append(out, e)
		if len(out) == k {
			break
		}
	}
	return out
}

// buildSocialGraph generates a directed preferential-attachment friendship
// graph using only the public API.
func buildSocialGraph(users, avgDeg int, seed int64) *fastppv.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := fastppv.NewBuilder(true)
	for i := 0; i < users; i++ {
		b.AddLabeledNode(fmt.Sprintf("user/%d", i))
	}
	var pool []fastppv.NodeID
	for u := 0; u < users; u++ {
		friends := 1 + rng.Intn(2*avgDeg-1)
		for f := 0; f < friends; f++ {
			var v fastppv.NodeID
			if len(pool) > 0 && rng.Float64() < 0.8 {
				v = pool[rng.Intn(len(pool))]
			} else {
				v = fastppv.NodeID(rng.Intn(users))
			}
			if v == fastppv.NodeID(u) {
				continue
			}
			b.MustAddEdge(fastppv.NodeID(u), v)
			pool = append(pool, v)
		}
	}
	return b.Finalize()
}

// Example cluster runs a two-shard FastPPV cluster in-process: each shard
// precomputes and serves one hash partition of the hub index, a router
// scatter-gathers queries across them, and a single-node engine provides the
// reference answer. It then fans a graph update out through the router —
// every shard advances to the same index epoch and routed answers track a
// single-node engine given the same update — and finally stops one shard to
// show the accuracy-aware degradation: queries keep succeeding, with the same
// estimate semantics and a correctly widened L1 error bound.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"

	"fastppv"
	"fastppv/internal/api"
	"fastppv/internal/cluster"
	"fastppv/internal/core"
	"fastppv/internal/gen"
	"fastppv/internal/server"
)

func main() {
	log.SetFlags(0)

	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 3000, OutDegreeMean: 6, Attachment: 0.8, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}

	// Reference: one engine holding the whole hub index.
	single, err := fastppv.New(g, fastppv.Options{NumHubs: 300})
	if err != nil {
		log.Fatal(err)
	}
	if err := single.Precompute(); err != nil {
		log.Fatal(err)
	}

	// Two shards: the same hub selection, but each precomputes and stores
	// only its own partition — half the offline cost and index size apiece.
	const shards = 2
	httpSrvs := make([]*http.Server, shards)
	shardSrvs := make([]*server.Server, shards)
	targets := make([]string, shards)
	for s := 0; s < shards; s++ {
		opts := fastppv.Options{NumHubs: 300, Partition: fastppv.Partition{Shard: s, Shards: shards}}
		engine, err := fastppv.New(g, opts)
		if err != nil {
			log.Fatal(err)
		}
		if err := engine.Precompute(); err != nil {
			log.Fatal(err)
		}
		srv, err := server.New(engine, server.Config{})
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		shardSrvs[s] = srv
		httpSrvs[s] = &http.Server{Handler: srv.Handler()}
		go httpSrvs[s].Serve(ln)
		targets[s] = "http://" + ln.Addr().String()
		fmt.Printf("shard %d/%d serving %d hubs on %s\n",
			s, shards, engine.Index().Len(), targets[s])
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{Targets: targets})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	const q, eta = 42, 3
	want, err := single.Query(q, fastppv.StopCondition{MaxIterations: eta})
	if err != nil {
		log.Fatal(err)
	}
	got, err := rt.Query(q, core.StopCondition{MaxIterations: eta})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery node %d at eta=%d:\n", q, eta)
	fmt.Printf("  single node: bound=%.6f\n", want.L1ErrorBound)
	expanded := 0
	for _, it := range got.PerIteration {
		expanded += it.HubsExpanded
	}
	fmt.Printf("  cluster:     bound=%.6f degraded=%v (expanded %d hubs across shards)\n",
		got.L1ErrorBound, got.Degraded, expanded)
	fmt.Println("  top-5 agreement:")
	wt, gt := want.TopK(5), got.TopK(5)
	for i := range wt {
		fmt.Printf("    #%d single=%d cluster=%d score=%.6f\n", i+1, wt[i].Node, gt[i].Node, gt[i].Score)
	}

	// Fan a graph update out through the router: both shards apply the batch
	// in the same order and advance to the same index epoch, so routed
	// answers keep matching a single-node engine that applied the same
	// update.
	const uFrom, uTo = 42, 1777
	cu, err := rt.Update(api.UpdateRequest{AddedEdges: [][]int{{uFrom, uTo}}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nupdate fan-out (+edge %d->%d): epoch=%d applied=%d/%d degraded=%v\n",
		uFrom, uTo, cu.Epoch, cu.Applied, len(cu.Results), cu.Degraded())
	if _, err := single.ApplyUpdate(fastppv.GraphUpdate{AddedEdges: []fastppv.Edge{{From: uFrom, To: uTo}}}); err != nil {
		log.Fatal(err)
	}
	want, err = single.Query(q, fastppv.StopCondition{MaxIterations: eta})
	if err != nil {
		log.Fatal(err)
	}
	got, err = rt.Query(q, core.StopCondition{MaxIterations: eta})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  post-update: single bound=%.6f cluster bound=%.6f (epoch %d, degraded=%v)\n",
		want.L1ErrorBound, got.L1ErrorBound, got.Epoch, got.Degraded)

	// Kill shard 1 (connections included — the router's binary stream is a
	// hijacked connection http.Server.Close does not track): the router keeps
	// answering, with the unexpandable frontier mass reflected in a wider
	// (still exact) error bound.
	httpSrvs[1].Close()
	shardSrvs[1].CloseStreams()
	degraded, err := rt.Query(q, core.StopCondition{MaxIterations: eta})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter stopping shard 1:\n")
	fmt.Printf("  cluster: bound=%.6f degraded=%v shards_down=%d lost_mass=%.6f\n",
		degraded.L1ErrorBound, degraded.Degraded, degraded.ShardsDown, degraded.LostFrontierMass)
	fmt.Printf("  (bound widened by %.6f; answers remain correct, just less refined)\n",
		degraded.L1ErrorBound-got.L1ErrorBound)
}

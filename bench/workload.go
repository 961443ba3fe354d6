package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"fastppv"
	"fastppv/internal/api"
	"fastppv/internal/cluster"
	"fastppv/internal/core"
	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/querylog"
	"fastppv/internal/server"
)

// config is the size of a run. benchConfig is what BENCHMARK.json measures;
// the -short smoke test shrinks it.
type config struct {
	nodes, hubs int
	duration    time.Duration
	// warmupRequests are served, and timed as part of set-up, right after
	// boot; setups is how many times the whole set-up is repeated so that
	// setup_s can be a median. warmup is the discarded stretch of load the
	// measured stack then runs before the timed phase.
	warmupRequests int
	setups         int
	warmup         time.Duration
	// traceQueries is the length of the stacked traced replay and of every
	// per-layer loop; verifySources is the size of the accuracy check.
	traceQueries  int
	verifySources int
	// updateEvery is the period of hubs_disk_mixed's update stream.
	updateEvery time.Duration
	// checkSlices fails a run whose slices hold fewer samples than the
	// workload's floor.
	checkSlices bool
	outDir      string
}

func benchConfig(duration time.Duration, outDir string) config {
	return config{
		nodes: 60_000, hubs: 6_000,
		duration:       duration,
		warmupRequests: 500,
		setups:         2,
		warmup:         duration / 10,
		traceQueries:   400,
		verifySources:  16,
		updateEvery:    500 * time.Millisecond,
		checkSlices:    true,
		outDir:         outDir,
	}
}

const (
	// graphSeed seeds the graph and zipf_cached's popularity permutation for
	// every run: -seed varies the order and choice of requests and updates,
	// not the data set. The driver takes a metric's spread over runs with
	// different seeds, and a different graph or a different hottest node
	// moves zipf_cached's p50 by more than any code change would (the cost
	// of a hit is a top-k over the cached estimate, whose size is the
	// node's).
	graphSeed  = 7
	queryEta   = 2
	queryTop   = 10
	numClients = 2
	// openLoopRate is the fixed rate of zipf_cached's open-loop pass.
	openLoopRate = 1000.0
	// updateEdges is how many edges one update batch adds.
	updateEdges = 4
	// streamLen bounds the pre-drawn source streams; a stream that runs out
	// wraps around.
	streamLen = 1 << 20
)

// spec is what distinguishes one workload from another.
type spec struct {
	// name is final: later issues cite it. BENCHMARK.json and README.md say
	// why each workload exists.
	name string
	// disk serves from a pread disk index behind a block cache of a eighth of
	// the file, with WAL and graph log on.
	disk bool
	// shards > 0 serves through a router over that many shard engines.
	shards int
	// cache leaves the server's 64 MiB result cache on; querylog attaches a
	// query log.
	cache    bool
	querylog bool
	// sources picks the request stream.
	sources func(g *graph.Graph, hubs []graph.NodeID, seed int64) []graph.NodeID
	// updates runs the update stream and one compaction beside the queries;
	// openLoop adds the fixed-rate pass to the traced run.
	updates  bool
	openLoop bool
	// minSlice is the least number of samples each of the five slices must
	// hold; zero means minSliceSamples.
	minSlice int
}

var specs = []spec{
	{
		name:    "uniform_uncached",
		sources: uniformNonHubs,
	},
	{
		name:  "zipf_cached",
		cache: true, querylog: true, openLoop: true,
		sources: zipfAll,
	},
	{
		name: "hubs_disk_mixed",
		disk: true, updates: true,
		sources: uniformHubs,
	},
	{
		name:    "cluster2_uncached",
		shards:  2,
		sources: uniformNonHubs,
		// About 290 requests a second on two cores: 1 000 a slice with room
		// to spare would need a 20 s phase, which the driver's cap on the
		// total run time does not leave. At 14 s its slices hold about 800.
		minSlice: 400,
	},
}

// workloadNames lists the workloads in order; the names are final, later
// issues cite them.
func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// uniformNonHubs is up to 50 000 distinct non-hub nodes in seeded order.
func uniformNonHubs(g *graph.Graph, hubs []graph.NodeID, seed int64) []graph.NodeID {
	isHub := make(map[graph.NodeID]bool, len(hubs))
	for _, h := range hubs {
		isHub[h] = true
	}
	out := make([]graph.NodeID, 0, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		if !isHub[graph.NodeID(u)] {
			out = append(out, graph.NodeID(u))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if len(out) > 50_000 {
		out = out[:50_000]
	}
	return out
}

// zipfAll draws one Zipf(1.2) stream over all nodes; both clients consume it,
// so they share one popularity permutation. The permutation (which node has
// which rank) is the same for every seed; the seed picks the draws.
func zipfAll(g *graph.Graph, _ []graph.NodeID, seed int64) []graph.NodeID {
	perm := rand.New(rand.NewSource(graphSeed)).Perm(g.NumNodes())
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.2, 1, uint64(len(perm)-1))
	out := make([]graph.NodeID, streamLen)
	for i := range out {
		out[i] = graph.NodeID(perm[z.Uint64()])
	}
	return out
}

func uniformHubs(_ *graph.Graph, hubs []graph.NodeID, seed int64) []graph.NodeID {
	rng := rand.New(rand.NewSource(seed))
	out := make([]graph.NodeID, streamLen)
	for i := range out {
		out[i] = hubs[rng.Intn(len(hubs))]
	}
	return out
}

// sourceStream hands the clients of one run their sources; it wraps around
// when it runs out.
type sourceStream struct {
	nodes  []graph.NodeID
	cursor atomic.Int64
}

func (s *sourceStream) next() graph.NodeID {
	i := s.cursor.Add(1) - 1
	return s.nodes[int(i%int64(len(s.nodes)))]
}

// head returns the first n sources (fewer if the stream is shorter): the
// query set of the traced run and of every per-layer loop.
func (s *sourceStream) head(n int) []graph.NodeID {
	if n > len(s.nodes) {
		n = len(s.nodes)
	}
	return s.nodes[:n]
}

// distinctHead returns the first n distinct sources of the stream.
func (s *sourceStream) distinctHead(n int) []graph.NodeID {
	seen := make(map[graph.NodeID]bool, n)
	out := make([]graph.NodeID, 0, n)
	for _, q := range s.nodes {
		if !seen[q] {
			seen[q] = true
			if out = append(out, q); len(out) == n {
				break
			}
		}
	}
	return out
}

// stack is one booted serving configuration.
type stack struct {
	g *graph.Graph
	// engine is the single-node engine; nil on the cluster workload, where
	// shards and router are set instead.
	engine *core.Engine
	shards []*core.Engine
	router *cluster.Router
	front  *server.Server
	base   string
	// indexBytes is the index file size on disk, or SizeBytes() in memory
	// (summed over shards).
	indexBytes int64
	closers    []func() error

	genS, precomputeS float64
	precomputeAllocMB float64
}

func (st *stack) close() error {
	var first error
	for i := len(st.closers) - 1; i >= 0; i-- {
		if err := st.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	st.closers = nil
	return first
}

// hubs returns the full hub set in ascending order.
func (st *stack) hubs() []graph.NodeID {
	if st.engine != nil {
		return st.engine.Hubs().Hubs()
	}
	return st.shards[0].Hubs().Hubs()
}

// serveHTTP mounts srv on a loopback listener.
func (st *stack) serveHTTP(srv *server.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on Close
	}()
	st.closers = append(st.closers, func() error {
		// Hijacked shard streams are invisible to http.Server.Close.
		srv.CloseStreams()
		err := hs.Close()
		<-done
		return err
	})
	return "http://" + ln.Addr().String(), nil
}

// precompute times Precompute and what it allocates.
func (st *stack) precompute(e *core.Engine) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	if err := e.Precompute(); err != nil {
		return err
	}
	st.precomputeS += time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	st.precomputeAllocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return nil
}

// buildStack generates the graph, precomputes and boots the servers of one
// workload. dir receives the disk index and logs.
func buildStack(cfg config, sp spec, dir string) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	gc := gen.DefaultSocialConfig()
	gc.Nodes, gc.OutDegreeMean, gc.Seed = cfg.nodes, 8, graphSeed
	t0 := time.Now()
	if st.g, err = gen.SocialGraph(gc); err != nil {
		return nil, err
	}
	st.genS = time.Since(t0).Seconds()
	opts := fastppv.Options{NumHubs: cfg.hubs}

	scfg := server.Config{CacheBytes: -1}
	if sp.cache {
		scfg.CacheBytes = 0 // the 64 MiB default
	}
	if sp.querylog {
		qlog, err := querylog.Open(filepath.Join(dir, "queries.qlog"), querylog.Options{}, nil)
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, qlog.Close)
		scfg.QueryLog = qlog
	}

	switch {
	case sp.shards > 0:
		targets := make([]string, sp.shards)
		for i := range targets {
			o := opts
			o.Partition = core.Partition{Shard: i, Shards: sp.shards}
			e, err := fastppv.New(st.g, o)
			if err != nil {
				return nil, err
			}
			if err := st.precompute(e); err != nil {
				return nil, err
			}
			st.shards = append(st.shards, e)
			st.indexBytes += e.Index().SizeBytes()
			ssrv, err := server.New(e, server.Config{CacheBytes: -1})
			if err != nil {
				return nil, err
			}
			if targets[i], err = st.serveHTTP(ssrv); err != nil {
				return nil, err
			}
		}
		st.router, err = cluster.NewRouter(cluster.RouterConfig{
			Targets: targets, HealthInterval: -1, Transport: cluster.TransportBinary,
		})
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, func() error { st.router.Close(); return nil })
		if st.front, err = server.NewRouter(st.router, scfg); err != nil {
			return nil, err
		}
	case sp.disk:
		path := filepath.Join(dir, "index.ppv")
		build, closeBuild, err := fastppv.NewWithDiskIndex(st.g, opts, path)
		if err != nil {
			return nil, err
		}
		if err := st.precompute(build); err != nil {
			closeBuild()
			return nil, err
		}
		if err := closeBuild(); err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		st.indexBytes = fi.Size()
		var closeIdx func() error
		st.engine, closeIdx, err = fastppv.OpenDiskIndexWithOptions(st.g, opts, path,
			fastppv.DiskIndexOptions{BlockCacheBytes: fi.Size() / 8})
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, closeIdx)
		if st.front, err = server.New(st.engine, scfg); err != nil {
			return nil, err
		}
	default:
		if st.engine, err = fastppv.New(st.g, opts); err != nil {
			return nil, err
		}
		if err := st.precompute(st.engine); err != nil {
			return nil, err
		}
		st.indexBytes = st.engine.Index().SizeBytes()
		if st.front, err = server.New(st.engine, scfg); err != nil {
			return nil, err
		}
	}
	if st.base, err = st.serveHTTP(st.front); err != nil {
		return nil, err
	}
	return st, nil
}

// updateStream is the seeded write side of hubs_disk_mixed: round r adds
// updateEdges edges and removes the batch added two rounds earlier. The from
// nodes are draws among nodes of in-degree <= 2, which few hubs reach, so an
// update recomputes a handful of hubs rather than a tenth of the index.
type updateStream struct {
	g       *graph.Graph
	rng     *rand.Rand
	cands   []graph.NodeID
	batches [][]graph.Edge
	live    map[graph.Edge]bool
}

func newUpdateStream(g *graph.Graph, seed int64) (*updateStream, error) {
	u := &updateStream{g: g, rng: rand.New(rand.NewSource(seed)), live: map[graph.Edge]bool{}}
	for v := 0; v < g.NumNodes(); v++ {
		if g.InDegree(graph.NodeID(v)) <= 2 {
			u.cands = append(u.cands, graph.NodeID(v))
		}
	}
	if len(u.cands) == 0 {
		return nil, fmt.Errorf("no node of in-degree <= 2 to draw update sources from")
	}
	return u, nil
}

// next returns the following round's request. Added edges are new to the
// original graph and to the batches still live, so neither half of a round
// is ever a no-op.
func (u *updateStream) next() api.UpdateRequest {
	var batch []graph.Edge
	for len(batch) < updateEdges {
		e := graph.Edge{From: u.cands[u.rng.Intn(len(u.cands))], To: graph.NodeID(u.rng.Intn(u.g.NumNodes()))}
		if e.From == e.To || u.live[e] || u.g.HasEdge(e.From, e.To) {
			continue
		}
		u.live[e] = true
		batch = append(batch, e)
	}
	u.batches = append(u.batches, batch)
	req := api.UpdateRequest{AddedEdges: edgePairs(batch)}
	if r := len(u.batches) - 3; r >= 0 {
		req.RemovedEdges = edgePairs(u.batches[r])
		for _, e := range u.batches[r] {
			delete(u.live, e)
		}
	}
	return req
}

func edgePairs(es []graph.Edge) [][]int {
	out := make([][]int, len(es))
	for i, e := range es {
		out[i] = []int{int(e.From), int(e.To)}
	}
	return out
}

// graphUpdate is the same round in the engine's own terms, for the per-layer
// core.update loop.
func graphUpdate(req api.UpdateRequest) core.GraphUpdate {
	conv := func(ps [][]int) []graph.Edge {
		out := make([]graph.Edge, len(ps))
		for i, p := range ps {
			out[i] = graph.Edge{From: graph.NodeID(p[0]), To: graph.NodeID(p[1])}
		}
		return out
	}
	return core.GraphUpdate{AddedEdges: conv(req.AddedEdges), RemovedEdges: conv(req.RemovedEdges)}
}

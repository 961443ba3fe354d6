// Command fastppvd is the FastPPV serving daemon: it loads (or generates) a
// graph, precomputes the hub index, and serves Personalized PageRank queries
// over an HTTP JSON API with result caching, request coalescing and
// admission control.
//
//	fastppvd -graph g.txt -hubs 20000 -addr :8080
//	fastppvd -social 60000 -addr :8080            # synthetic social graph
//
// With -index the hub index lives on disk instead of in memory — the paper's
// Sect. 5.3 disk-based configuration, for indexes larger than RAM. An
// existing index file (e.g. built by `fastppv precompute`) is opened and
// served immediately without redoing the offline phase; a missing one is
// precomputed first. The file is served from a read-only memory mapping (a
// heap copy on platforms without mmap), and reads go through a
// byte-budgeted hub-block cache (-block-cache-bytes) whose counters appear
// under "block_cache" in /v1/stats:
//
//	fastppvd -graph g.txt -index idx.ppv -block-cache-bytes 134217728
//
// Incremental updates applied to a disk-served index are always durable:
// the index's store (ppvindex.Store) commits each update batch — the graph
// mutation and the hub PPVs it recomputed — as one frame of its update log
// (-update-log, default <index>.log) before the update returns, and a
// restart replays the batches — the daemon serves the updated graph, PPVs
// and index epoch even though -graph still names the original file.
// Compaction folds the logged hub PPVs back into the index and keeps the
// mutations — automatic past -compact-threshold-bytes of logged records, or
// on demand via POST /v1/compact.
//
// Cluster mode splits the hub index horizontally across processes. A shard
// serves one hash partition of the hub set (-shard i/n) and answers partial
// queries as binary frames on the stream a router opens to it (GET
// /v1/stream, upgraded); a router fronts the shards (-router url1,url2,...)
// and scatter-gathers every query across them, composing the exact error
// bound from the partial answers — with a shard down or its stream
// unavailable, answers degrade to a wider reported bound instead of failing:
//
//	fastppvd -graph g.txt -shard 0/2 -addr :8081
//	fastppvd -graph g.txt -shard 1/2 -addr :8082
//	fastppvd -router localhost:8081,localhost:8082 -addr :8080
//
// Updates in cluster mode go through the router: POST /v1/update fans the
// batch out to every shard in a deterministic order, each shard's index epoch
// advances in lockstep, and a shard that misses a batch (down, failed, or
// updated directly behind the router's back) is detected by its divergent
// epoch at query time and folded into the reported error bound instead of
// contributing answers from a different graph.
//
// Observability: every mode exposes a Prometheus text-format GET /metrics
// (the router additionally exports per-shard leg latency and epoch families),
// ?trace=1 on /v1/ppv returns a per-iteration trace block, logs are
// structured log/slog records (-log-format text|json, -log-level), and
// -pprof-addr serves net/http/pprof on a separate listener.
//
// With -query-log PATH every completed query is appended to a persistent,
// CRC-framed binary log (rotated past -query-log-max-mb, replayed on
// startup to count and validate its records). cmd/ppvlog aggregates or
// replays a query log offline. Independently, every query's
// trace is retained after the fact when it was slow (-slow-ms), ended
// degraded, or landed on the -trace-sample cadence — GET /v1/debug/slow lists
// the retained ring, GET /v1/debug/trace/{id} fetches one by the id echoed in
// the X-Fastppv-Trace response header. -slo-p99-ms / -slo-bound declare
// serving objectives: good/bad event totals and 1m/5m/1h error-budget burn
// rates appear in /metrics and under "slo" in /v1/stats.
//
// Endpoints:
//
//	GET  /v1/ppv?node=&eta=&target-error=&top=   answer one query
//	POST /v1/ppv/batch                           answer a batch of queries
//	GET  /v1/stream                              cluster sub-query stream (upgrade; shards only)
//	POST /v1/update                              apply a graph update
//	POST /v1/compact                             fold the logged hub records into the index
//	GET  /v1/stats                               serving + offline + cluster statistics
//	GET  /v1/debug/slow                          retained slow/degraded/sampled traces
//	GET  /v1/debug/trace/{id}                    one retained trace by id
//	GET  /metrics                                Prometheus text-format metrics
//	GET  /healthz                                readiness
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fastppv"
	"fastppv/internal/cluster"
	"fastppv/internal/gen"
	"fastppv/internal/querylog"
	"fastppv/internal/server"
	"fastppv/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "fastppvd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fastppvd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	graphPath := fs.String("graph", "", "graph file (edge list or binary); empty generates a synthetic graph")
	social := fs.Int("social", 60000, "synthetic social graph size when -graph is empty")
	seed := fs.Int64("seed", 7, "synthetic graph seed")
	hubs := fs.Int("hubs", 0, "number of hubs (0 = choose automatically)")
	shardSpec := fs.String("shard", "", "serve one hub partition, as \"i/n\" (shard i of n)")
	routerTargets := fs.String("router", "", "run as a cluster router over these comma-separated shard URLs (no local engine)")
	indexPath := fs.String("index", "", "serve from this on-disk index file (opened if present, precomputed into it otherwise)")
	blockCacheBytes := fs.Int64("block-cache-bytes", 0, "hub-block cache budget for -index mode (0 = 64 MiB default, negative disables)")
	updateLog := fs.String("update-log", "", "update log for -index mode: one frame per update batch, its graph mutation and recomputed hub PPVs (empty = <index>.log); replayed on restart")
	compactThreshold := fs.Int64("compact-threshold-bytes", 0, "auto-compact once the update log holds this many bytes of hub records (0 = 64 MiB default, negative = manual /v1/compact only)")
	alpha := fs.Float64("alpha", fastppv.DefaultAlpha, "teleporting probability")
	eta := fs.Int("eta", 2, "default online iterations per query")
	maxEta := fs.Int("max-eta", 8, "largest eta a client may request")
	cacheMB := fs.Int64("cache-mb", 64, "result cache budget in MiB (0 disables)")
	maxConcurrent := fs.Int("max-concurrent", 0, "max concurrent computations (0 = GOMAXPROCS; with -router, GOMAXPROCS + max(8, 4·GOMAXPROCS))")
	queueWait := fs.Duration("queue-wait", 25*time.Millisecond, "max wait for a computation slot before shedding with 503")
	queryLogPath := fs.String("query-log", "", "persistent query log: one binary record per completed query, replayed on startup and read offline by ppvlog (empty disables)")
	queryLogMaxMB := fs.Int64("query-log-max-mb", 64, "rotate the query log past this size (negative = never rotate)")
	slowMS := fs.Float64("slow-ms", 250, "compute time past which a query's trace is retained unconditionally in /v1/debug/slow (negative disables)")
	traceSample := fs.Int("trace-sample", 128, "retain every Nth computed query's trace regardless of latency (negative disables)")
	traceRetain := fs.Int("trace-retain", 256, "capacity of the retained-trace ring behind /v1/debug/slow")
	sloP99MS := fs.Float64("slo-p99-ms", 0, "p99 latency objective in ms: slower answers burn the 1% error budget (0 = no latency objective)")
	sloBound := fs.Float64("slo-bound", 0, "L1 error-bound objective: wider answers burn the error budget (0 = no bound objective)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty disables)")
	fs.Parse(args)

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, *logLevel, "fastppvd")
	if err != nil {
		return err
	}
	startPprof(*pprofAddr, logger)

	// One registry serves GET /metrics for the whole process: the server's
	// families always, plus the router's shard-leg and epoch families in
	// router mode.
	registry := telemetry.NewRegistry()

	cacheBytes := *cacheMB << 20
	if *cacheMB <= 0 {
		cacheBytes = -1
	}
	var qlog *querylog.Log
	if *queryLogPath != "" {
		maxBytes := *queryLogMaxMB << 20
		if *queryLogMaxMB < 0 {
			maxBytes = -1
		}
		qlog, err = querylog.Open(*queryLogPath, querylog.Options{MaxBytes: maxBytes}, nil)
		if err != nil {
			return fmt.Errorf("open query log: %w", err)
		}
		defer qlog.Close()
		st := qlog.Stats()
		logger.Info("query log open", "path", *queryLogPath,
			"replayed", st.Replayed, "bytes", st.ActiveBytes, "truncated", st.TruncatedBytes)
	}
	srvCfg := server.Config{
		DefaultEta:       *eta,
		MaxEta:           *maxEta,
		CacheBytes:       cacheBytes,
		MaxConcurrent:    *maxConcurrent,
		QueueWait:        *queueWait,
		QueryLog:         qlog,
		SlowThreshold:    time.Duration(*slowMS * float64(time.Millisecond)),
		TraceSampleEvery: *traceSample,
		TraceRetain:      *traceRetain,
		SLOLatency:       time.Duration(*sloP99MS * float64(time.Millisecond)),
		SLOBound:         *sloBound,
		Registry:         registry,
		Logger:           logger,
	}

	if *routerTargets != "" {
		if *shardSpec != "" {
			return fmt.Errorf("-router and -shard are mutually exclusive")
		}
		targets := strings.Split(*routerTargets, ",")
		rt, err := cluster.NewRouter(cluster.RouterConfig{
			Targets:  targets,
			Registry: registry,
			Logger:   logger,
		})
		if err != nil {
			return err
		}
		defer rt.Close()
		st := rt.Stats()
		logger.Info("routing across shards",
			"shards", len(st.Shards), "healthy", st.ShardsHealthy, "nodes", st.Nodes)
		srv, err := server.NewRouter(rt, srvCfg)
		if err != nil {
			return err
		}
		return serve(*addr, srv, logger)
	}

	g, err := loadOrGenerate(*graphPath, *social, *seed)
	if err != nil {
		return err
	}
	gs := g.Stats()
	logger.Info("graph loaded", "nodes", gs.Nodes, "arcs", gs.Arcs,
		"directed", gs.Directed, "dangling", gs.Dangling)

	opts := fastppv.Options{NumHubs: *hubs, Alpha: *alpha}
	if *shardSpec != "" {
		if opts.Partition, err = fastppv.ParsePartition(*shardSpec); err != nil {
			return err
		}
		logger.Info("serving hub partition", "shard", opts.Partition.String())
	}
	dio := fastppv.DiskIndexOptions{
		BlockCacheBytes:       *blockCacheBytes,
		UpdateLogPath:         *updateLog,
		CompactThresholdBytes: *compactThreshold,
	}
	var engine *fastppv.Engine
	if *indexPath != "" {
		var closeIndex func() error
		engine, closeIndex, err = openOrBuildDiskIndex(g, opts, *indexPath, dio, logger)
		if err != nil {
			return err
		}
		defer closeIndex()
		off := engine.OfflineStats()
		logger.Info("serving disk index",
			"hubs", off.Hubs, "index", *indexPath,
			"index_mb", fmt.Sprintf("%.2f", float64(off.IndexBytes)/(1<<20)),
			"block_cache", blockCacheDesc(*blockCacheBytes),
			"update_log", updateLogDesc(*indexPath, dio),
			"epoch", engine.Epoch())
	} else {
		engine, err = fastppv.New(g, opts)
		if err != nil {
			return err
		}
		logger.Info("precomputing hub index")
		if err := engine.Precompute(); err != nil {
			return err
		}
		off := engine.OfflineStats()
		logger.Info("hub index precomputed",
			"hubs", off.Hubs, "duration", off.Total.Round(time.Millisecond).String(),
			"index_mb", fmt.Sprintf("%.2f", float64(off.IndexBytes)/(1<<20)),
			"entries", off.IndexEntries)
	}

	srv, err := server.New(engine, srvCfg)
	if err != nil {
		return err
	}
	return serve(*addr, srv, logger)
}

// serve runs the HTTP server until an error or a termination signal.
func serve(addr string, srv *server.Server, logger *slog.Logger) error {
	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String())
		// Hijacked stream connections are invisible to http.Server.Shutdown;
		// close them explicitly so routers reconnect to another shard instead
		// of waiting on a dead stream.
		if n := srv.CloseStreams(); n > 0 {
			logger.Info("closed binary streams", "streams", n)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return httpSrv.Shutdown(ctx)
	}
}

// startPprof serves the net/http/pprof handlers on their own listener, kept
// off the serving mux so profiling endpoints are never exposed on the query
// port.
func startPprof(addr string, logger *slog.Logger) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		logger.Info("pprof listening", "addr", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			logger.Error("pprof server exited", "err", err.Error())
		}
	}()
}

// openOrBuildDiskIndex serves from an existing index file, or runs the
// offline phase into it first when it does not exist yet. Serving always goes
// through OpenDiskIndexWithOptions so reads are fronted by the hub-block
// cache and updates land in the update log. No partial-file cleanup is needed
// on the build path: precomputation streams into <path>.tmp and the close
// function publishes the finished index atomically (or discards the
// temporary file when Precompute failed).
func openOrBuildDiskIndex(g *fastppv.Graph, opts fastppv.Options, path string, dio fastppv.DiskIndexOptions, logger *slog.Logger) (*fastppv.Engine, func() error, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		logger.Info("index not found, precomputing", "index", path)
		start := time.Now()
		builder, closeBuilder, err := fastppv.NewWithDiskIndex(g, opts, path)
		if err != nil {
			return nil, nil, err
		}
		if err := builder.Precompute(); err != nil {
			closeBuilder()
			return nil, nil, err
		}
		if err := closeBuilder(); err != nil {
			return nil, nil, err
		}
		logger.Info("index precomputed", "index", path,
			"duration", time.Since(start).Round(time.Millisecond).String())
	}
	return fastppv.OpenDiskIndexWithOptions(g, opts, path, dio)
}

// updateLogDesc renders the update-log path for the startup line.
func updateLogDesc(indexPath string, dio fastppv.DiskIndexOptions) string {
	if dio.UpdateLogPath != "" {
		return dio.UpdateLogPath
	}
	return indexPath + ".log"
}

func blockCacheDesc(bytes int64) string {
	switch {
	case bytes < 0:
		return "disabled"
	case bytes == 0:
		return "64.00 MB"
	default:
		return fmt.Sprintf("%.2f MB", float64(bytes)/(1<<20))
	}
}

// loadOrGenerate reads a graph file, or generates a deterministic synthetic
// social graph when no file is given.
func loadOrGenerate(path string, socialNodes int, seed int64) (*fastppv.Graph, error) {
	if path != "" {
		if g, err := fastppv.LoadBinaryFile(path); err == nil {
			return g, nil
		}
		return fastppv.LoadEdgeListFile(path)
	}
	if socialNodes < 2 {
		return nil, fmt.Errorf("need -graph or -social >= 2")
	}
	cfg := gen.DefaultSocialConfig()
	cfg.Nodes = socialNodes
	cfg.Seed = seed
	return gen.SocialGraph(cfg)
}

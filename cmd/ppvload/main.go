// Command ppvload is a load generator for the fastppvd daemon: it plays a
// Zipfian-skewed query workload against the HTTP API with a configurable
// concurrency, then reports client-side throughput and latency percentiles
// together with the server's own cache and admission statistics.
//
//	ppvload -addr http://localhost:8080 -requests 5000 -concurrency 16 -zipf 1.2
//
// The request sequence is drawn once, up front, from one Zipf popularity
// ranking seeded by -seed, so request i is the same at any -concurrency; the
// internal/workload driver then plays it.
//
// -addr accepts a comma-separated target list, which load-tests a cluster end
// to end: point it at the router for the full scatter-gather path, or at the
// shard daemons directly to compare per-shard latency. With multiple targets
// requests round-robin across them and latency percentiles are reported per
// target as well as overall. Every response's reported L1 error bound is
// collected, so the output also shows error-bound percentiles — with a
// degraded cluster (a shard down) the widened bounds are visible immediately.
// Failures are counted per structured error code (internal/api), separating
// admission rejection from shard-down degradation and client mistakes.
//
// -update-every N mixes writes into the workload: every Nth request becomes a
// POST /v1/update adding one random edge (sent to the first target — the
// router in a cluster, which fans it out to the shards). Update latency is
// reported with its own percentiles, and update failures appear in the
// per-code breakdown, so epoch-divergence drills (a shard refusing a batch)
// are visible immediately.
//
// -slow-ms sets a client-side slow threshold (default 250ms): queries over it
// are counted, and the slowest one's server-retained trace id (from the
// X-Fastppv-Trace response header) is printed ready to paste into
// GET /v1/debug/trace/{id}.
//
// -json FILE additionally writes the run's workload.Report as JSON;
// "-json -" writes it to stdout and moves the human-readable summary to
// stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fastppv/internal/server"
	"fastppv/internal/telemetry"
	"fastppv/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "ppvload: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ppvload", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the fastppvd daemon, or a comma-separated list of targets (router and/or shards)")
	requests := fs.Int("requests", 2000, "total number of queries to send")
	concurrency := fs.Int("concurrency", 8, "concurrent client workers")
	zipfS := fs.Float64("zipf", workload.DefaultZipfS, "Zipf exponent of the query skew (>1)")
	eta := fs.Int("eta", 2, "online iterations per query")
	top := fs.Int("top", 10, "ranked results per query")
	updateEvery := fs.Int("update-every", 0, "make every Nth request a one-edge graph update posted to the first target (0 disables)")
	slowMS := fs.Float64("slow-ms", 250, "client-side latency past which a query counts as slow in the summary and JSON report (negative disables)")
	seed := fs.Int64("seed", 1, "workload seed")
	jsonOut := fs.String("json", "", "write the run's report (workload.Report) as JSON to this file; \"-\" writes it to stdout")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	fs.Parse(args)
	if *requests < 1 || *concurrency < 1 {
		return fmt.Errorf("requests and concurrency must be positive")
	}
	logger, err := telemetry.NewLogger(stderr, *logFormat, *logLevel, "ppvload")
	if err != nil {
		return err
	}
	// The human-readable summary goes to stdout, unless the machine-readable
	// report claims stdout ("-json -"); then the summary moves to stderr so
	// the JSON stays parseable.
	out := stdout
	if *jsonOut == "-" {
		out = stderr
	}
	d, err := workload.NewDriver(strings.Split(*addr, ","))
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	targets := d.Targets()

	before := make([]server.StatsResponse, len(targets))
	numNodes := 0
	for i, tgt := range targets {
		if err := d.Stats(i, &before[i]); err != nil {
			return fmt.Errorf("fetching %s/v1/stats (is fastppvd running?): %w", tgt, err)
		}
		numNodes = max(numNodes, before[i].Graph.Nodes)
	}
	if numNodes < 1 {
		return fmt.Errorf("no target reports a non-empty graph")
	}
	seq, err := workload.ZipfSequence(numNodes, *requests,
		workload.ZipfOptions{S: *zipfS, Seed: *seed}, *eta, *top, *updateEvery)
	if err != nil {
		return err
	}
	logger.Info("starting load",
		"targets", strings.Join(targets, ","), "nodes", numNodes,
		"requests", *requests, "concurrency", *concurrency, "zipf", *zipfS)

	r := d.Run(seq, *concurrency, time.Duration(*slowMS*float64(time.Millisecond)))
	if r.LatencyMS.N == 0 && r.UpdateLatencyMS.N == 0 {
		return fmt.Errorf("all %d requests failed (%v)", *requests, r.FailuresByCode)
	}
	fmt.Fprintf(out, "sent %d requests in %.3fs: %.1f req/s (%d failed)\n",
		r.Requests, r.ElapsedS, r.QPS, r.Failures)
	r.Print(out)
	for i, tgt := range targets {
		var after server.StatsResponse
		if err := d.Stats(i, &after); err != nil {
			// A target may legitimately be down by the end of a failure drill.
			fmt.Fprintf(out, "%s unreachable for final stats: %v\n", tgt, err)
			continue
		}
		pfx := ""
		if len(targets) > 1 {
			pfx = tgt + " "
		}
		reportTarget(out, pfx, &before[i], &after)
	}

	if *jsonOut == "" {
		return nil
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *jsonOut == "-" {
		_, err = stdout.Write(b)
		return err
	}
	if err := os.WriteFile(*jsonOut, b, 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	logger.Info("wrote report", "path", *jsonOut)
	return nil
}

// reportTarget prints one target's server-side statistics for the run: the
// cache hit rates are this run's deltas, the rest lifetime totals.
func reportTarget(out io.Writer, pfx string, before, after *server.StatsResponse) {
	if after.Shard != "" {
		fmt.Fprintf(out, "%sserving hub partition %s\n", pfx, after.Shard)
	}
	if c, b := after.Cache, before.Cache; c != nil && b != nil {
		fmt.Fprintf(out, "%sserver cache: %.1f%% hit rate this run (%d entries, %.2f MB held)\n",
			pfx, hitRate(c.Hits-b.Hits, c.Misses-b.Misses), c.Entries, float64(c.Bytes)/(1<<20))
	}
	if bc := after.BlockCache; bc != nil {
		hits, misses := bc.Hits, bc.Misses
		if b := before.BlockCache; b != nil {
			hits, misses = hits-b.Hits, misses-b.Misses
		}
		fmt.Fprintf(out, "%sserver block cache: %.1f%% hub-block hit rate this run (%d blocks, %.2f MB held, %d disk loads lifetime)\n",
			pfx, hitRate(hits, misses), bc.Entries, float64(bc.Bytes)/(1<<20), bc.Loads)
	}
	if c := after.Cluster; c != nil {
		fmt.Fprintf(out, "%scluster: %d/%d shards healthy, %.2f MB on the wire (lifetime)\n",
			pfx, c.ShardsHealthy, len(c.Shards),
			float64(c.WireBytesSent+c.WireBytesReceived)/(1<<20))
		for _, sh := range c.Shards {
			link := "stream down"
			if sh.Transport.StreamConnected {
				link = "stream up"
			}
			if sh.Transport.Reconnects > 0 {
				link += fmt.Sprintf(", %d reconnects", sh.Transport.Reconnects)
			}
			fmt.Fprintf(out, "%s  shard %d %s: healthy=%v (%s) requests=%d failures=%d mean=%.2fms\n",
				pfx, sh.Shard, sh.Target, sh.Healthy, link, sh.Requests, sh.Failures, sh.MeanLatencyMS)
		}
	}
	fmt.Fprintf(out, "%sserver admission: admitted=%d shed=%d coalesced=%d (lifetime)\n",
		pfx, after.Admission.Admitted, after.Admission.Shed, after.Coalesced)
}

// hitRate is hits / (hits + misses) as a percentage, 0 when neither happened.
func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}

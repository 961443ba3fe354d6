// Command ppvload is a load generator for the fastppvd daemon: it replays a
// Zipfian-skewed query workload against the HTTP API with a configurable
// concurrency, then reports client-side throughput and latency percentiles
// together with the server's own cache and admission statistics.
//
//	ppvload -addr http://localhost:8080 -requests 5000 -concurrency 16 -zipf 1.2
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
// -json FILE additionally writes a machine-readable report
// (internal/benchfmt); "-json -" writes the report to stdout and moves the
// human-readable summary to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"fastppv/internal/api"
	"fastppv/internal/benchfmt"
	"fastppv/internal/telemetry"
	"fastppv/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "ppvload: %v\n", err)
		os.Exit(1)
	}
}

// serverStats mirrors the slice of /v1/stats the client reports.
type serverStats struct {
	Graph struct {
		Nodes int `json:"nodes"`
	} `json:"graph"`
	Shard string `json:"shard"`
	Cache *struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Entries int   `json:"entries"`
		Bytes   int64 `json:"bytes"`
	} `json:"cache"`
	BlockCache *struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Loads   int64 `json:"loads"`
		Entries int   `json:"entries"`
		Bytes   int64 `json:"bytes"`
	} `json:"block_cache"`
	Cluster *struct {
		ShardsHealthy    int   `json:"shards_healthy"`
		SpeculationsSent int64 `json:"speculations_sent"`
		SpeculationHits  int64 `json:"speculation_hits"`
		WireBytesSent    int64 `json:"wire_bytes_sent"`
		WireBytesRecv    int64 `json:"wire_bytes_received"`
		Shards           []struct {
			Shard         int     `json:"shard"`
			Target        string  `json:"target"`
			Healthy       bool    `json:"healthy"`
			Requests      int64   `json:"requests"`
			Failures      int64   `json:"failures"`
			MeanLatencyMS float64 `json:"mean_latency_ms"`
			Transport     struct {
				StreamConnected bool  `json:"stream_connected"`
				Reconnects      int64 `json:"reconnects"`
			} `json:"transport"`
		} `json:"shards"`
	} `json:"cluster"`
	Admission struct {
		Admitted int64 `json:"admitted"`
		Degraded int64 `json:"degraded"`
	} `json:"admission"`
	Coalesced int64 `json:"coalesced"`
}

type outcome struct {
	target    int
	latency   time.Duration
	state     string // X-Fastppv-Cache
	traceID   string // X-Fastppv-Trace: set when the server retained this query's trace
	isUpdate  bool
	degraded  bool
	bound     float64
	bytes     int
	errCode   string
	err       error
	shardsOff int
}

func run(args []string) error {
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
	jsonOut := fs.String("json", "", "write a machine-readable report (internal/benchfmt) to this file; \"-\" writes it to stdout")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	fs.Parse(args)
	if *requests < 1 || *concurrency < 1 {
		return fmt.Errorf("requests and concurrency must be positive")
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, *logLevel, "ppvload")
	if err != nil {
		return err
	}
	// The human-readable summary goes to stdout, unless the machine-readable
	// report claims stdout ("-json -"); then the summary moves to stderr so
	// the JSON stays parseable.
	out := io.Writer(os.Stdout)
	if *jsonOut == "-" {
		out = os.Stderr
	}
	targets := strings.Split(*addr, ",")
	for i := range targets {
		var err error
		if targets[i], err = api.NormalizeTarget(targets[i]); err != nil {
			return fmt.Errorf("-addr: %w", err)
		}
	}

	before := make([]*serverStats, len(targets))
	numNodes := 0
	isRouter := false
	for i, tgt := range targets {
		st, err := fetchStats(tgt)
		if err != nil {
			return fmt.Errorf("fetching %s/v1/stats (is fastppvd running?): %w", tgt, err)
		}
		before[i] = st
		if st.Graph.Nodes > numNodes {
			numNodes = st.Graph.Nodes
		}
		if st.Cluster != nil {
			isRouter = true
		}
	}
	if numNodes < 1 {
		return fmt.Errorf("no target reports a non-empty graph")
	}
	logger.Info("starting load",
		"targets", strings.Join(targets, ","), "nodes", numNodes,
		"requests", *requests, "concurrency", *concurrency, "zipf", *zipfS)

	outcomes := make([]outcome, *requests)
	var next int
	var mu sync.Mutex
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= *requests {
			return -1
		}
		next++
		return next - 1
	}

	client := &http.Client{Timeout: 30 * time.Second}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		sampler, err := workload.NewZipfSampler(numNodes, workload.ZipfOptions{
			S:    *zipfS,
			Seed: *seed + int64(w),
		})
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i < 0 {
					return
				}
				if *updateEvery > 0 && (i+1)%*updateEvery == 0 {
					// Updates go to the first target: the router in a cluster
					// drill, so the batch fans out to every shard.
					from, to := int(sampler.Next()), int(sampler.Next())
					if from == to {
						to = (to + 1) % numNodes
					}
					body := fmt.Sprintf(`{"added_edges":[[%d,%d]]}`, from, to)
					t0 := time.Now()
					resp, err := client.Post(targets[0]+"/v1/update", "application/json", strings.NewReader(body))
					o := outcome{target: 0, isUpdate: true}
					if err != nil {
						o.err, o.errCode = err, "transport"
						outcomes[i] = o
						continue
					}
					if resp.StatusCode != http.StatusOK {
						var eresp api.ErrorResponse
						decErr := json.NewDecoder(resp.Body).Decode(&eresp)
						o.err = fmt.Errorf("status %d", resp.StatusCode)
						if decErr == nil && eresp.Error.Code != "" {
							o.errCode = eresp.Error.Code
						} else {
							o.errCode = fmt.Sprintf("http_%d", resp.StatusCode)
						}
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					o.latency = time.Since(t0)
					outcomes[i] = o
					continue
				}
				tgt := i % len(targets)
				node := sampler.Next()
				url := fmt.Sprintf("%s/v1/ppv?node=%d&eta=%d&top=%d", targets[tgt], node, *eta, *top)
				t0 := time.Now()
				resp, err := client.Get(url)
				if err != nil {
					// A connect/timeout failure has no server error code;
					// bucket it so the per-code breakdown stays complete
					// during shard-kill drills.
					outcomes[i] = outcome{target: tgt, err: err, errCode: "transport"}
					continue
				}
				o := outcome{target: tgt}
				if resp.StatusCode != http.StatusOK {
					var eresp api.ErrorResponse
					decErr := json.NewDecoder(resp.Body).Decode(&eresp)
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					o.err = fmt.Errorf("status %d", resp.StatusCode)
					if decErr == nil && eresp.Error.Code != "" {
						o.errCode = eresp.Error.Code
					} else {
						o.errCode = fmt.Sprintf("http_%d", resp.StatusCode)
					}
					outcomes[i] = o
					continue
				}
				raw, readErr := io.ReadAll(resp.Body)
				resp.Body.Close()
				var body struct {
					Degraded     bool    `json:"degraded"`
					ShardsDown   int     `json:"shards_down"`
					L1ErrorBound float64 `json:"l1_error_bound"`
				}
				decErr := readErr
				if decErr == nil {
					decErr = json.Unmarshal(raw, &body)
				}
				o.latency = time.Since(t0)
				o.state = resp.Header.Get("X-Fastppv-Cache")
				o.traceID = resp.Header.Get(api.TraceHeader)
				o.bytes = len(raw)
				o.degraded = body.Degraded
				o.shardsOff = body.ShardsDown
				o.bound = body.L1ErrorBound
				if decErr != nil {
					o.err = decErr
				}
				outcomes[i] = o
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var latencies, updLatencies []time.Duration
	var bounds []float64
	var queryBytes int64
	perTarget := make([][]time.Duration, len(targets))
	states := map[string]int{}
	errCodes := map[string]int{}
	failures, updFailures, degraded, shardsDownMax := 0, 0, 0, 0
	slowThreshold := time.Duration(*slowMS * float64(time.Millisecond))
	slowCount, worstTraceID := 0, ""
	var worstSlow time.Duration
	for _, o := range outcomes {
		if o.err != nil {
			failures++
			if o.isUpdate {
				updFailures++
			}
			if o.errCode != "" {
				errCodes[o.errCode]++
			}
			continue
		}
		if o.isUpdate {
			updLatencies = append(updLatencies, o.latency)
			continue
		}
		latencies = append(latencies, o.latency)
		perTarget[o.target] = append(perTarget[o.target], o.latency)
		bounds = append(bounds, o.bound)
		queryBytes += int64(o.bytes)
		states[o.state]++
		if o.degraded {
			degraded++
		}
		if o.shardsOff > shardsDownMax {
			shardsDownMax = o.shardsOff
		}
		if slowThreshold > 0 && o.latency > slowThreshold {
			slowCount++
			// Prefer the slowest query the server retained a trace for, so
			// the reported id is always resolvable via /v1/debug/trace/{id}.
			if o.traceID != "" && (worstTraceID == "" || o.latency > worstSlow) {
				worstSlow, worstTraceID = o.latency, o.traceID
			}
		}
	}
	if len(latencies) == 0 && len(updLatencies) == 0 {
		return fmt.Errorf("all %d requests failed (%v)", *requests, errCodes)
	}

	fmt.Fprintf(out, "sent %d requests in %v: %.1f req/s (%d failed)\n",
		*requests, elapsed.Round(time.Millisecond),
		float64(len(latencies)+len(updLatencies))/elapsed.Seconds(), failures)
	if len(errCodes) > 0 {
		codes := make([]string, 0, len(errCodes))
		for c := range errCodes {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		parts := make([]string, 0, len(codes))
		for _, c := range codes {
			parts = append(parts, fmt.Sprintf("%s=%d", c, errCodes[c]))
		}
		fmt.Fprintf(out, "failures by code: %s\n", strings.Join(parts, " "))
	}
	if len(latencies) > 0 {
		fmt.Fprintf(out, "latency: %s\n", latencyLine(latencies))
	}
	if len(updLatencies) > 0 || updFailures > 0 {
		if len(updLatencies) > 0 {
			fmt.Fprintf(out, "update latency: %s (%d applied, %d failed)\n",
				latencyLine(updLatencies), len(updLatencies), updFailures)
		} else {
			fmt.Fprintf(out, "updates: all %d failed\n", updFailures)
		}
	}
	if len(targets) > 1 {
		for i, tgt := range targets {
			if len(perTarget[i]) == 0 {
				fmt.Fprintf(out, "  target %s: no successful requests\n", tgt)
				continue
			}
			fmt.Fprintf(out, "  target %s: %s (%d ok)\n", tgt, latencyLine(perTarget[i]), len(perTarget[i]))
		}
	}
	if len(bounds) > 0 {
		sort.Float64s(bounds)
		fpct := func(q float64) float64 { return bounds[int(q*float64(len(bounds)-1))] }
		fmt.Fprintf(out, "error bound: p50=%.4f p90=%.4f p99=%.4f max=%.4f\n",
			fpct(0.50), fpct(0.90), fpct(0.99), bounds[len(bounds)-1])
		fmt.Fprintf(out, "responses: hit=%d miss=%d coalesced=%d degraded=%d (max shards down %d)\n",
			states["hit"], states["miss"], states["coalesced"], degraded, shardsDownMax)
	}
	if slowThreshold > 0 && slowCount > 0 {
		line := fmt.Sprintf("slow queries (>%v): %d", slowThreshold, slowCount)
		if worstTraceID != "" {
			line += fmt.Sprintf(", worst retained trace %s (%v) — GET /v1/debug/trace/%s",
				worstTraceID, worstSlow.Round(time.Microsecond), worstTraceID)
		}
		fmt.Fprintln(out, line)
	}

	for i, tgt := range targets {
		if err := reportTarget(out, tgt, before[i], len(targets) > 1); err != nil {
			return err
		}
	}

	if *jsonOut != "" {
		mode := "engine"
		if isRouter {
			mode = "router"
		}
		hitRate := 0.0
		if len(latencies) > 0 {
			hitRate = float64(states["hit"]) / float64(len(latencies))
		}
		bytesPerQuery := 0.0
		if len(latencies) > 0 {
			bytesPerQuery = float64(queryBytes) / float64(len(latencies))
		}
		report := &benchfmt.Report{
			Source:    "ppvload",
			Mode:      mode,
			Timestamp: time.Now().UTC(),
			Graph:     benchfmt.GraphInfo{Nodes: numNodes},
			Workload: benchfmt.WorkloadInfo{
				Requests:    *requests,
				Concurrency: *concurrency,
				ZipfS:       *zipfS,
				Eta:         *eta,
				Top:         *top,
			},
			QPS:           float64(len(latencies)+len(updLatencies)) / elapsed.Seconds(),
			LatencyMS:     benchfmt.SummarizeDurations(latencies),
			BytesPerQuery: bytesPerQuery,
			ErrorBound:    benchfmt.Summarize(bounds),
			CacheHitRate:  hitRate,
			Failures:      failures,
			SlowQueries:   slowCount,
			WorstTraceID:  worstTraceID,
		}
		if err := benchfmt.WriteFile(*jsonOut, report); err != nil {
			return err
		}
		if *jsonOut != "-" {
			logger.Info("wrote bench report", "path", *jsonOut)
		}
	}
	return nil
}

func latencyLine(lat []time.Duration) string {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(q float64) time.Duration { return lat[int(q*float64(len(lat)-1))] }
	return fmt.Sprintf("p50=%v p90=%v p99=%v max=%v",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), lat[len(lat)-1].Round(time.Microsecond))
}

// reportTarget prints the server-side statistics delta for one target.
func reportTarget(out io.Writer, tgt string, before *serverStats, prefix bool) error {
	after, err := fetchStats(tgt)
	if err != nil {
		// A target may legitimately be down by the end of a failure drill.
		fmt.Fprintf(out, "%s unreachable for final stats: %v\n", tgt, err)
		return nil
	}
	pfx := ""
	if prefix {
		pfx = tgt + " "
	}
	if after.Shard != "" {
		fmt.Fprintf(out, "%sserving hub partition %s\n", pfx, after.Shard)
	}
	if after.Cache != nil && before.Cache != nil {
		hits := after.Cache.Hits - before.Cache.Hits
		misses := after.Cache.Misses - before.Cache.Misses
		total := hits + misses
		rate := 0.0
		if total > 0 {
			rate = float64(hits) / float64(total)
		}
		fmt.Fprintf(out, "%sserver cache: %.1f%% hit rate this run (%d entries, %.2f MB held)\n",
			pfx, rate*100, after.Cache.Entries, float64(after.Cache.Bytes)/(1<<20))
	}
	if after.BlockCache != nil {
		bc := after.BlockCache
		var b struct{ hits, misses int64 }
		if before.BlockCache != nil {
			b.hits, b.misses = before.BlockCache.Hits, before.BlockCache.Misses
		}
		hits := bc.Hits - b.hits
		misses := bc.Misses - b.misses
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		fmt.Fprintf(out, "%sserver block cache: %.1f%% hub-block hit rate this run (%d blocks, %.2f MB held, %d disk loads lifetime)\n",
			pfx, rate*100, bc.Entries, float64(bc.Bytes)/(1<<20), bc.Loads)
	}
	if after.Cluster != nil {
		c := after.Cluster
		specRate := 0.0
		if c.SpeculationsSent > 0 {
			specRate = float64(c.SpeculationHits) / float64(c.SpeculationsSent)
		}
		fmt.Fprintf(out, "%scluster: %d/%d shards healthy, %.1f%% speculation hit rate, %.2f MB on the wire (lifetime)\n",
			pfx, c.ShardsHealthy, len(c.Shards), specRate*100,
			float64(c.WireBytesSent+c.WireBytesRecv)/(1<<20))
		for _, sh := range c.Shards {
			link := "stream down"
			if sh.Transport.StreamConnected {
				link = "stream up"
			}
			if sh.Transport.Reconnects > 0 {
				link += fmt.Sprintf(", %d reconnects", sh.Transport.Reconnects)
			}
			fmt.Fprintf(out, "%s  shard %d %s: healthy=%v %s requests=%d failures=%d mean=%.2fms\n",
				pfx, sh.Shard, sh.Target, sh.Healthy, "("+link+")", sh.Requests, sh.Failures, sh.MeanLatencyMS)
		}
	}
	fmt.Fprintf(out, "%sserver admission: admitted=%d degraded=%d coalesced=%d (lifetime)\n",
		pfx, after.Admission.Admitted, after.Admission.Degraded, after.Coalesced)
	return nil
}

func fetchStats(addr string) (*serverStats, error) {
	resp, err := http.Get(addr + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats returned %d", resp.StatusCode)
	}
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

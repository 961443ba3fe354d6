// Command ppvlog inspects and replays fastppvd's persistent query log
// (internal/querylog): the operator-side complement of -query-log.
//
// Summary mode aggregates the log offline — record counts by mode and
// outcome, a latency percentile summary, the frequency-decayed top sources
// (a source's weight halves every 8192 records it goes unqueried), and the
// slow/degraded records with their retained trace ids:
//
//	ppvlog -log queries.qlog
//	ppvlog -log queries.qlog -top 50 -slow-ms 100 -json
//
// Replay mode re-issues the logged queries, in order, against a live daemon —
// rebuilding its caches from yesterday's workload, or reproducing the traffic
// that preceded an incident:
//
//	ppvlog -log queries.qlog -replay -addr localhost:8080 -limit 10000
//
// Replay plays the records' (source, eta, top) triples in order over one
// connection through the internal/workload driver, and prints its report.
// The eta is the one the daemon logged: the requested eta after its MaxEta
// clamp. Replay reads the whole sequence (up to -limit) before it sends the
// first query, so its memory grows with the number of replayed records, about
// 32 bytes each. With -limit the scan stops at the limit.
//
// Both modes read the previous generation (<path>.1) before the active file
// and tolerate a torn tail, exactly like the daemon's replay-on-open.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"fastppv/internal/graph"
	"fastppv/internal/querylog"
	"fastppv/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ppvlog: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ppvlog", flag.ExitOnError)
	logPath := fs.String("log", "", "query log to read (required)")
	topN := fs.Int("top", 20, "top sources to print, ranked by frequency-decayed weight")
	slowMS := fs.Float64("slow-ms", 250, "latency past which a record counts as slow")
	show := fs.Int("n", 10, "slow/degraded records to print, slowest first")
	jsonOut := fs.Bool("json", false, "print the summary as JSON")
	replay := fs.Bool("replay", false, "re-issue the logged queries against a live daemon instead of summarizing")
	addr := fs.String("addr", "http://localhost:8080", "daemon base URL for -replay")
	limit := fs.Int("limit", 0, "cap on replayed queries (0 = all)")
	fs.Parse(args)

	if *logPath == "" {
		return fmt.Errorf("-log is required")
	}
	if *replay {
		return replayLog(out, *logPath, *addr, *limit, *slowMS)
	}
	return summarize(out, *logPath, *topN, *slowMS, *show, *jsonOut)
}

// sourceWeight is one entry of the top-sources ranking.
type sourceWeight struct {
	Node  int     `json:"node"`
	Count int     `json:"count"`
	Share float64 `json:"decayed_share"`
}

// flagged is one slow or degraded record, surfaced with its trace id.
type flagged struct {
	Node      int     `json:"node"`
	LatencyMS float64 `json:"latency_ms"`
	Mode      string  `json:"mode"`
	Slow      bool    `json:"slow,omitempty"`
	Degraded  bool    `json:"degraded,omitempty"`
	Bound     float64 `json:"l1_error_bound"`
	TraceID   string  `json:"trace_id,omitempty"`
}

// summary is the aggregate view of one query log.
type summary struct {
	Records    int                  `json:"records"`
	Engine     int                  `json:"engine"`
	Router     int                  `json:"router"`
	CacheHits  int                  `json:"cache_hits"`
	Coalesced  int                  `json:"coalesced"`
	Degraded   int                  `json:"degraded"`
	Slow       int                  `json:"slow"`
	Traced     int                  `json:"traced"`
	Epochs     int                  `json:"epochs"`
	LatencyMS  workload.Percentiles `json:"latency_ms"`
	ErrorBound workload.Percentiles `json:"error_bound"`
	TopSources []sourceWeight       `json:"top_sources"`
	Flagged    []flagged            `json:"flagged"`
}

func modeName(m uint8) string {
	if m == querylog.ModeRouter {
		return "router"
	}
	return "engine"
}

func summarize(out io.Writer, path string, topN int, slowMS float64, show int, jsonOut bool) error {
	var (
		sum     summary
		lats    []float64
		bounds  []float64
		counts  = map[graph.NodeID]int{}
		epochs  = map[uint64]struct{}{}
		agg     = querylog.NewSourceAggregator(0)
		flags   []flagged
		slowThr = slowMS
	)
	n, err := querylog.Replay(path, func(r querylog.Record) error {
		sum.Records++
		latMS := float64(r.LatencyUS) / 1e3
		lats = append(lats, latMS)
		bounds = append(bounds, r.Bound)
		counts[r.Source]++
		epochs[r.Epoch] = struct{}{}
		agg.Add(r.Source)
		if r.Mode == querylog.ModeRouter {
			sum.Router++
		} else {
			sum.Engine++
		}
		if r.Flags&querylog.FlagCacheHit != 0 {
			sum.CacheHits++
		}
		if r.Flags&querylog.FlagCoalesced != 0 {
			sum.Coalesced++
		}
		if r.Flags&querylog.FlagTraced != 0 {
			sum.Traced++
		}
		degraded := r.Flags&querylog.FlagDegraded != 0
		slow := r.Flags&querylog.FlagSlow != 0 || (slowThr > 0 && latMS > slowThr)
		if degraded {
			sum.Degraded++
		}
		if slow {
			sum.Slow++
		}
		if slow || degraded {
			flags = append(flags, flagged{
				Node: int(r.Source), LatencyMS: latMS, Mode: modeName(r.Mode),
				Slow: slow, Degraded: degraded, Bound: r.Bound, TraceID: r.TraceID,
			})
		}
		return nil
	})
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("no records in %s", path)
	}
	sum.Epochs = len(epochs)
	sum.LatencyMS = workload.Summarize(lats)
	sum.ErrorBound = workload.Summarize(bounds)
	for _, src := range agg.TopSources(topN) {
		sum.TopSources = append(sum.TopSources, sourceWeight{
			Node: int(src), Count: counts[src],
			Share: float64(counts[src]) / float64(sum.Records),
		})
	}
	sort.Slice(flags, func(i, j int) bool { return flags[i].LatencyMS > flags[j].LatencyMS })
	if len(flags) > show {
		flags = flags[:show]
	}
	sum.Flagged = flags

	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}
	fmt.Fprintf(out, "%s: %d records (%d engine, %d router), %d epoch(s)\n",
		path, sum.Records, sum.Engine, sum.Router, sum.Epochs)
	fmt.Fprintf(out, "outcomes: %d cache hits, %d coalesced, %d degraded, %d slow, %d traced\n",
		sum.CacheHits, sum.Coalesced, sum.Degraded, sum.Slow, sum.Traced)
	fmt.Fprintf(out, "latency ms: %v\n", sum.LatencyMS)
	fmt.Fprintf(out, "error bound: p50=%.4g p99=%.4g max=%.4g\n",
		sum.ErrorBound.P50, sum.ErrorBound.P99, sum.ErrorBound.Max)
	fmt.Fprintf(out, "top %d sources (decay-ranked, recent queries weigh more):\n", len(sum.TopSources))
	for i, s := range sum.TopSources {
		fmt.Fprintf(out, "  %2d. node %-8d %6d queries  %5.1f%%\n", i+1, s.Node, s.Count, 100*s.Share)
	}
	if len(sum.Flagged) > 0 {
		fmt.Fprintf(out, "slow/degraded (slowest %d):\n", len(sum.Flagged))
		for _, f := range sum.Flagged {
			kind := ""
			if f.Slow {
				kind += "slow "
			}
			if f.Degraded {
				kind += "degraded "
			}
			tid := f.TraceID
			if tid == "" {
				tid = "-"
			}
			fmt.Fprintf(out, "  node %-8d %9.3fms  %-7s %sbound=%.4g trace=%s\n",
				f.Node, f.LatencyMS, f.Mode, kind, f.Bound, tid)
		}
	}
	return nil
}

// errLimit stops the log scan once -limit records are collected.
var errLimit = errors.New("replay limit reached")

// replayLog re-issues the logged queries in order against a live daemon.
func replayLog(out io.Writer, path, addr string, limit int, slowMS float64) error {
	d, err := workload.NewDriver([]string{addr})
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	var seq []workload.Request
	_, err = querylog.Replay(path, func(r querylog.Record) error {
		seq = append(seq, workload.Request{Node: r.Source, Eta: int(r.Eta), Top: int(r.Top)})
		if len(seq) == limit {
			return errLimit
		}
		return nil
	})
	if err != nil && !errors.Is(err, errLimit) {
		return err
	}
	if len(seq) == 0 {
		return fmt.Errorf("no records in %s", path)
	}
	r := d.Run(seq, 1, time.Duration(slowMS*float64(time.Millisecond)))
	fmt.Fprintf(out, "replayed %d queries against %s in %.2fs (%.0f qps), %d failed\n",
		r.Requests, d.Targets()[0], r.ElapsedS, r.QPS, r.Failures)
	r.Print(out)
	return nil
}

// Command bench is the repository's benchmark: four serving workloads, each
// an in-process fastppvd stack behind real loopback HTTP under a closed loop
// of two callers, measured end to end and layer by layer. BENCHMARK.json at
// the repository root names its command, workloads, metrics and bounds;
// README.md beside this file says why each workload exists and which layer
// each metric should move.
//
//	go run -C bench . -workload all -seed 1     every metric, name value unit
//	go run -C bench . -compare A B              two result sets against the bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: "+workloadNames()+" or all")
		seed         = flag.Int64("seed", 1, "seed of the query stream and the update stream (the graph is the same for every seed)")
		duration     = flag.Float64("duration", 14, "length of the timed phase in seconds")
		out          = flag.String("out", "", "directory for result_<workload>.json and trace_<workload>.jsonl (default bench/out)")
		trace        = flag.String("trace", "", "0: end-to-end metrics only; 1: per-layer metrics only; unset: both. Set, the last line of output is the driver's JSON object")
		compare      = flag.String("compare", "", "compare result set `A` with result set B (the next argument) instead of running")
	)
	flag.Float64Var(duration, "seconds", 14, "alias of -duration")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fatal("usage: bench -compare A B")
		}
		worse, err := compareSets(os.Stdout, *compare, flag.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments %q", flag.Args())
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fatal("-trace takes 0 or 1, got %q", *trace)
	}
	if *duration <= 0 {
		fatal("-duration must be positive")
	}
	var run []spec
	if *workloadFlag == "all" {
		run = specs
	} else if sp, ok := specByName(*workloadFlag); ok {
		run = []spec{sp}
	} else {
		fatal("unknown workload %q (have %s, all)", *workloadFlag, workloadNames())
	}
	if *trace != "" && len(run) != 1 {
		fatal("-trace needs a single -workload")
	}
	if *out == "" {
		*out = filepath.Join(benchDir(), "out")
	}

	cfg := benchConfig(time.Duration(*duration*float64(time.Second)), *out)
	if *trace == "1" {
		cfg.setups = 1 // setup_s is an end-to-end metric; one set-up serves the layers
	}
	// The sample floor guards the per-slice p99, which the driver does not
	// bound. On a shared host a burst of noise can thin a slice (one run in
	// forty, where the baseline was taken); that is not the program giving a
	// wrong answer, so a driver run records it and only a ledger run fails.
	cfg.checkSlices = *trace == ""
	ok := true
	for _, sp := range run {
		res, err := runWorkload(cfg, sp, *seed, *trace != "0")
		if err != nil {
			fatal("%v", err)
		}
		if err := res.write(cfg.outDir); err != nil {
			fatal("%v", err)
		}
		var b strings.Builder
		res.print(&b)
		if *trace != "" {
			// Last line of standard output, as the benchmark contract wants.
			b.WriteString(res.driverLine(*trace == "1") + "\n")
		}
		os.Stdout.WriteString(b.String())
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// benchDir is the benchmark's own directory: the working directory when the
// harness is run with `go run -C bench .`, its bench/ child when run from the
// repository root.
func benchDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench"
	}
	return "."
}

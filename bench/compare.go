package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	path := filepath.Join(benchDir(), "..", "BENCHMARK.json")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// resultSet is every result of one workload found in a directory: one file
// for a single run set, several (result_<workload>*.json) for repeats.
func resultSet(dir, workload string) ([]*Result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result_"+workload+"*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*Result
	for _, p := range paths {
		r, err := readResult(p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// summarize reduces one metric over a set to its median and spread. With four
// or more runs the spread is the quartile spread between the runs; with fewer
// it is the widest slice spread any run recorded for the metric.
func summarize(set []*Result, name string) (med, spread float64, ok bool) {
	var xs []float64
	for _, r := range set {
		if v, have := r.EndToEnd[name]; have {
			xs = append(xs, v)
			if len(set) < 4 && r.Spread[name] > spread {
				spread = r.Spread[name]
			}
		}
	}
	if len(xs) == 0 {
		return 0, 0, false
	}
	if len(set) >= 4 {
		spread = quartileSpread(xs)
	}
	return median(xs), spread, true
}

// verdict holds B against A under bound: "worse" when B's median is worse
// than A's by more than the bound, "unresolved" when either side's spread is
// wider than the bound (the bound cannot be told from noise), else "ok".
func verdict(a, b, spreadA, spreadB, bound float64, better string) string {
	if a == b {
		return "ok"
	}
	if spreadA > bound || spreadB > bound {
		return "unresolved"
	}
	change := (b - a) / a
	if better == "higher" {
		change = -change
	}
	if change > bound {
		return "worse"
	}
	return "ok"
}

// compareSets prints one row per workload and end-to-end metric and reports
// whether any row is worse.
func compareSets(w io.Writer, dirA, dirB string) (worse bool, err error) {
	bf, err := readBenchmarkFile()
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-18s %-13s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "A", "B", "B/A", "spread", "bound", "verdict")
	rows := 0
	for _, wl := range bf.Workloads {
		a, err := resultSet(dirA, wl.Name)
		if err != nil {
			return false, err
		}
		b, err := resultSet(dirB, wl.Name)
		if err != nil {
			return false, err
		}
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, m := range bf.EndToEnd {
			ma, sa, okA := summarize(a, m.Name)
			mb, sb, okB := summarize(b, m.Name)
			if !okA || !okB {
				continue
			}
			v := verdict(ma, mb, sa, sb, m.Bound, m.Better)
			worse = worse || v == "worse"
			rows++
			fmt.Fprintf(w, "%-18s %-13s %14.6g %14.6g %9.4f %8.4f %7.3f  %s\n",
				wl.Name, m.Name, ma, mb, mb/ma, max(sa, sb), m.Bound, v)
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("no workload has results in both %s and %s", dirA, dirB)
	}
	return worse, nil
}

package benchfmt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	if got := Summarize(nil); got != (Percentiles{}) {
		t.Fatalf("empty input: got %+v", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(99 - i) // descending: Summarize must sort a copy
	}
	p := Summarize(xs)
	if p.P50 != 49 || p.P90 != 89 || p.P99 != 98 || p.Max != 99 || p.N != 100 {
		t.Fatalf("unexpected summary %+v", p)
	}
	if xs[0] != 99 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestSummarizeDurations(t *testing.T) {
	p := SummarizeDurations([]time.Duration{2 * time.Millisecond, 4 * time.Millisecond})
	if p.P50 != 2 || p.Max != 4 || p.N != 2 {
		t.Fatalf("unexpected summary %+v", p)
	}
}

func TestWriteFileRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	in := &Report{
		Source:     "ppvload",
		Mode:       "router",
		QPS:        123.5,
		LatencyMS:  Percentiles{P50: 1, P99: 9, Max: 11, N: 100},
		ErrorBound: Percentiles{P50: 0.25, N: 100},
	}
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if out.Schema != Schema {
		t.Fatalf("schema not stamped: %q", out.Schema)
	}
	if out.QPS != in.QPS || out.LatencyMS != in.LatencyMS || out.ErrorBound != in.ErrorBound {
		t.Fatalf("roundtrip mismatch: %+v", out)
	}
}

package telemetry

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fastppv_test_total", "a counter")
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter value = %v, want 3.5", got)
	}
	// Gauges are scrape-time samples: the collector reads the current value
	// on every scrape.
	level := 4.0
	r.Collect(func(e *Emitter) { e.Gauge("fastppv_test_gauge", "a gauge", level) })
	level -= 1.5
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if out := sb.String(); !strings.Contains(out, "# TYPE fastppv_test_gauge gauge\nfastppv_test_gauge 2.5\n") {
		t.Fatalf("gauge not rendered at its scrape-time value:\n%s", out)
	}
}

func TestRegisterConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("fastppv_conflict", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different kind should panic")
		}
	}()
	r.Histogram("fastppv_conflict", "second", nil)
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name should panic")
		}
	}()
	r.Counter("fastppv-bad-name", "hyphens are not allowed")
}

func TestVecChildReuse(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("fastppv_requests_total", "requests", "endpoint")
	a1 := v.With("ppv")
	a2 := v.With("ppv")
	if a1 != a2 {
		t.Fatal("With should return the same child for the same label values")
	}
	a1.Inc()
	a2.Inc()
	if got := a1.Value(); got != 2 {
		t.Fatalf("shared child value = %v, want 2", got)
	}
	b := v.With("stats")
	if b == a1 {
		t.Fatal("different label values must resolve to different children")
	}
}

func TestVecWrongLabelCountPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("fastppv_labeled_total", "labeled", "endpoint", "code")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label value count should panic")
		}
	}()
	v.With("ppv")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("fastppv_a_total", "counts things").Add(3)
	r.Collect(func(e *Emitter) { e.Gauge("fastppv_b", "measures things", 1.5) })
	v := r.CounterVec("fastppv_c_total", "labelled", "endpoint")
	v.With("ppv").Inc()
	v.With("batch").Add(2)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()

	for _, want := range []string{
		"# HELP fastppv_a_total counts things\n",
		"# TYPE fastppv_a_total counter\n",
		"fastppv_a_total 3\n",
		"# TYPE fastppv_b gauge\n",
		"fastppv_b 1.5\n",
		`fastppv_c_total{endpoint="ppv"} 1` + "\n",
		`fastppv_c_total{endpoint="batch"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n--- got ---\n%s", want, out)
		}
	}
	validatePrometheusText(t, out)
}

func TestWritePrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("fastppv_escape_total", "help with \\ backslash\nand newline", "path")
	v.With("a\\b\"c\nd").Inc()

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()

	if !strings.Contains(out, "# HELP fastppv_escape_total help with \\\\ backslash\\nand newline\n") {
		t.Errorf("HELP text not escaped:\n%s", out)
	}
	if !strings.Contains(out, `fastppv_escape_total{path="a\\b\"c\nd"} 1`+"\n") {
		t.Errorf("label value not escaped:\n%s", out)
	}
	validatePrometheusText(t, out)
}

func TestWritePrometheusSpecialFloats(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(e *Emitter) {
		e.Gauge("fastppv_pinf", "h", math.Inf(1))
		e.Gauge("fastppv_ninf", "h", math.Inf(-1))
		e.Gauge("fastppv_nan", "h", math.NaN())
	})

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{"fastppv_pinf +Inf\n", "fastppv_ninf -Inf\n", "fastppv_nan NaN\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fastppv_lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE fastppv_lat_seconds histogram\n",
		`fastppv_lat_seconds_bucket{le="0.1"} 1` + "\n",
		`fastppv_lat_seconds_bucket{le="1"} 2` + "\n",
		`fastppv_lat_seconds_bucket{le="+Inf"} 3` + "\n",
		"fastppv_lat_seconds_sum 5.55\n",
		"fastppv_lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n--- got ---\n%s", want, out)
		}
	}
	validatePrometheusText(t, out)
}

func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("fastppv_leg_seconds", "leg latency", []float64{0.01}, "shard")
	v.With("0").Observe(0.001)
	v.With("1").Observe(1)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`fastppv_leg_seconds_bucket{shard="0",le="0.01"} 1`,
		`fastppv_leg_seconds_bucket{shard="1",le="0.01"} 0`,
		`fastppv_leg_seconds_bucket{shard="1",le="+Inf"} 1`,
		`fastppv_leg_seconds_count{shard="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n--- got ---\n%s", want, out)
		}
	}
	validatePrometheusText(t, out)
}

func TestCollector(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(e *Emitter) {
		e.Gauge("fastppv_cache_entries", "entries resident", 42)
		e.Counter("fastppv_cache_hits_total", "hits", 7, L("tier", "memory"))
	})

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE fastppv_cache_entries gauge\n",
		"fastppv_cache_entries 42\n",
		`fastppv_cache_hits_total{tier="memory"} 7` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n--- got ---\n%s", want, out)
		}
	}
	validatePrometheusText(t, out)
}

func TestConcurrentVecResolution(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("fastppv_conc_total", "concurrent", "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v.With("same").Inc()
			}
		}()
	}
	wg.Wait()
	if got := v.With("same").Value(); got != 4000 {
		t.Fatalf("concurrent counter = %v, want 4000", got)
	}
}

// validatePrometheusText is a minimal structural parser for the 0.0.4 text
// format: every non-comment line must be `name{labels} value` or `name value`,
// and every samples name must have seen a preceding TYPE header.
func validatePrometheusText(t *testing.T, out string) {
	t.Helper()
	typed := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: blank line in exposition output", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("line %d: unterminated label set in %q", ln+1, line)
			}
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && typed[strings.TrimSuffix(name, suf)] {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if !typed[base] {
			t.Fatalf("line %d: sample %q has no TYPE header", ln+1, name)
		}
		if _, err := parseFloatValue(line[sp+1:]); err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
	}
}

func parseFloatValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func TestObserveDuration(t *testing.T) {
	h := NewHistogram([]float64{0.001, 1})
	h.ObserveDuration(500 * time.Millisecond)
	s := h.Snapshot()
	if s.Counts[1] != 1 {
		t.Fatalf("500ms should land in the (0.001, 1] bucket, got %v", s.Counts)
	}
}

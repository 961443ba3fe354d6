// Package telemetry is the dependency-free metrics and structured-logging
// layer of the FastPPV serving stack: a registry of counters and fixed-bucket
// histograms, plus scrape-time collectors that emit counters and gauges read
// off existing stats, exposed in the Prometheus text exposition format; and
// the shared log/slog setup every command uses.
//
// The paper's core contract — scheduled approximation with an exact error
// bound at any stopping point — makes the interesting behaviour of this
// system per-iteration and per-shard: how much error mass each hub expansion
// retires, which scatter-gather leg was slow, when the bound crossed eta.
// This package is how that behaviour becomes observable without adding any
// external dependency: internal/server mounts a registry on GET /metrics,
// internal/cluster records per-shard leg latency and epoch divergence into
// it, and the engine-side query statistics (iterations, hubs expanded,
// residual at stop) land in histograms.
//
// Hot-path cost is a handful of atomic adds per observation: counters are
// single atomics, histograms are an atomic add per bucket + sum +
// count, and Vec children are resolved once at wiring time, not per request.
// Snapshotting (a /metrics scrape) reads the atomics individually — under
// concurrent writers the view is approximate by at most the writes in
// flight, which is the standard Prometheus contract.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Label is one name="value" pair attached to a sample.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind is the TYPE line of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// float64 values stored in atomics travel as bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value. The zero value is ready to use.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.add(1) }

// Add adds v; negative deltas are ignored so the counter stays monotonic.
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.v.add(v)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.value() }

// family is one registered metric name with its help, kind and children.
type family struct {
	name string
	help string
	kind metricKind

	labelNames []string
	// mu guards children; the hot path resolves a child once and caches the
	// handle, so this lock is off the request path.
	mu       sync.RWMutex
	children map[string]*child
	order    []string // insertion order of child keys, for stable output
}

// child is one labelled instance of a family.
type child struct {
	labels []Label
	c      *Counter
	h      *Histogram
}

// Registry holds metric families and scrape-time collectors and renders them
// in the Prometheus text format. Create one per process with NewRegistry.
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	names      []string // registration order; sorted at write time
	collectors []func(e *Emitter)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register creates (or fetches) the family for name, panicking on a
// kind/label-schema conflict — metric registration happens once at wiring
// time, so a conflict is a programming error, not a runtime condition.
func (r *Registry) register(name, help string, kind metricKind, labelNames []string) *family {
	mustValidName(name)
	for _, l := range labelNames {
		mustValidName(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || strings.Join(f.labelNames, ",") != strings.Join(labelNames, ",") {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different kind or label set", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labelNames: labelNames,
		children: make(map[string]*child)}
	r.families[name] = f
	r.names = append(r.names, name)
	return f
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil)
	return f.child(nil).c
}

// Histogram registers (or fetches) an unlabelled fixed-bucket histogram.
// buckets must be sorted ascending; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, kindHistogram, nil)
	ch := f.childHist(nil, buckets)
	return ch.h
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labelNames)}
}

// HistogramVec registers a histogram family with the given label names; every
// child shares the same bucket layout.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, kindHistogram, labelNames),
		buckets: append([]float64(nil), buckets...)}
}

// Collect registers a scrape-time collector: fn runs on every WritePrometheus
// call and emits point-in-time samples (typically read off existing stats
// structs) without any hot-path instrumentation.
func (r *Registry) Collect(fn func(e *Emitter)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// child fetches or creates the instance of f for the given label values.
func (f *family) child(values []string) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	ch, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return ch
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.children[key]; ok {
		return ch
	}
	ch = &child{labels: zipLabels(f.labelNames, values), c: &Counter{}}
	f.children[key] = ch
	f.order = append(f.order, key)
	return ch
}

// childHist is child for histogram families, which need a bucket layout on
// first creation.
func (f *family) childHist(values []string, buckets []float64) *child {
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	ch, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return ch
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.children[key]; ok {
		return ch
	}
	ch = &child{labels: zipLabels(f.labelNames, values), h: NewHistogram(buckets)}
	f.children[key] = ch
	f.order = append(f.order, key)
	return ch
}

func zipLabels(names, values []string) []Label {
	if len(names) == 0 {
		return nil
	}
	out := make([]Label, len(names))
	for i := range names {
		out[i] = Label{Name: names[i], Value: values[i]}
	}
	return out
}

// CounterVec is a counter family indexed by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (in declaration
// order), creating it on first use. Resolve handles once at wiring time:
// the lookup takes a read lock.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).c }

// HistogramVec is a histogram family indexed by label values; all children
// share one bucket layout.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			v.f.name, len(v.f.labelNames), len(values)))
	}
	return v.f.childHist(values, v.buckets).h
}

// Emitter accumulates scrape-time samples from a collector. Sample order
// within one name follows emission order.
type Emitter struct{ samples []sample }

type sample struct {
	name   string
	help   string
	kind   metricKind
	labels []Label
	value  float64
}

// Counter emits one counter sample.
func (e *Emitter) Counter(name, help string, value float64, labels ...Label) {
	e.samples = append(e.samples, sample{name: name, help: help, kind: kindCounter, labels: labels, value: value})
}

// Gauge emits one gauge sample.
func (e *Emitter) Gauge(name, help string, value float64, labels ...Label) {
	e.samples = append(e.samples, sample{name: name, help: help, kind: kindGauge, labels: labels, value: value})
}

// WritePrometheus renders every registered family plus every collector's
// samples in the Prometheus text exposition format (version 0.0.4), families
// sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := append([]string(nil), r.names...)
	families := make([]*family, 0, len(names))
	for _, n := range names {
		families = append(families, r.families[n])
	}
	collectors := append([]func(e *Emitter){}, r.collectors...)
	r.mu.RUnlock()

	// Scrape-time samples, grouped by name so a family emitted by a
	// collector still gets exactly one HELP/TYPE header.
	var em Emitter
	for _, fn := range collectors {
		fn(&em)
	}
	collected := make(map[string][]sample)
	var collectedNames []string
	for _, s := range em.samples {
		mustValidName(s.name)
		if _, ok := collected[s.name]; !ok {
			collectedNames = append(collectedNames, s.name)
		}
		collected[s.name] = append(collected[s.name], s)
	}
	for _, n := range collectedNames {
		names = append(names, n)
	}
	sort.Strings(names)

	b := &strings.Builder{}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		if ss, ok := collected[name]; ok {
			writeHeader(b, name, ss[0].help, ss[0].kind)
			for _, s := range ss {
				writeSample(b, name, "", s.labels, s.value)
			}
			continue
		}
		var f *family
		for _, ff := range families {
			if ff.name == name {
				f = ff
				break
			}
		}
		if f == nil {
			continue
		}
		writeFamily(b, f)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeFamily(b *strings.Builder, f *family) {
	f.mu.RLock()
	order := append([]string(nil), f.order...)
	children := make([]*child, 0, len(order))
	for _, k := range order {
		children = append(children, f.children[k])
	}
	f.mu.RUnlock()
	writeHeader(b, f.name, f.help, f.kind)
	for _, ch := range children {
		switch {
		case ch.c != nil:
			writeSample(b, f.name, "", ch.labels, ch.c.Value())
		case ch.h != nil:
			writeHistogram(b, f.name, ch.labels, ch.h.Snapshot())
		}
	}
}

func writeHistogram(b *strings.Builder, name string, labels []Label, s HistogramSnapshot) {
	cum := uint64(0)
	for i, upper := range s.Buckets {
		cum += s.Counts[i]
		le := formatFloat(upper)
		writeSample(b, name, "_bucket", append(append([]Label(nil), labels...), Label{"le", le}), float64(cum))
	}
	cum += s.Counts[len(s.Buckets)]
	writeSample(b, name, "_bucket", append(append([]Label(nil), labels...), Label{"le", "+Inf"}), float64(cum))
	writeSample(b, name, "_sum", labels, s.Sum)
	writeSample(b, name, "_count", labels, float64(cum))
}

func writeHeader(b *strings.Builder, name, help string, kind metricKind) {
	if help != "" {
		b.WriteString("# HELP ")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(help))
		b.WriteByte('\n')
	}
	b.WriteString("# TYPE ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(string(kind))
	b.WriteByte('\n')
}

func writeSample(b *strings.Builder, name, suffix string, labels []Label, value float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(value))
	b.WriteByte('\n')
}

// formatFloat renders a sample value; Prometheus accepts Go's shortest-form
// floats plus the special +Inf/-Inf/NaN spellings.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue escapes backslash, double-quote and newline, the three
// characters the text format requires escaping inside label values.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline (double quotes are legal in HELP).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// mustValidName panics unless name matches the Prometheus metric/label name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func mustValidName(name string) {
	if name == "" {
		panic("telemetry: empty metric or label name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid metric or label name %q", name))
		}
	}
}

// Handler returns an http.Handler serving the registry in the text
// exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

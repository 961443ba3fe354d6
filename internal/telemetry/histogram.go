package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefLatencyBuckets is the default bucket layout for request/leg latency
// histograms, in seconds: 10µs to 60s with roughly 2.5x steps. The range is
// deliberately wide at both ends — at tiny benchmark scale warm cache hits
// land well under 100µs and everything past the top bound collapses into the
// +Inf bucket, clamping the reported p99 at the last finite edge, so the
// bottom reaches 10µs and the top 60s.
var DefLatencyBuckets = []float64{
	0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 60,
}

// DefBoundBuckets is the default layout for L1-error-bound observations
// (residual mass at stop), log-spaced across the useful accuracy range.
var DefBoundBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
}

// LinearBuckets returns count buckets starting at start with the given width.
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// Histogram is a fixed-bucket histogram safe for concurrent Observe. Bucket
// counts, the running sum and the total count are independent atomics: a
// snapshot taken under concurrent writers is approximate by at most the
// observations in flight (the standard Prometheus scrape contract), and the
// rendered cumulative buckets are always internally monotonic because they
// are summed from one read of the per-bucket counts.
type Histogram struct {
	upper  []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

// NewHistogram creates a histogram over the given ascending upper bounds.
// A trailing +Inf bound is stripped (it is implicit); nil buckets default to
// DefLatencyBuckets.
func NewHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	upper := append([]float64(nil), buckets...)
	if n := len(upper); n > 0 && math.IsInf(upper[n-1], 1) {
		upper = upper[:n-1]
	}
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic("telemetry: histogram buckets must be strictly ascending")
		}
	}
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Binary search beats a linear scan only past ~16 buckets; bucket layouts
	// here are small, but sort.SearchFloat64s keeps it O(log n) regardless.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.sum.add(v)
	h.count.Add(1)
}

// ObserveDuration records a latency sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.value() }

// HistogramSnapshot is a point-in-time copy of a histogram: Counts[i] is the
// (non-cumulative) count of bucket i, with Counts[len(Buckets)] the implicit
// +Inf bucket.
type HistogramSnapshot struct {
	Buckets []float64
	Counts  []uint64
	Sum     float64
	Count   uint64
}

// Snapshot copies the bucket counts. Count is recomputed as the sum of the
// copied buckets, so the snapshot is internally consistent (cumulative
// buckets never exceed the reported count) even under concurrent writers.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets: h.upper,
		Counts:  make([]uint64, len(h.counts)),
		Sum:     h.sum.value(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1)
// from the bucket boundaries: the upper edge of the bucket the quantile falls
// in, or +Inf when it lands in the overflow bucket.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum > target {
			if i == len(s.Buckets) {
				return math.Inf(1)
			}
			return s.Buckets[i]
		}
	}
	return math.Inf(1)
}

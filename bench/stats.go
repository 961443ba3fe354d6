package main

import (
	"math"
	"sort"
	"time"
)

// numSlices is how many equal slices the timed phase is cut into. The
// end-to-end percentiles are medians over the slices, so one disturbed slice
// (a GC cycle, a noisy neighbour) cannot move the reported number.
const numSlices = 5

// minSliceSamples is the least a slice may hold: with 1 000 samples at least
// ten lie beyond the 99th percentile, the rule the choosing-metrics guide
// sets for reporting a percentile at all.
const minSliceSamples = 1000

// sample is one request of a load phase. start is measured from the phase's
// first instant; for the open loop it is the due time, not the send time.
type sample struct {
	start   time.Duration
	latency time.Duration
	ok      bool
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted,
// which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle of xs (mean of the two middles when even); it
// sorts a copy. Empty input yields NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method) — the same
// arithmetic the driver applies to ten runs. Fewer than two values, or a zero
// median, yield 0.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	q := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}

// sliceStat is what one slice of the timed phase holds.
type sliceStat struct {
	Samples int     `json:"samples"`
	QPS     float64 `json:"qps"`
	P50MS   float64 `json:"p50_ms"`
	P99MS   float64 `json:"p99_ms"`
}

// sliceStats cuts [0, dur) into n equal slices by request start time and
// summarizes the successful samples of each. Samples that started outside
// the window (the tail of a phase) are ignored.
func sliceStats(samples []sample, dur time.Duration, n int) []sliceStat {
	width := dur / time.Duration(n)
	lat := make([][]float64, n)
	for _, s := range samples {
		if !s.ok || s.start < 0 || s.start >= width*time.Duration(n) {
			continue
		}
		i := int(s.start / width)
		lat[i] = append(lat[i], float64(s.latency)/1e6)
	}
	out := make([]sliceStat, n)
	for i, l := range lat {
		out[i].Samples = len(l)
		out[i].QPS = float64(len(l)) / width.Seconds()
		if len(l) == 0 {
			continue
		}
		sort.Float64s(l)
		out[i].P50MS = percentile(l, 0.50)
		out[i].P99MS = percentile(l, 0.99)
	}
	return out
}

// overSlices reports the median of one field over the slices and the
// quartile spread of that field, the number -compare holds against the bound.
func overSlices(slices []sliceStat, field func(sliceStat) float64) (med, spread float64) {
	xs := make([]float64, len(slices))
	for i, s := range slices {
		xs[i] = field(s)
	}
	return median(xs), quartileSpread(xs)
}

// durationsUS converts to microseconds for the percentile helpers.
func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// p50 and p99 of an unsorted series; NaN when empty.
func p50(xs []float64) float64 { return quantileOf(xs, 0.50) }
func p99(xs []float64) float64 { return quantileOf(xs, 0.99) }

func quantileOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// openLoopDue is when request i of a fixed-rate open loop is due, measured
// from the start of the pass.
func openLoopDue(i int, perSecond float64) time.Duration {
	return time.Duration(float64(i) / perSecond * float64(time.Second))
}

// openLoopSample accounts one open-loop request: latency runs from the due
// time, so the wait a stall imposes on later requests is counted, and late is
// how far behind its schedule the generator sent it.
func openLoopSample(due, sent, done time.Duration, ok bool) (s sample, late time.Duration) {
	late = sent - due
	if late < 0 {
		late = 0
	}
	return sample{start: due, latency: done - due, ok: ok}, late
}

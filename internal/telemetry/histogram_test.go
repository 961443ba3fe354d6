package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramObserveBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Boundaries are inclusive upper bounds: 1 lands in the le="1" bucket.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 106 {
		t.Fatalf("sum = %v, want 106", s.Sum)
	}
}

func TestHistogramTrailingInfStripped(t *testing.T) {
	h := NewHistogram([]float64{1, math.Inf(1)})
	if len(h.upper) != 1 {
		t.Fatalf("trailing +Inf should be stripped, got bounds %v", h.upper)
	}
}

func TestHistogramUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted buckets should panic")
		}
	}()
	NewHistogram([]float64{2, 1})
}

// TestHistogramConcurrentWriters hammers one histogram from many goroutines
// and checks the final snapshot is exact once writers are quiesced. Run under
// -race this also proves Observe and Snapshot are data-race free.
func TestHistogramConcurrentWriters(t *testing.T) {
	h := NewHistogram([]float64{0.25, 0.5, 0.75})
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// One concurrent reader taking snapshots while writes are in flight: every
	// intermediate snapshot must be internally consistent (Count == sum of
	// bucket counts, by construction) and monotonically growing.
	go func() {
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var total uint64
			for _, c := range s.Counts {
				total += c
			}
			if total != s.Count {
				t.Errorf("snapshot count %d != bucket total %d", s.Count, total)
				return
			}
			if s.Count < last {
				t.Errorf("snapshot count went backwards: %d -> %d", last, s.Count)
				return
			}
			last = s.Count
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%4) / 4) // 0, 0.25, 0.5, 0.75 round-robin
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	// Bucket le=0.25 holds values 0 and 0.25; the next two hold one value each.
	if s.Counts[0] != workers*perWorker/2 {
		t.Fatalf("bucket le=0.25 = %d, want %d", s.Counts[0], workers*perWorker/2)
	}
	if s.Counts[1] != workers*perWorker/4 || s.Counts[2] != workers*perWorker/4 {
		t.Fatalf("mid buckets = %v, want %d each", s.Counts[1:3], workers*perWorker/4)
	}
	if s.Counts[3] != 0 {
		t.Fatalf("+Inf bucket = %d, want 0", s.Counts[3])
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 90; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 9; i++ {
		h.Observe(3)
	}
	h.Observe(7)
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := s.Quantile(0.95); got != 4 {
		t.Fatalf("p95 = %v, want 4", got)
	}
	if got := s.Quantile(0.999); got != 8 {
		t.Fatalf("p99.9 = %v, want 8", got)
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	over := NewHistogram([]float64{1})
	over.Observe(5)
	os := over.Snapshot()
	if got := os.Quantile(0.5); !math.IsInf(got, 1) {
		t.Fatalf("overflow-bucket quantile = %v, want +Inf", got)
	}
}

func TestLinearBuckets(t *testing.T) {
	got := LinearBuckets(0, 0.5, 3)
	want := []float64{0, 0.5, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LinearBuckets = %v, want %v", got, want)
		}
	}
}

// BenchmarkHistogramObserve bounds the hot-path cost of one latency
// observation — the dominant per-request instrumentation work in the server.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_observe_seconds", "bench.", DefLatencyBuckets)
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0001
		for pb.Next() {
			h.Observe(v)
			v += 0.0001
			if v > 10 {
				v = 0.0001
			}
		}
	})
}

// BenchmarkCounterInc bounds the cost of one status-class increment.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_inc_total", "bench.")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

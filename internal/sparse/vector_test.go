package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"fastppv/internal/graph"
)

func TestVectorBasicOps(t *testing.T) {
	v := New(4)
	v.Set(1, 0.5)
	v.Set(2, 0.25)
	v.Add(1, 0.1)
	if got := v.Get(1); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("Get(1) = %v, want 0.6", got)
	}
	if got := v.Get(99); got != 0 {
		t.Errorf("Get(missing) = %v, want 0", got)
	}
	if got := v.Sum(); math.Abs(got-0.85) > 1e-12 {
		t.Errorf("Sum = %v, want 0.85", got)
	}
	if got := v.NonZeros(); got != 2 {
		t.Errorf("NonZeros = %d, want 2", got)
	}
	v.Set(2, 0) // deleting via zero
	if v.NonZeros() != 1 {
		t.Errorf("Set(_,0) should delete the entry")
	}
	v.Add(5, 0) // adding zero is a no-op
	if v.NonZeros() != 1 {
		t.Errorf("Add(_,0) should not create an entry")
	}
}

func TestVectorAddScaledAndScale(t *testing.T) {
	a := Vector{1: 1, 2: 2}
	b := Vector{2: 3, 4: 5}
	a.AddScaled(b, 0.5)
	want := Vector{1: 1, 2: 3.5, 4: 2.5}
	if !a.Equal(want, 1e-12) {
		t.Errorf("AddScaled result %v, want %v", a, want)
	}
	a.AddScaled(b, 0) // scaling by zero is a no-op
	if !a.Equal(want, 0) {
		t.Errorf("AddScaled with scale 0 modified the vector")
	}
}

func TestVectorCloneIsIndependent(t *testing.T) {
	v := Vector{1: 1}
	c := v.Clone()
	c.Set(1, 2)
	c.Set(2, 3)
	if v.Get(1) != 1 || v.Get(2) != 0 {
		t.Errorf("modifying the clone changed the original: %v", v)
	}
}

func TestVectorL1Distance(t *testing.T) {
	a := Vector{1: 0.5, 2: 0.5}
	b := Vector{1: 0.25, 3: 0.25}
	want := 0.25 + 0.5 + 0.25
	if got := a.L1Distance(b); math.Abs(got-want) > 1e-12 {
		t.Errorf("L1Distance = %v, want %v", got, want)
	}
	if got := b.L1Distance(a); math.Abs(got-want) > 1e-12 {
		t.Errorf("L1Distance should be symmetric: %v vs %v", got, want)
	}
	if got := a.L1Distance(a.Clone()); got != 0 {
		t.Errorf("L1Distance to an identical vector = %v, want 0", got)
	}
}

func TestVectorClip(t *testing.T) {
	v := Vector{1: 0.5, 2: 1e-6, 3: 1e-3}
	removed := v.Clip(1e-4)
	if removed != 1 {
		t.Errorf("Clip removed %d entries, want 1", removed)
	}
	if v.Get(2) != 0 || v.Get(1) == 0 || v.Get(3) == 0 {
		t.Errorf("Clip kept/removed the wrong entries: %v", v)
	}
}

func TestDenseRoundTrip(t *testing.T) {
	dense := []float64{0, 0.25, 0, 0.75}
	v := FromDense(dense)
	if v.NonZeros() != 2 {
		t.Fatalf("FromDense kept %d entries, want 2", v.NonZeros())
	}
	for i := range dense {
		if got := v.Get(graph.NodeID(i)); got != dense[i] {
			t.Errorf("Get(%d) = %v, want %v", i, got, dense[i])
		}
	}
}

func TestEntriesOrdering(t *testing.T) {
	v := Vector{5: 0.1, 1: 0.4, 3: 0.4, 2: 0.2}
	entries := v.Entries()
	if len(entries) != 4 {
		t.Fatalf("Entries returned %d items", len(entries))
	}
	// Descending score; ties broken by ascending node id (1 before 3).
	wantOrder := []graph.NodeID{1, 3, 2, 5}
	for i, w := range wantOrder {
		if entries[i].Node != w {
			t.Fatalf("Entries order %v, want %v", entries, wantOrder)
		}
	}
}

// sanitize maps an arbitrary generated float64 (possibly NaN or infinite)
// into a small non-negative score.
func sanitize(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Abs(math.Mod(x, 100))
}

// TestVectorQuickSumAddScaled property-tests that AddScaled preserves total
// mass arithmetic: sum(a + s*b) == sum(a) + s*sum(b).
func TestVectorQuickSumAddScaled(t *testing.T) {
	f := func(aRaw, bRaw []float64, scaleRaw float64) bool {
		scale := sanitize(scaleRaw) / 25
		a, b := New(len(aRaw)), New(len(bRaw))
		for i, x := range aRaw {
			a.Set(graph.NodeID(i), sanitize(x))
		}
		for i, x := range bRaw {
			id := graph.NodeID(i % 50)
			b.Set(id, b.Get(id)+sanitize(x))
		}
		want := a.Sum() + scale*b.Sum()
		a.AddScaled(b, scale)
		return math.Abs(a.Sum()-want) < 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestVectorQuickL1TriangleInequality property-tests the metric property of
// L1Distance used by the accuracy metrics.
func TestVectorQuickL1TriangleInequality(t *testing.T) {
	build := func(raw []float64) Vector {
		v := New(len(raw))
		for i, x := range raw {
			id := graph.NodeID(i % 32)
			v.Set(id, v.Get(id)+sanitize(x))
		}
		return v
	}
	f := func(aRaw, bRaw, cRaw []float64) bool {
		a, b, c := build(aRaw), build(bRaw), build(cRaw)
		ab, bc, ac := a.L1Distance(b), b.L1Distance(c), a.L1Distance(c)
		return ac <= ab+bc+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

package sparse

import (
	"math"
	"math/rand"
	"testing"

	"fastppv/internal/graph"
)

// randomVector builds a reproducible sparse vector over [0, n) node ids.
func randomVector(rng *rand.Rand, n, entries int) Vector {
	v := New(entries)
	for len(v) < entries {
		v[graph.NodeID(rng.Intn(n))] = rng.Float64()
	}
	return v
}

// encodeVector flattens v into the 12-byte encoded record layout, sorted by
// ascending node id, the same layout ppvindex writes to disk.
func encodeVector(v Vector) []byte {
	acc := &Accumulator{}
	acc.SetVector(v)
	buf := make([]byte, len(v)*EncodedEntrySize)
	for i, e := range acc.Entries() {
		PutEncodedEntry(buf[i*EncodedEntrySize:], e.Node, e.Score)
	}
	return buf
}

func TestEncodedEntryRoundTrip(t *testing.T) {
	buf := make([]byte, 2*EncodedEntrySize)
	PutEncodedEntry(buf, 7, 0.125)
	PutEncodedEntry(buf[EncodedEntrySize:], 2_000_000_000, -1.5)
	if id, s := EncodedEntryAt(buf, 0); id != 7 || s != 0.125 {
		t.Fatalf("entry 0 = (%d, %v), want (7, 0.125)", id, s)
	}
	if id, s := EncodedEntryAt(buf, 1); id != 2_000_000_000 || s != -1.5 {
		t.Fatalf("entry 1 = (%d, %v), want (4000000000, -1.5)", id, s)
	}
}

func TestAccumulatorSetAndSum(t *testing.T) {
	v := Vector{9: 0.1, 2: 0.2, 5: 0.3}
	acc := &Accumulator{}
	acc.SetVector(v)
	if acc.Len() != 3 {
		t.Fatalf("Len = %d, want 3", acc.Len())
	}
	ent := acc.Entries()
	if ent[0].Node != 2 || ent[1].Node != 5 || ent[2].Node != 9 {
		t.Fatalf("entries not sorted by node: %v", ent)
	}
	if got, want := acc.Sum(), v.SumOrdered(); got != want {
		t.Fatalf("Sum = %v, want %v (must be bit-equal to SumOrdered)", got, want)
	}
	if got := acc.Get(5); got != 0.3 {
		t.Fatalf("Get(5) = %v, want 0.3", got)
	}
	if got := acc.Get(4); got != 0 {
		t.Fatalf("Get(missing) = %v, want 0", got)
	}
	back := acc.ToVector()
	if back.L1Distance(v) != 0 {
		t.Fatalf("ToVector round trip distance = %v", back.L1Distance(v))
	}

	acc2 := &Accumulator{}
	acc2.SetEncoded(encodeVector(v))
	if acc2.ToVector().L1Distance(v) != 0 {
		t.Fatalf("SetEncoded round trip mismatch")
	}

	// SetEntries copies: the caller's slice (the push scratch) is reused for
	// the next source while the accumulator keeps folding.
	sorted := []Entry{{2, 0.2}, {5, 0.3}, {9, 0.1}}
	acc3 := &Accumulator{}
	acc3.SetVector(Vector{1: 1}) // replaced, not merged
	acc3.SetEntries(sorted)
	sorted[0].Score = 99
	if acc3.Len() != 3 || acc3.Get(2) != 0.2 || acc3.Sum() != acc.Sum() {
		t.Fatalf("SetEntries = %v, want a private copy of {2:0.2 5:0.3 9:0.1}", acc3.Entries())
	}
	if got := FromEntries(acc3.Entries()); got.L1Distance(v) != 0 || len(got) != 3 {
		t.Fatalf("FromEntries = %v, want %v", got, v)
	}
}

// TestAccumulatorMatchesMapPath is the core equivalence check: a randomized
// sequence of hub-extension folds must produce bit-identical scores via the
// flat kernel (encoded inputs) and via the reference map-based
// clone-then-AddScaled composition.
func TestAccumulatorMatchesMapPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const alpha = 0.15
	for trial := 0; trial < 50; trial++ {
		ref := randomVector(rng, 200, 30)
		accEnc := &Accumulator{}
		accEnc.SetVector(ref)
		mapRef := ref.Clone()

		for step := 0; step < 8; step++ {
			hubPPV := randomVector(rng, 200, 20)
			owner := graph.NodeID(rng.Intn(200))
			if rng.Intn(2) == 0 { // sometimes the owner is present in its PPV
				hubPPV[owner] = alpha + rng.Float64()
			}
			if rng.Intn(4) == 0 { // sometimes the correction zeroes the self entry
				hubPPV[owner] = alpha
			}
			scale := rng.Float64() * 3

			// Legacy path: clone-corrected extension vector, then AddScaled.
			ext := New(len(hubPPV))
			for id, s := range hubPPV {
				if id == owner {
					s -= alpha
					if s <= 1e-15 {
						continue
					}
				}
				ext[id] = s
			}
			mapRef.AddScaled(ext, scale)

			foldEncoded(accEnc, encodeVector(hubPPV), scale, owner, alpha)
		}

		for _, acc := range []*Accumulator{accEnc} {
			got := acc.ToVector()
			for id, want := range mapRef {
				if got.Get(id) != want {
					t.Fatalf("trial %d: node %d = %v, want bit-equal %v", trial, id, got.Get(id), want)
				}
			}
			for id := range got {
				if _, ok := mapRef[id]; !ok {
					t.Fatalf("trial %d: unexpected node %d in accumulator", trial, id)
				}
			}
			if got, want := acc.Sum(), mapRef.SumOrdered(); got != want {
				t.Fatalf("trial %d: Sum = %v, want %v", trial, got, want)
			}
		}
	}
}

func TestAccumulatorAddAccumulator(t *testing.T) {
	a := &Accumulator{}
	a.SetVector(Vector{1: 1, 3: 3, 5: 5})
	b := &Accumulator{}
	b.SetVector(Vector{2: 2, 3: 30, 9: 9})
	a.AddAccumulator(b)
	want := Vector{1: 1, 2: 2, 3: 33, 5: 5, 9: 9}
	if got := a.ToVector(); got.L1Distance(want) != 0 {
		t.Fatalf("AddAccumulator = %v, want %v", got, want)
	}
	// Entries stay sorted after the merge.
	ent := a.Entries()
	for i := 1; i < len(ent); i++ {
		if ent[i-1].Node >= ent[i].Node {
			t.Fatalf("entries unsorted after merge: %v", ent)
		}
	}
	empty := &Accumulator{}
	a.AddAccumulator(empty)
	if got := a.ToVector(); got.L1Distance(want) != 0 {
		t.Fatalf("adding empty accumulator changed contents")
	}
}

func TestAccumulatorExtensionSelfCorrection(t *testing.T) {
	const alpha = 0.15
	// Owner entry exactly alpha: the corrected score is zero and the entry
	// must be dropped, not stored as an explicit zero.
	acc := &Accumulator{}
	foldEncoded(acc, encodeVector(Vector{4: alpha, 7: 0.5}), 2, 4, alpha)
	if got := acc.ToVector(); got.Get(4) != 0 || got.Get(7) != 1.0 || len(got) != 1 {
		t.Fatalf("self-correction drop: got %v, want {7:1}", got)
	}
	// Owner absent from the record: no correction applies.
	acc.Reset()
	foldEncoded(acc, encodeVector(Vector{7: 0.5}), 1, 4, alpha)
	if got := acc.ToVector(); got.Get(7) != 0.5 || len(got) != 1 {
		t.Fatalf("no-self-entry: got %v, want {7:0.5}", got)
	}
	// Owner entry above alpha: corrected score survives.
	acc.Reset()
	foldEncoded(acc, encodeVector(Vector{4: alpha + 0.25}), 1, 4, alpha)
	if got := acc.ToVector().Get(4); math.Abs(got-0.25) > 0 {
		t.Fatalf("self-correction keep: got %v, want 0.25", got)
	}
}

func TestAccumulatorResetReuse(t *testing.T) {
	acc := &Accumulator{}
	acc.SetVector(Vector{1: 1, 2: 2})
	foldEncoded(acc, encodeVector(Vector{3: 3}), 1, 99, 0.15)
	acc.Reset()
	if acc.Len() != 0 || acc.Sum() != 0 {
		t.Fatalf("Reset left entries behind: len=%d sum=%v", acc.Len(), acc.Sum())
	}
	acc.SetVector(Vector{8: 0.5})
	if got := acc.ToVector(); len(got) != 1 || got.Get(8) != 0.5 {
		t.Fatalf("reuse after Reset = %v, want {8:0.5}", got)
	}
}

func TestFromDenseHintAndRoundTrip(t *testing.T) {
	dense := make([]float64, 100)
	for i := range dense {
		dense[i] = float64(i + 1) // fully dense: worst case for the size hint
	}
	v := FromDense(dense)
	if v.NonZeros() != 100 {
		t.Fatalf("FromDense kept %d entries, want 100", v.NonZeros())
	}
	back := v.Dense(100)
	for i := range dense {
		if back[i] != dense[i] {
			t.Fatalf("round trip mismatch at %d: %v != %v", i, back[i], dense[i])
		}
	}
}

func TestDenseTruncation(t *testing.T) {
	v := Vector{1: 0.1, 5: 0.5, 50: 0.9}
	out, dropped := v.DenseChecked(10)
	if len(out) != 10 {
		t.Fatalf("DenseChecked len = %d, want 10", len(out))
	}
	if dropped != 1 {
		t.Fatalf("DenseChecked dropped = %d, want 1 (node 50)", dropped)
	}
	if out[1] != 0.1 || out[5] != 0.5 {
		t.Fatalf("DenseChecked kept wrong values: %v", out)
	}
	// Dense documents the same truncation silently.
	plain := v.Dense(10)
	for i := range out {
		if plain[i] != out[i] {
			t.Fatalf("Dense and DenseChecked disagree at %d", i)
		}
	}
	if full, dropped := v.DenseChecked(51); dropped != 0 || full[50] != 0.9 {
		t.Fatalf("DenseChecked(51) dropped=%d full[50]=%v, want 0, 0.9", dropped, full[50])
	}
}

package sparse

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
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

// encodeVector encodes v as a record payload, sorted by ascending node id,
// the layout ppvindex writes to disk.
func encodeVector(v Vector) []byte { return AppendEncoded(nil, v.AppendSorted(nil)) }

// stored is what an encoded entry gives back for x: x with an 11-bit
// mantissa, rounded toward zero (StoredScore).
func stored(x float64) float64 { return StoredScore(x) }

// storedVector is v with every score replaced by its stored value.
func storedVector(v Vector) Vector {
	out := New(len(v))
	for id, s := range v {
		out[id] = stored(s)
	}
	return out
}

// TestEncodedEntryRoundTrip pins the entry layout: a uvarint gap (the id
// itself first, then id − previous stored id − 1) and the 16-bit score code,
// and checks that the payload decodes back, the largest id included, without
// the entry whose score rounds to zero.
func TestEncodedEntryRoundTrip(t *testing.T) {
	entries := []Entry{{7, 0.125}, {8, 0.5}, {9, 1e-12}, {300, 1}, {math.MaxInt32, 0.75}}
	buf := AppendEncoded(nil, entries)
	want := []byte{
		7, 0x00, 0xe0, // gap 7, 0.125 = 2^(28−31): code 28<<11
		0, 0x00, 0xf0, // gap 0, 0.5: code 30<<11
		0xa3, 0x02, 0x00, 0xf8, // gap 291 from node 8 (node 9 is not stored), 1: code 31<<11
		0xd2, 0xfd, 0xff, 0xff, 0x07, 0x00, 0xf4, // gap 2³¹−302, 0.75: code 30<<11 | 1<<10
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("encoded % x, want % x", buf, want)
	}
	kept := slices.Delete(slices.Clone(entries), 2, 3)
	if n := EncodedLen(buf); n != len(kept) {
		t.Fatalf("EncodedLen = %d, want %d", n, len(kept))
	}
	r := NewEncodedReader(buf)
	for i, e := range kept {
		if id, s, ok := r.Next(); !ok || id != e.Node || s != e.Score {
			t.Fatalf("entry %d = (%d, %v, %v), want (%d, %v)", i, id, s, ok, e.Node, e.Score)
		}
	}
	if _, _, ok := r.Next(); ok || r.Err() != nil {
		t.Fatalf("past the last entry: ok %v, err %v", ok, r.Err())
	}
}

// TestEncodedReaderRefusesMalformed: every malformed payload stops the reader
// with an error wrapping ErrBadEncoding, after the entries before it.
func TestEncodedReaderRefusesMalformed(t *testing.T) {
	score := []byte{0x00, 0xf0}
	for name, c := range map[string]struct {
		data []byte
		good int
	}{
		"gap cut off":         {[]byte{0x80}, 0},
		"gap over 5 bytes":    {append([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, score...), 0},
		"gap not minimal":     {append([]byte{0x85, 0x00}, score...), 0},
		"id past int32":       {append(append([]byte{5}, score...), append([]byte{0xff, 0xff, 0xff, 0xff, 0x07}, score...)...), 1},
		"id past uint32":      {append([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}, score...), 0},
		"score cut off":       {append(append([]byte{5}, score...), 1, 0), 1},
		"two-byte gap cut":    {append(append([]byte{5}, score...), 0x81, 0x01, 0), 1},
		"trailing byte":       {append(append([]byte{5}, score...), 1), 1},
		"out of order ids":    {encodeEntries(Entry{Node: 9, Score: 1}, Entry{Node: 5, Score: 1}), 1},
		"repeated id":         {encodeEntries(Entry{Node: 5, Score: 1}, Entry{Node: 5, Score: 1}), 1},
		"negative first node": {encodeEntries(Entry{Node: -1, Score: 1}), 0},
	} {
		r := NewEncodedReader(c.data)
		n := 0
		for _, _, ok := r.Next(); ok; _, _, ok = r.Next() {
			n++
		}
		if n != c.good || !errors.Is(r.Err(), ErrBadEncoding) {
			t.Errorf("%s: %d entries then %v; want %d then ErrBadEncoding", name, n, r.Err(), c.good)
		}
		if got := len(AppendDecoded(nil, c.data)); got != c.good {
			t.Errorf("%s: AppendDecoded kept %d entries, want %d", name, got, c.good)
		}
	}
}

// TestStoredScoreRoundsTowardZero holds the soundness contract of the record
// encoding: a stored score is never above the pushed one and is the largest
// code's score that is not, so it loses less than 2⁻¹¹ of it; a score of 1 or
// more is stored as 1, one below 2⁻³¹ (zero, negative or NaN) is not stored;
// and re-encoding a stored score is the identity.
func TestStoredScoreRoundsTowardZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := []float64{0, 1, 0.15, 0.1, 1.0 / 3, 1e-300, 0x1p-31, math.Nextafter(0x1p-31, 0), 1.5, 1e300, math.Inf(1), -0.1, -1e300, math.NaN()}
	for i := 0; i < 10000; i++ {
		xs = append(xs, rng.Float64(), math.Ldexp(rng.Float64(), -rng.Intn(40)))
	}
	for _, x := range xs {
		got := StoredScore(x)
		switch {
		case !(x >= 0x1p-31):
			if got != 0 || len(AppendEncoded(nil, []Entry{{Node: 1, Score: x}})) != 0 {
				t.Fatalf("StoredScore(%v) = %v, want it not stored", x, got)
			}
			continue
		case x >= 1:
			if got != 1 {
				t.Fatalf("StoredScore(%v) = %v, want 1", x, got)
			}
		case got > x || x-got >= x*0x1p-11:
			t.Fatalf("StoredScore(%v) = %v, not toward zero within 2⁻¹¹ of it", x, got)
		}
		c, _ := scoreCode(x)
		if c < maxScoreCode && codeScore(c+1) <= x {
			t.Fatalf("StoredScore(%v) = %v, but %v is closer and still not above", x, got, codeScore(c+1))
		}
		if again := StoredScore(got); again != got {
			t.Fatalf("re-encoding %v gave %v", got, again)
		}
		r := NewEncodedReader(AppendEncoded(nil, []Entry{{Node: 1, Score: x}}))
		if _, s, _ := r.Next(); math.Float64bits(s) != math.Float64bits(got) {
			t.Fatalf("entry of %v decodes to %v, want %v", x, s, got)
		}
	}
}

// TestScoreCodesSortLikeScores: every code decodes to a finite positive
// score, in the order of the codes, and the codes up to 1.0's encode back to
// themselves.
func TestScoreCodesSortLikeScores(t *testing.T) {
	prev := 0.0
	for c := 0; c <= math.MaxUint16; c++ {
		s := codeScore(uint16(c))
		if !(s > prev) || math.IsInf(s, 0) {
			t.Fatalf("code %#x decodes to %v, not above code %#x's %v", c, s, c-1, prev)
		}
		if back, ok := scoreCode(s); c <= maxScoreCode && (!ok || int(back) != c) {
			t.Fatalf("code %#x decodes to %v, which encodes to %#x", c, s, back)
		}
		prev = s
	}
	if codeScore(0) != 0x1p-31 || codeScore(maxScoreCode) != 1 {
		t.Fatalf("codes 0 and %#x decode to %v and %v, want 2⁻³¹ and 1", maxScoreCode, codeScore(0), codeScore(maxScoreCode))
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
	back := FromEntries(acc.Entries())
	if back.L1Distance(v) != 0 {
		t.Fatalf("ToVector round trip distance = %v", back.L1Distance(v))
	}

	acc2 := &Accumulator{}
	acc2.SetEncoded(encodeVector(v))
	if FromEntries(acc2.Entries()).L1Distance(storedVector(v)) != 0 {
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
			// The encoded path folds stored scores; so does the reference.
			hubPPV = storedVector(hubPPV)
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
			got := FromEntries(acc.Entries())
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
	if got := FromEntries(a.Entries()); got.L1Distance(want) != 0 {
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
	if got := FromEntries(a.Entries()); got.L1Distance(want) != 0 {
		t.Fatalf("adding empty accumulator changed contents")
	}
}

func TestAccumulatorExtensionSelfCorrection(t *testing.T) {
	const alpha = 0.15
	// Owner entry exactly alpha: the corrected score is zero and the entry
	// must be dropped, not stored as an explicit zero.
	acc := &Accumulator{}
	foldEncoded(acc, encodeVector(Vector{4: alpha, 7: 0.5}), 2, 4, alpha)
	if got := FromEntries(acc.Entries()); got.Get(4) != 0 || got.Get(7) != 1.0 || len(got) != 1 {
		t.Fatalf("self-correction drop: got %v, want {7:1}", got)
	}
	// Owner absent from the record: no correction applies.
	acc.Reset()
	foldEncoded(acc, encodeVector(Vector{7: 0.5}), 1, 4, alpha)
	if got := FromEntries(acc.Entries()); got.Get(7) != 0.5 || len(got) != 1 {
		t.Fatalf("no-self-entry: got %v, want {7:0.5}", got)
	}
	// Owner entry above alpha: the corrected stored score survives, and it
	// is at most the corrected exact one.
	acc.Reset()
	foldEncoded(acc, encodeVector(Vector{4: alpha + 0.25}), 1, 4, alpha)
	if got, want := FromEntries(acc.Entries()).Get(4), stored(alpha+0.25)-alpha; got != want || got > 0.25 {
		t.Fatalf("self-correction keep: got %v, want %v (<= 0.25)", got, want)
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
	if got := FromEntries(acc.Entries()); len(got) != 1 || got.Get(8) != 0.5 {
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
	for i := range dense {
		if got := v.Get(graph.NodeID(i)); got != dense[i] {
			t.Fatalf("round trip mismatch at %d: %v != %v", i, got, dense[i])
		}
	}
}

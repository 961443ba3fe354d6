package sparse

import (
	"math"
	"testing"

	"fastppv/internal/graph"
)

// encodeEntries builds an encoded record payload from (id, score) entries,
// which must be given in ascending id order (as the disk index writes them).
func encodeEntries(entries ...Entry) []byte { return AppendEncoded(nil, entries) }

// foldEncoded folds one record into a by itself: stage it, then Combine. A
// sequence of foldEncoded calls is the hub-by-hub merge that staging many
// records before one Combine must reproduce bit for bit.
func foldEncoded(a *Accumulator, data []byte, scale float64, owner graph.NodeID, alpha float64) {
	a.StageEncodedExtension(data, scale, owner, alpha)
	a.Combine()
}

// TestAccumulateEmptyEncodedExtension checks that an empty record is a
// no-op, on empty and non-empty accumulators alike.
func TestAccumulateEmptyEncodedExtension(t *testing.T) {
	var a Accumulator
	a.SetVector(Vector{3: 0.5, 7: 0.25})
	before := append([]Entry(nil), a.Entries()...)

	foldEncoded(&a, nil, 0.5, 3, 0.2)
	foldEncoded(&a, []byte{}, 0.5, 3, 0.2)

	got := a.Entries()
	if len(got) != len(before) {
		t.Fatalf("empty extension changed entry count: %d != %d", len(got), len(before))
	}
	for i := range before {
		if got[i] != before[i] {
			t.Fatalf("entry %d changed: %+v != %+v", i, got[i], before[i])
		}
	}

	var empty Accumulator
	foldEncoded(&empty, nil, 1, 0, 0.2)
	if empty.Len() != 0 {
		t.Fatalf("empty extension on empty accumulator produced %d entries", empty.Len())
	}
}

// TestSingleNodeVectorExtension drives the owner self-loop correction on the
// smallest possible record: a hub whose prime PPV holds only itself. The
// corrected score alpha - alpha = 0 falls below the extension epsilon, so the
// entry must vanish entirely rather than survive as an explicit zero.
func TestSingleNodeVectorExtension(t *testing.T) {
	const alpha = 0.2
	owner := graph.NodeID(5)
	rec := encodeEntries(Entry{Node: owner, Score: alpha})

	var a Accumulator
	foldEncoded(&a, rec, 1.0, owner, alpha)
	if a.Len() != 0 {
		t.Fatalf("self-only record left %d entries, want 0", a.Len())
	}

	// A single non-owner node must survive with the scaled score.
	other := encodeEntries(Entry{Node: 9, Score: 0.5})
	foldEncoded(&a, other, 0.5, owner, alpha)
	if a.Len() != 1 || a.Get(9) != 0.25 {
		t.Fatalf("single-node record: got %d entries, score %v; want 1 entry of 0.25", a.Len(), a.Get(9))
	}
}

// TestDuplicateIDStagingOrder stages two records sharing a node and checks
// that Combine folds the duplicates in staging order, bit-identically to
// folding the same records one at a time — the reproducibility contract
// Combine documents.
func TestDuplicateIDStagingOrder(t *testing.T) {
	const alpha = 0.2
	// Scores chosen so floating-point addition order is observable.
	recA := encodeEntries(Entry{Node: 4, Score: 0.1}, Entry{Node: 8, Score: 1e-17})
	recB := encodeEntries(Entry{Node: 4, Score: 0.3}, Entry{Node: 8, Score: 1.0})

	var staged Accumulator
	staged.StageEncodedExtension(recA, 1.0, 1, alpha)
	staged.StageEncodedExtension(recB, 1.0, 2, alpha)
	staged.Combine()

	var seq Accumulator
	foldEncoded(&seq, recA, 1.0, 1, alpha)
	foldEncoded(&seq, recB, 1.0, 2, alpha)

	if staged.Len() != seq.Len() {
		t.Fatalf("staged path kept %d entries, sequential %d", staged.Len(), seq.Len())
	}
	se, qe := staged.Entries(), seq.Entries()
	for i := range qe {
		if se[i].Node != qe[i].Node || math.Float64bits(se[i].Score) != math.Float64bits(qe[i].Score) {
			t.Fatalf("entry %d: staged (%d, %x) != sequential (%d, %x)",
				i, se[i].Node, math.Float64bits(se[i].Score), qe[i].Node, math.Float64bits(qe[i].Score))
		}
	}
	if got, want := staged.Get(4), stored(0.1)+stored(0.3); got != want {
		t.Fatalf("duplicate node folded to %v, want %v", got, want)
	}
}

// TestFromDenseZeroHint covers FromDense on nil and zero-length input and
// confirms explicit zeros are dropped rather than stored.
func TestFromDenseZeroHint(t *testing.T) {
	if v := FromDense(nil); len(v) != 0 {
		t.Fatalf("FromDense(nil) has %d entries", len(v))
	}
	if v := FromDense([]float64{}); len(v) != 0 {
		t.Fatalf("FromDense(empty) has %d entries", len(v))
	}
	v := FromDense([]float64{0, 0.5, 0, 0.25})
	if len(v) != 2 || v[1] != 0.5 || v[3] != 0.25 {
		t.Fatalf("FromDense dropped or misplaced entries: %v", v)
	}
	if _, ok := v[0]; ok {
		t.Fatal("FromDense stored an explicit zero")
	}
}

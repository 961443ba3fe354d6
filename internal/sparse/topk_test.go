package sparse

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"fastppv/internal/graph"
)

func TestTopKBasic(t *testing.T) {
	v := Vector{1: 0.4, 2: 0.1, 3: 0.3, 4: 0.2}
	top := v.TopK(2)
	if len(top) != 2 || top[0].Node != 1 || top[1].Node != 3 {
		t.Errorf("TopK(2) = %v, want nodes [1 3]", top)
	}
	nodes := v.TopKNodes(3)
	want := []graph.NodeID{1, 3, 4}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("TopKNodes(3) = %v, want %v", nodes, want)
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	var empty Vector
	if got := empty.TopK(5); got != nil {
		t.Errorf("TopK on empty vector = %v, want nil", got)
	}
	v := Vector{7: 1}
	if got := v.TopK(0); got != nil {
		t.Errorf("TopK(0) = %v, want nil", got)
	}
	if got := v.TopK(10); len(got) != 1 {
		t.Errorf("TopK(k > len) = %v, want the single entry", got)
	}
}

func TestTopKTieBreaking(t *testing.T) {
	v := Vector{9: 0.5, 3: 0.5, 6: 0.5}
	nodes := v.TopKNodes(2)
	// Equal scores: lower node ids win, deterministically.
	if nodes[0] != 3 || nodes[1] != 6 {
		t.Errorf("tie-broken TopK = %v, want [3 6]", nodes)
	}
}

// TestTopKQuickMatchesFullSort property-tests that the heap-based TopK agrees
// with sorting all entries.
func TestTopKQuickMatchesFullSort(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		v := New(len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v.Set(graph.NodeID(i), math.Abs(math.Mod(x, 1000)))
		}
		k := int(kRaw%40) + 1
		got := v.TopK(k)

		all := v.Entries()
		sort.SliceStable(all, func(i, j int) bool {
			if all[i].Score != all[j].Score {
				return all[i].Score > all[j].Score
			}
			return all[i].Node < all[j].Node
		})
		want := all
		if k < len(all) {
			want = all[:k]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTopKEntriesMatchesVectorTopK property-tests that the slice form selects
// exactly what the map form does — same entries in the same order, bit for
// bit, both equal to a prefix of a full sort — on random vectors whose scores
// come from four values, so ties are the rule, for k at and around the edges.
// For k >= len that is every entry in the order of Vector.Entries, and the
// slice form never writes to its input (render selects over a cached estimate
// other requests are reading).
func TestTopKEntriesMatchesVectorTopK(t *testing.T) {
	f := func(ids []uint16, levels []uint8) bool {
		v := New(len(ids))
		for i, id := range ids {
			level := uint8(i)
			if i < len(levels) {
				level = levels[i]
			}
			v[graph.NodeID(id)] = float64(level%4+1) / 8
		}
		entries := v.AppendSorted(nil)
		before := slices.Clone(entries)
		ranked := slices.Clone(entries)
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].Score != ranked[j].Score {
				return ranked[i].Score > ranked[j].Score
			}
			return ranked[i].Node < ranked[j].Node
		})
		n := len(entries)
		for _, k := range []int{0, 1, n - 1, n, n + 1} {
			want := ranked[:min(max(k, 0), n)]
			got := TopKEntries(entries, k)
			if !slices.Equal(got, want) || !slices.Equal(v.TopK(k), want) {
				return false
			}
			if k >= n && !slices.Equal(got, v.Entries()) {
				return false
			}
		}
		return slices.Equal(entries, before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// topKFullCompare is TopKEntries' selection without the score-only reject:
// every entry past the first k is compared with the heap root by the full
// rank order. TestTopKScoreRejectMatchesFullCompare holds the two equal.
func topKFullCompare(entries []Entry, k int) []Entry {
	if k >= len(entries) {
		out := slices.Clone(entries)
		slices.SortFunc(out, rankCompare)
		return out
	}
	var h entryMinHeap
	for _, e := range entries {
		if len(h) < k {
			h = append(h, e)
			h.up(len(h) - 1)
		} else if entryLess(h[0], e) {
			h[0] = e
			h.down(0)
		}
	}
	slices.SortFunc(h, rankCompare)
	return h
}

// TestTopKScoreRejectMatchesFullCompare property-tests the reject on score
// alone: over entries in any order whose scores come from a few values — so
// ties are the rule — and include NaN, both zeros and both infinities, the
// selection and its order are bit for bit those of the full compare. A NaN
// never orders below anything, so only a negated comparison keeps this.
func TestTopKScoreRejectMatchesFullCompare(t *testing.T) {
	levels := []float64{math.NaN(), 0, math.Copysign(0, -1), 0.25, 0.5, 0.5, 1, math.Inf(1), math.Inf(-1)}
	same := func(a, b []Entry) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
				return false
			}
		}
		return true
	}
	f := func(ids []uint16, picks []uint8, kRaw uint8) bool {
		seen := make(map[uint16]bool, len(ids))
		var entries []Entry
		for i, id := range ids {
			if seen[id] {
				continue
			}
			seen[id] = true
			pick := uint8(i)
			if i < len(picks) {
				pick = picks[i]
			}
			entries = append(entries, Entry{Node: graph.NodeID(id), Score: levels[int(pick)%len(levels)]})
		}
		for _, k := range []int{1, int(kRaw%12) + 1, len(entries) - 1} {
			if k <= 0 {
				continue
			}
			if !same(TopKEntries(entries, k), topKFullCompare(entries, k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

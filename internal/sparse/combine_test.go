package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"fastppv/internal/graph"
)

// stagedRecord is one StageEncodedExtension call: an encoded record payload,
// its scale and its owner hub.
type stagedRecord struct {
	data  []byte
	scale float64
	owner graph.NodeID
}

const combineAlpha = 0.15

// stageAll stages every record into a, in order.
func stageAll(a *Accumulator, recs []stagedRecord) {
	for _, r := range recs {
		a.StageEncodedExtension(r.data, r.scale, r.owner, combineAlpha)
	}
}

// referenceCombine is the fold Combine must reproduce bit for bit: flatten the
// records with the Theorem 4 owner correction, stable-sort by node id, sum
// duplicates left to right, then add each folded score to prior's.
func referenceCombine(prior []Entry, recs []stagedRecord) []Entry {
	var flat []Entry
	for _, r := range recs {
		for _, e := range AppendDecoded(nil, r.data) {
			node, score := e.Node, e.Score
			if node == r.owner {
				score -= combineAlpha
				if score <= extensionEpsilon {
					continue
				}
			}
			flat = append(flat, Entry{Node: node, Score: r.scale * score})
		}
	}
	sort.SliceStable(flat, func(i, j int) bool { return flat[i].Node < flat[j].Node })
	var folded []Entry
	for _, e := range flat {
		if n := len(folded); n > 0 && folded[n-1].Node == e.Node {
			folded[n-1].Score += e.Score
		} else {
			folded = append(folded, e)
		}
	}
	byNode := make(map[graph.NodeID]int, len(prior))
	out := append([]Entry(nil), prior...)
	for i, e := range out {
		byNode[e.Node] = i
	}
	for _, e := range folded {
		if i, ok := byNode[e.Node]; ok {
			out[i].Score += e.Score
		} else {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// sameBits fails t unless got and want hold the same nodes with bit-identical
// scores. Any two NaNs count as the same: which NaN operand's payload a sum
// of two NaNs keeps depends on the operand order the compiler emits, and no
// stored record holds a NaN (the index refuses them).
func sameBits(t testing.TB, label string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i := range want {
		bothNaN := math.IsNaN(got[i].Score) && math.IsNaN(want[i].Score)
		if got[i].Node != want[i].Node || !bothNaN && math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: entry %d is (%d, %x), want (%d, %x)", label, i,
				got[i].Node, math.Float64bits(got[i].Score), want[i].Node, math.Float64bits(want[i].Score))
		}
	}
}

// randomRecords draws k records over nodes [0, universe): each strictly
// ascending, some empty, the owner present in about half with a score that
// the self-correction either keeps or drops, and — when corrupt is set — one
// record encoded out of order, which decodes up to its first wrapped gap.
// Scores span many magnitudes so that the order of floating-point additions
// shows in the bits.
func randomRecords(rng *rand.Rand, k, maxLen, universe int, corrupt bool) []stagedRecord {
	recs := make([]stagedRecord, k)
	for i := range recs {
		owner := graph.NodeID(rng.Intn(universe))
		n := rng.Intn(maxLen + 1)
		if rng.Intn(5) == 0 {
			n = 0
		}
		nodes := map[graph.NodeID]bool{}
		for len(nodes) < n && len(nodes) < universe {
			nodes[graph.NodeID(rng.Intn(universe))] = true
		}
		if n > 0 && rng.Intn(2) == 0 {
			nodes[owner] = true
		}
		entries := make([]Entry, 0, len(nodes))
		for node := range nodes {
			score := rng.Float64() * math.Pow(10, -float64(rng.Intn(18)))
			if node == owner {
				// At, just above, or well above alpha: dropped, dropped
				// below epsilon, or kept.
				score = combineAlpha + []float64{0, 1e-16, 0.3}[rng.Intn(3)]
			}
			entries = append(entries, Entry{Node: node, Score: score})
		}
		sort.Slice(entries, func(a, b int) bool { return entries[a].Node < entries[b].Node })
		if corrupt && i == 0 {
			rng.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
		}
		recs[i] = stagedRecord{data: encodeEntries(entries...), scale: 0.5 + rng.Float64(), owner: owner}
	}
	return recs
}

// TestCombineMatchesReferenceFolds checks, over seeded random records, that
// Combine equals the stable-sort-then-left-fold reference bit for bit — from
// an empty accumulator and from a non-empty one, on well-formed and corrupt
// records alike — and that on an empty accumulator it also equals folding the
// records in one hub at a time, as the engine relies on.
func TestCombineMatchesReferenceFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var a Accumulator
	for trial := 0; trial < 2000; trial++ {
		k := []int{0, 1, 2, 3, rng.Intn(16)}[rng.Intn(5)]
		universe := 1 + rng.Intn(60)
		corrupt := rng.Intn(4) == 0
		recs := randomRecords(rng, k, 1+rng.Intn(40), universe, corrupt)

		a.Reset()
		stageAll(&a, recs)
		a.Combine()
		sameBits(t, "from empty vs reference", a.Entries(), referenceCombine(nil, recs))

		var seq Accumulator
		for _, r := range recs {
			foldEncoded(&seq, r.data, r.scale, r.owner, combineAlpha)
		}
		sameBits(t, "from empty vs hub by hub", a.Entries(), seq.Entries())

		prior := randomVector(rng, universe, rng.Intn(universe+1))
		a.Reset()
		a.SetVector(prior)
		priorEntries := append([]Entry(nil), a.Entries()...)
		stageAll(&a, recs)
		a.Combine()
		sameBits(t, "onto prior vs reference", a.Entries(), referenceCombine(priorEntries, recs))
	}
}

// TestCombineRunBoundaries stages records whose ids continue, repeat and go
// down across records, and checks the fold against the reference. A record
// decodes strictly ascending, so runs only split between records.
func TestCombineRunBoundaries(t *testing.T) {
	rec := func(ids ...graph.NodeID) stagedRecord {
		entries := make([]Entry, len(ids))
		for i, id := range ids {
			entries[i] = Entry{Node: id, Score: 1 / float64(3+int(id)+i)}
		}
		return stagedRecord{data: encodeEntries(entries...), scale: 1, owner: -1}
	}
	for _, recs := range [][]stagedRecord{
		{rec(1, 2), rec(3, 4)},                   // one run across two records
		{rec(1, 2), rec(2, 3)},                   // a repeat at the record boundary
		{rec(5, 6), rec(1, 2), rec(0)},           // each record a run
		{rec(4), rec(3), rec(2), rec(1), rec(0)}, // five records, five runs
		{rec(2), rec(2), rec(2), rec(1)},         // one id repeated across records
		{rec(), rec(7), rec(), rec(7)},           // empty records between
		{rec(1, 9), rec(5), rec(3, 10)},          // descending between records
		{rec(4, 3), rec(2, 2), rec(1)},           // records encoded out of order: their prefixes

	} {
		var a Accumulator
		stageAll(&a, recs)
		a.Combine()
		sameBits(t, "boundaries", a.Entries(), referenceCombine(nil, recs))
	}
}

// benchRecords is the shape of one hub-source Step on the disk benchmark: two
// records of 4 300 entries and seven of 50 over 60 000 nodes, staged in owner
// order, each owner holding its own entry.
func benchRecords() []stagedRecord {
	rng := rand.New(rand.NewSource(1))
	var recs []stagedRecord
	for i := 0; i < 9; i++ {
		n := 50
		if i == 2 || i == 6 {
			n = 4300
		}
		ids := rng.Perm(60_000)[:n]
		sort.Ints(ids)
		owner := graph.NodeID(ids[rng.Intn(n)])
		entries := make([]Entry, n)
		for j, id := range ids {
			entries[j] = Entry{Node: graph.NodeID(id), Score: rng.Float64() * 1e-3}
			if entries[j].Node == owner {
				entries[j].Score += combineAlpha
			}
		}
		recs = append(recs, stagedRecord{data: encodeEntries(entries...), scale: 1 + rng.Float64(), owner: owner})
	}
	return recs
}

// TestCombineAllocatesNothingWarm holds Combine to zero allocations once the
// accumulator's buffers have grown: its merge buffers are the accumulator's.
func TestCombineAllocatesNothingWarm(t *testing.T) {
	recs := benchRecords()
	var a Accumulator
	stageAll(&a, recs)
	a.Combine()
	allocs := testing.AllocsPerRun(20, func() {
		a.Reset()
		stageAll(&a, recs)
		a.Combine()
	})
	if allocs != 0 {
		t.Fatalf("Stage and Combine on a warm accumulator: %v allocations, want 0", allocs)
	}
}

// BenchmarkCombine stages and folds the records of one hub-source Step.
func BenchmarkCombine(b *testing.B) {
	recs := benchRecords()
	entries := 0
	for _, r := range recs {
		entries += EncodedLen(r.data)
	}
	var a Accumulator
	b.ReportAllocs()
	for b.Loop() {
		a.Reset()
		stageAll(&a, recs)
		a.Combine()
	}
	b.ReportMetric(float64(entries), "entries/op")
}

// BenchmarkEncodedReader decodes one record of 20 000 entries whose gaps take
// one byte (15 %) or two (85 %), the mix that gives the bench graph's records
// their 1.85 bytes of gap an entry: the inline one- and two-byte paths of
// EncodedReader.Next.
func BenchmarkEncodedReader(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	entries := make([]Entry, 20_000)
	id := 0
	for i := range entries {
		if rng.Intn(100) < 15 {
			id += 1 + rng.Intn(127)
		} else {
			id += 128 + rng.Intn(2000)
		}
		entries[i] = Entry{Node: graph.NodeID(id), Score: rng.Float64() * 1e-2}
	}
	data := AppendEncoded(nil, entries)
	dst := make([]Entry, 0, len(entries))
	for b.Loop() {
		dst = AppendDecoded(dst[:0], data)
	}
	b.ReportMetric(float64(len(data))/float64(len(dst)), "bytes/entry")
}

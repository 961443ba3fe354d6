// accumulator.go implements the flat sorted-slice accumulator of the query
// inner loop. The online stage of FastPPV (Sect. 5) repeatedly folds scaled
// prime PPVs into a running estimate. A prime PPV has one stored form, the
// flat record encoding below (12 bytes an entry, ascending node id), written
// by AppendEncoded; the Accumulator folds such payloads with linear merges
// into a []Entry sorted by node id. No map is built between the prime push
// and the estimate; results become a map-based Vector only at the API boundary.
package sparse

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"fastppv/internal/graph"
)

// EncodedEntrySize is the size of one (node, score) entry in the flat record
// encoding shared with the on-disk index format: node id as uint32 followed
// by the IEEE-754 bits of the score as uint64, both little-endian. Entries in
// an encoded record are sorted by ascending node id.
const EncodedEntrySize = 12

// PutEncodedEntry writes one encoded entry at the start of b, which must be
// at least EncodedEntrySize bytes long.
func PutEncodedEntry(b []byte, id graph.NodeID, score float64) {
	binary.LittleEndian.PutUint32(b[0:4], uint32(id))
	binary.LittleEndian.PutUint64(b[4:12], math.Float64bits(score))
}

// AppendEncoded appends the flat record encoding of entries to dst: the one
// encoder of hub-record payloads. Entries must be in strictly ascending node
// order, as the prime push emits them; they are written as they come.
func AppendEncoded(dst []byte, entries []Entry) []byte {
	at := len(dst)
	dst = slices.Grow(dst, len(entries)*EncodedEntrySize)[:at+len(entries)*EncodedEntrySize]
	for _, e := range entries {
		PutEncodedEntry(dst[at:], e.Node, e.Score)
		at += EncodedEntrySize
	}
	return dst
}

// EncodedEntryAt decodes the i-th entry of an encoded record payload.
func EncodedEntryAt(b []byte, i int) (graph.NodeID, float64) {
	off := i * EncodedEntrySize
	id := graph.NodeID(binary.LittleEndian.Uint32(b[off : off+4]))
	score := math.Float64frombits(binary.LittleEndian.Uint64(b[off+4 : off+12]))
	return id, score
}

// extensionEpsilon is the threshold below which the self-loop-corrected score
// of a hub's own entry is dropped from its extension vector.
const extensionEpsilon = 1e-15

// Accumulator is a sparse score vector stored as a slice of entries sorted by
// ascending node id, the working form of the query loop: merges are linear scans, the deterministic ordered sum is a plain
// loop (entries are already in ascending node order), and no per-hub maps or
// clones are allocated. An Accumulator is not safe for concurrent use.
//
// The zero value is ready to use; Reset makes an instance reusable without
// releasing its backing storage, which is what makes pooling effective.
type Accumulator struct {
	entries []Entry // invariant: sorted by ascending Node, no duplicates
	scratch []Entry // merge destination, swapped with entries after each fold
	tmp     []Entry // Combine folds the sorted staged entries into here
	staged  []Entry // contributions staged by Stage* since the last Combine
}

// Reset truncates the accumulator to empty, retaining capacity.
func (a *Accumulator) Reset() {
	a.entries = a.entries[:0]
	a.scratch = a.scratch[:0]
	a.tmp = a.tmp[:0]
	a.staged = a.staged[:0]
}

// Len returns the number of stored entries.
func (a *Accumulator) Len() int { return len(a.entries) }

// Entries returns the backing entry slice, sorted by ascending node id. The
// slice aliases the accumulator's storage and is invalidated by the next
// mutating call; callers must not modify or retain it.
func (a *Accumulator) Entries() []Entry { return a.entries }

// Get returns the score of id (zero when absent) via binary search.
func (a *Accumulator) Get(id graph.NodeID) float64 {
	i := sort.Search(len(a.entries), func(i int) bool { return a.entries[i].Node >= id })
	if i < len(a.entries) && a.entries[i].Node == id {
		return a.entries[i].Score
	}
	return 0
}

// SetVector replaces the accumulator's contents with the entries of v. It and
// StageVectorExtension serve callers holding a decoded map (the bench
// harness); the engine sets and stages encoded payloads only.
func (a *Accumulator) SetVector(v Vector) { a.entries = v.AppendSorted(a.entries[:0]) }

// SetEntries replaces the accumulator's contents with a copy of entries, which
// must already be sorted by strictly ascending node id (as the prime push
// emits them) — no sort happens here.
func (a *Accumulator) SetEntries(entries []Entry) {
	a.entries = append(a.entries[:0], entries...)
}

// SetEncoded replaces the accumulator's contents with the entries of an
// encoded record payload (len(data) must be a multiple of EncodedEntrySize;
// entries must be sorted by ascending node id, as written by the index).
func (a *Accumulator) SetEncoded(data []byte) {
	n := len(data) / EncodedEntrySize
	if cap(a.entries) < n {
		a.entries = make([]Entry, 0, n)
	}
	a.entries = a.entries[:0]
	for i := 0; i < n; i++ {
		id, s := EncodedEntryAt(data, i)
		a.entries = append(a.entries, Entry{Node: id, Score: s})
	}
}

// Sum returns the total mass, accumulating in ascending node order. Because
// entries are kept sorted, this is the same floating-point result as
// Vector.SumOrdered over an equal vector — the byte-reproducibility contract
// of the serving error bound — without the sort.
func (a *Accumulator) Sum() float64 {
	var total float64
	for i := range a.entries {
		total += a.entries[i].Score
	}
	return total
}

// ToVector materializes the accumulator as a public map-based Vector.
func (a *Accumulator) ToVector() Vector { return FromEntries(a.entries) }

// AddAccumulator folds other into a entry-wise (a += other) with a single
// linear merge. It is the sorted-slice analogue of Vector.AddVector.
func (a *Accumulator) AddAccumulator(other *Accumulator) { a.merge(other.entries) }

// AddSorted folds a sparse vector held as parallel slices — strictly
// ascending node ids and their scores, the wire form of api.Vector as the
// frame decoder guarantees it — into a with one linear merge: no map is built
// between a shard's reply and the router's estimate.
func (a *Accumulator) AddSorted(nodes []graph.NodeID, scores []float64) {
	tmp := a.tmp[:0]
	for i, id := range nodes {
		tmp = append(tmp, Entry{Node: id, Score: scores[i]})
	}
	a.tmp = tmp
	a.merge(tmp)
}

// merge folds other — sorted by ascending node id, no duplicates, not
// aliasing a.scratch — into the entries: a node present on both sides becomes
// one entry holding a's score plus other's, in that order.
func (a *Accumulator) merge(other []Entry) {
	if len(other) == 0 {
		return
	}
	if len(a.entries) == 0 {
		a.entries = append(a.entries[:0], other...)
		return
	}
	out := a.scratch[:0]
	i := 0
	for _, e := range other {
		for i < len(a.entries) && a.entries[i].Node < e.Node {
			out = append(out, a.entries[i])
			i++
		}
		if i < len(a.entries) && a.entries[i].Node == e.Node {
			out = append(out, Entry{Node: e.Node, Score: a.entries[i].Score + e.Score})
			i++
		} else {
			out = append(out, e)
		}
	}
	out = append(out, a.entries[i:]...)
	a.entries, a.scratch = out, a.entries
}

// StageEncodedExtension appends scale times the extension vector of an
// encoded hub record to the staging buffer without merging: a Step expands
// many hubs, and merging each record into the growing increment immediately
// costs O(|increment|) per hub. Staging is O(|record|) per hub; Combine then
// folds everything staged with one stable sort. The Theorem 4 self-loop
// correction is applied here: the owner hub's own entry contributes
// (score − alpha) — an extension through a hub must advance the walk by at
// least one edge, or tours ending at the hub would be counted twice across
// consecutive iterations — and is dropped entirely when the corrected score
// falls below a small epsilon.
//
// Callers must stage hubs in ascending owner order and call Combine before
// reading the accumulator: the stable sort keys on node id only, so the
// per-node contribution order (and with it bit-reproducibility against the
// sequential merge) is the staging order.
func (a *Accumulator) StageEncodedExtension(data []byte, scale float64, owner graph.NodeID, alpha float64) {
	n := len(data) / EncodedEntrySize
	for j := 0; j < n; j++ {
		node, score := EncodedEntryAt(data, j)
		if node == owner {
			score -= alpha
			if score <= extensionEpsilon {
				continue
			}
		}
		a.staged = append(a.staged, Entry{Node: node, Score: scale * score})
	}
}

// StageVectorExtension is StageEncodedExtension for a map-based prime PPV:
// sort, encode, stage.
func (a *Accumulator) StageVectorExtension(v Vector, scale float64, owner graph.NodeID, alpha float64) {
	a.StageEncodedExtension(AppendEncoded(nil, v.AppendSorted(nil)), scale, owner, alpha)
}

// Combine folds every staged contribution into the accumulator. Duplicated
// nodes are summed in staging order (stable sort), which reproduces the
// floating-point addition sequence of merging the staged hubs one at a time —
// the bit-reproducibility contract — at O(E log E) for E staged entries
// instead of O(hubs x |accumulator|).
func (a *Accumulator) Combine() {
	if len(a.staged) == 0 {
		return
	}
	sort.SliceStable(a.staged, func(i, j int) bool { return a.staged[i].Node < a.staged[j].Node })
	folded := a.tmp[:0]
	cur := a.staged[0]
	for _, e := range a.staged[1:] {
		if e.Node == cur.Node {
			cur.Score += e.Score
		} else {
			folded = append(folded, cur)
			cur = e
		}
	}
	folded = append(folded, cur)
	a.tmp = folded
	a.staged = a.staged[:0]

	a.merge(folded)
}

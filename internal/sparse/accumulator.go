// accumulator.go implements the flat sorted-slice accumulator of the query
// inner loop. The online stage of FastPPV (Sect. 5) repeatedly folds scaled
// prime PPVs into a running estimate. A prime PPV has one stored form, the
// record encoding of encoded.go (ascending node ids as uvarint gaps, each
// score a 16-bit code rounded toward zero), written by AppendEncoded; the
// Accumulator decodes such payloads sequentially and folds them with linear
// merges into a []Entry sorted by node id. No map is built between the prime
// push and the estimate; results become a map-based Vector only at the API
// boundary.
package sparse

import (
	"slices"
	"sort"

	"fastppv/internal/graph"
)

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
	tmp     []Entry // AddSorted's entries; Combine's merge buffer beside staged
	staged  []Entry // contributions staged by Stage* since the last Combine
	runs    []int   // start of each ascending run in staged, in staging order
}

// Reset truncates the accumulator to empty, retaining capacity.
func (a *Accumulator) Reset() {
	a.entries = a.entries[:0]
	a.scratch = a.scratch[:0]
	a.tmp = a.tmp[:0]
	a.staged = a.staged[:0]
	a.runs = a.runs[:0]
}

// Len returns the number of stored entries.
func (a *Accumulator) Len() int { return len(a.entries) }

// Entries returns the backing entry slice, sorted by ascending node id. The
// slice aliases the accumulator's storage and is invalidated by the next
// mutating call; callers must not modify or retain it.
func (a *Accumulator) Entries() []Entry { return a.entries }

// Get returns the score of id (zero when absent) via binary search.
func (a *Accumulator) Get(id graph.NodeID) float64 { return Lookup(a.entries, id) }

// Lookup returns the score of id in entries sorted by ascending node id (zero
// when absent), by binary search.
func Lookup(entries []Entry, id graph.NodeID) float64 {
	i := sort.Search(len(entries), func(i int) bool { return entries[i].Node >= id })
	if i < len(entries) && entries[i].Node == id {
		return entries[i].Score
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
// encoded record payload (AppendEncoded), decoded front to back up to the
// first malformed entry.
func (a *Accumulator) SetEncoded(data []byte) { a.entries = AppendDecoded(a.entries[:0], data) }

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
// folds everything staged with one merge of the staged runs. The Theorem 4
// self-loop correction is applied here: the owner hub's own entry contributes
// (score − alpha) — an extension through a hub must advance the walk by at
// least one edge, or tours ending at the hub would be counted twice across
// consecutive iterations — and is dropped entirely when the corrected score
// falls below a small epsilon.
//
// Staging records where each ascending run starts: an entry whose node id is
// below the one staged before it opens a new run. A record decodes strictly
// ascending, so it extends at most one run.
//
// Callers must stage hubs in ascending owner order and call Combine before
// reading the accumulator: Combine sums each node's contributions in staging
// order, and with that order it is bit-identical to the sequential merge.
func (a *Accumulator) StageEncodedExtension(data []byte, scale float64, owner graph.NodeID, alpha float64) {
	r := NewEncodedReader(data)
	for node, score, ok := r.Next(); ok; node, score, ok = r.Next() {
		if node == owner {
			score -= alpha
			if score <= extensionEpsilon {
				continue
			}
		}
		if last := len(a.staged) - 1; last < 0 || node < a.staged[last].Node {
			a.runs = append(a.runs, len(a.staged))
		}
		a.staged = append(a.staged, Entry{Node: node, Score: scale * score})
	}
}

// StageVectorExtension is StageEncodedExtension for a map-based prime PPV:
// sort, encode, stage.
func (a *Accumulator) StageVectorExtension(v Vector, scale float64, owner graph.NodeID, alpha float64) {
	a.StageEncodedExtension(AppendEncoded(nil, v.AppendSorted(nil)), scale, owner, alpha)
}

// Combine folds every staged contribution into the accumulator. It merges the
// staged runs pairwise, bottom-up, in O(E log k) for E entries in k runs; on
// equal node ids a merge takes the left (earlier staged) run first, so the
// merged order is the stable order by node id, and duplicates are then summed
// left to right. That is the floating-point addition sequence of merging the
// staged hubs one at a time — the bit-reproducibility contract — without the
// O(hubs x |accumulator|) of doing so. Combine reuses the accumulator's
// buffers and allocates nothing once they have grown.
func (a *Accumulator) Combine() {
	if len(a.staged) == 0 {
		return
	}
	sorted := a.mergeRuns()
	w := 0
	for _, e := range sorted[1:] {
		if e.Node == sorted[w].Node {
			sorted[w].Score += e.Score
		} else {
			w++
			sorted[w] = e
		}
	}
	a.merge(sorted[:w+1])
	a.staged = a.staged[:0]
	a.runs = a.runs[:0]
}

// mergeRuns merges the staged runs into one ascending run, ping-ponging
// between staged and tmp, and returns it; it leaves the result in a.staged's
// storage and a.tmp holding the other buffer.
func (a *Accumulator) mergeRuns() []Entry {
	src, runs := a.staged, a.runs
	if len(runs) < 2 {
		return src
	}
	dst := slices.Grow(a.tmp[:0], len(src))[:len(src)]
	for len(runs) > 1 {
		next := runs[:0] // runs[i] is read before next[i/2] is written
		for i := 0; i < len(runs); i += 2 {
			lo, mid, hi := runs[i], len(src), len(src)
			if i+1 < len(runs) {
				mid = runs[i+1]
			}
			if i+2 < len(runs) {
				hi = runs[i+2]
			}
			mergeStable(dst[lo:hi], src[lo:mid], src[mid:hi])
			next = append(next, lo)
		}
		runs = next
		src, dst = dst, src
	}
	a.staged, a.tmp = src, dst[:0]
	return src
}

// mergeStable merges the ascending runs x and y into dst, which has room for
// both; on equal node ids the entry of x comes first.
func mergeStable(dst, x, y []Entry) {
	if len(x) == 0 || len(y) == 0 || x[len(x)-1].Node <= y[0].Node {
		copy(dst[copy(dst, x):], y)
		return
	}
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if y[j].Node < x[i].Node {
			dst[k] = y[j]
			j++
		} else {
			dst[k] = x[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], x[i:])
	copy(dst[k:], y[j:])
}

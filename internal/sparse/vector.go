// Package sparse provides the sparse score vectors used throughout the
// FastPPV reproduction. A Personalized PageRank Vector (PPV) over a large
// graph typically has mass concentrated on a small neighbourhood of the query
// node, so nothing here is dense. Vector, a map from node id to score, is the
// public form: query results, exact PPVs, the baselines and the experiments.
// The serving path builds one only when its answer is complete: stored prime
// PPVs are encoded payloads sorted by node id (encoded.go: uvarint node-id
// gaps beside 16-bit score codes), decoded front to back and folded as slices
// (accumulator.go).
package sparse

import (
	"maps"
	"math"
	"slices"

	"fastppv/internal/graph"
)

// Vector is a sparse vector of non-negative scores indexed by node id. A nil
// Vector behaves like an empty vector for read operations; use New or Clone
// before writing.
type Vector map[graph.NodeID]float64

// New returns an empty vector with room for sizeHint entries.
func New(sizeHint int) Vector {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return make(Vector, sizeHint)
}

// FromDense converts a dense score slice into a sparse vector, dropping exact
// zeros. The capacity hint assumes the worst case (no zeros) so a fully dense
// input does not rehash the map repeatedly while filling.
func FromDense(dense []float64) Vector {
	v := New(len(dense))
	for i, s := range dense {
		if s != 0 {
			v[graph.NodeID(i)] = s
		}
	}
	return v
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := New(len(v))
	//lint:ordered per-node copy into a fresh map; no fold across nodes
	for id, s := range v {
		out[id] = s
	}
	return out
}

// Get returns the score of id (zero when absent).
func (v Vector) Get(id graph.NodeID) float64 { return v[id] }

// Set assigns a score, deleting the entry when the score is zero.
func (v Vector) Set(id graph.NodeID, score float64) {
	if score == 0 {
		delete(v, id)
		return
	}
	v[id] = score
}

// Add accumulates score onto the entry for id.
func (v Vector) Add(id graph.NodeID, score float64) {
	if score == 0 {
		return
	}
	v[id] += score
}

// AddScaled accumulates scale*other into v entry-wise. It is the core
// operation of the tour-assembly model (Theorem 4): extending a PPV increment
// by a prefix weight times a hub's prime PPV.
func (v Vector) AddScaled(other Vector, scale float64) {
	if scale == 0 {
		return
	}
	//lint:ordered each node occurs once in other, so every v[id] sees exactly one scaled add regardless of order
	for id, s := range other {
		v[id] += scale * s
	}
}

// Sum returns the total mass of the vector (the L1 norm, since scores are
// non-negative). The accuracy-aware stopping rule of Sect. 3 uses
// 1 - Sum(estimate) as the exact L1 error of the estimate.
func (v Vector) Sum() float64 {
	var total float64
	//lint:ordered diagnostic-only FP fold; answer paths (error bounds in responses) use SumOrdered
	for _, s := range v {
		total += s
	}
	return total
}

// SumOrdered returns the same total as Sum but accumulates entries in
// ascending node order, so the floating-point result is identical across
// calls on equal vectors. The accuracy-aware error bound reported to serving
// clients is computed with it, making query responses byte-reproducible.
func (v Vector) SumOrdered() float64 {
	var total float64
	for _, id := range slices.Sorted(maps.Keys(v)) {
		total += v[id]
	}
	return total
}

// L1Distance returns the L1 distance between v and other.
func (v Vector) L1Distance(other Vector) float64 {
	var total float64
	//lint:ordered diagnostic metric (accuracy evaluation); never part of a served answer
	for id, s := range v {
		total += math.Abs(s - other[id])
	}
	//lint:ordered diagnostic metric (accuracy evaluation); never part of a served answer
	for id, s := range other {
		if _, ok := v[id]; !ok {
			total += math.Abs(s)
		}
	}
	return total
}

// Clip removes entries with score strictly below threshold and returns the
// number of removed entries. The paper clips stored PPVs at 1e-4 to bound
// index size (Sect. 6, Parameters).
func (v Vector) Clip(threshold float64) int {
	removed := 0
	//lint:ordered per-node threshold test with independent deletes; the removed count is order-free
	for id, s := range v {
		if s < threshold {
			delete(v, id)
			removed++
		}
	}
	return removed
}

// NonZeros returns the number of stored entries.
func (v Vector) NonZeros() int { return len(v) }

// Equal reports whether v and other are entry-wise equal within tol.
func (v Vector) Equal(other Vector, tol float64) bool {
	return v.L1Distance(other) <= tol
}

// Entry is a (node, score) pair used for ranked results.
type Entry struct {
	Node  graph.NodeID
	Score float64
}

// AppendSorted appends the entries of v to dst in ascending node order: the
// one place a map-form PPV becomes the sorted form the rest of the tree uses.
func (v Vector) AppendSorted(dst []Entry) []Entry {
	for _, id := range slices.Sorted(maps.Keys(v)) {
		dst = append(dst, Entry{Node: id, Score: v[id]})
	}
	return dst
}

// FromEntries builds a Vector sized for exactly the given entries.
func FromEntries(entries []Entry) Vector {
	v := make(Vector, len(entries))
	for _, e := range entries {
		v[e.Node] = e.Score
	}
	return v
}

// Entries returns all entries sorted by descending score, breaking ties by
// ascending node id so that rankings are deterministic.
func (v Vector) Entries() []Entry {
	out := make([]Entry, 0, len(v))
	//lint:ordered collect-then-sort: entries are sorted by (score desc, node id asc) below
	for id, s := range v {
		out = append(out, Entry{Node: id, Score: s})
	}
	slices.SortFunc(out, rankCompare)
	return out
}

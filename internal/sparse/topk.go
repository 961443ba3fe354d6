package sparse

import (
	"slices"
	"sync"

	"fastppv/internal/graph"
)

// topkPool recycles the []Entry scratch of a selection — the bounded heap of
// TopKEntries, and the entries Vector.TopK collects out of its map — so the
// serving render path does not allocate one per response.
var topkPool = sync.Pool{New: func() any { return new([]Entry) }}

// TopK returns the k highest-scoring entries of v in descending score order
// (ties broken by ascending node id). It collects the map's entries and runs
// TopKEntries over them.
func (v Vector) TopK(k int) []Entry {
	if k <= 0 || len(v) == 0 {
		return nil
	}
	bp := topkPool.Get().(*[]Entry)
	all := (*bp)[:0]
	//lint:ordered the (score desc, node id asc) total order makes the selected k-set and its final ordering independent of visit order
	for id, s := range v {
		all = append(all, Entry{Node: id, Score: s})
	}
	out := TopKEntries(all, k)
	*bp = all[:0]
	topkPool.Put(bp)
	return out
}

// TopKEntries returns the k best of entries — distinct node ids, in any order;
// a query's estimate holds them sorted by node (core.Result.Entries) — in
// descending score order, ties broken by ascending node id. It is the one
// top-k selection of the tree: a bounded min-heap over one pass, O(n log k),
// instead of a full sort; the accuracy metrics of Sect. 6 only look at the top
// 10 nodes. For k >= len(entries) it is every entry in the order of
// Vector.Entries. The result is a fresh slice.
func TopKEntries(entries []Entry, k int) []Entry {
	if k <= 0 || len(entries) == 0 {
		return nil
	}
	var out []Entry
	if k >= len(entries) {
		out = slices.Clone(entries)
	} else {
		hp := topkPool.Get().(*[]Entry)
		h := entryMinHeap((*hp)[:0])
		for _, e := range entries {
			if len(h) < k {
				h = append(h, e)
				h.up(len(h) - 1)
			} else if !(e.Score < h[0].Score) && entryLess(h[0], e) {
				// Most entries score below the worst kept one and are
				// rejected on that one comparison. The test is negated so a
				// NaN on either side falls through to the full compare: the
				// selection is the one the total order makes.
				h[0] = e
				h.down(0)
			}
		}
		out = slices.Clone(h)
		*hp = h[:0]
		topkPool.Put(hp)
	}
	slices.SortFunc(out, rankCompare)
	return out
}

// TopKNodes returns only the node ids of the top k entries.
func (v Vector) TopKNodes(k int) []graph.NodeID {
	entries := v.TopK(k)
	out := make([]graph.NodeID, len(entries))
	for i, e := range entries {
		out[i] = e.Node
	}
	return out
}

// rankCompare is the total order of every ranking: descending score, ties
// broken by ascending node id.
func rankCompare(a, b Entry) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	case a.Node < b.Node:
		return -1
	case a.Node > b.Node:
		return 1
	}
	return 0
}

// entryLess reports whether a ranks below b: lower score, or equal score with
// a larger node id.
func entryLess(a, b Entry) bool { return rankCompare(a, b) > 0 }

// entryMinHeap is a min-heap over Entry keeping the k best entries seen so
// far: the root is the worst of the kept entries.
type entryMinHeap []Entry

func (h entryMinHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !entryLess(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h entryMinHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && entryLess(h[r], h[j]) {
			j = r
		}
		if !entryLess(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

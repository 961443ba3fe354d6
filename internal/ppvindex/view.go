package ppvindex

import (
	"sort"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// HubRecordView is a zero-copy read-only view of one hub's stored prime PPV:
// the record's entry payload in the flat 8-byte (node uint32, score float32
// rounded toward zero) encoding, in strictly ascending node order. A
// DiskIndex view aliases the mapped file, a MemIndex view its immutable heap
// image or an overlay buffer, a cache-retained view an owned heap buffer. No map
// is materialized — the query inner loop folds the entries straight into a
// sparse.Accumulator.
//
// Lifetime rules: a view is valid only for the index generation that produced
// it and must not outlive it. Every DiskIndex view pins its generation;
// callers must call Release exactly once, promptly, when done (a leaked view
// blocks that generation's Close, and with it compaction's swap).
// Release on a zero or unpinned view is a no-op. Views must be treated as
// immutable and must not be retained across calls that may close or compact
// the index.
type HubRecordView struct {
	data    []byte // len is a multiple of sparse.EncodedEntrySize
	release func()
}

// NewHubRecordView wraps an encoded entry payload as a view. The data slice
// is aliased, not copied; release (optional) is invoked by Release.
func NewHubRecordView(data []byte, release func()) HubRecordView {
	return HubRecordView{data: data, release: release}
}

// Len returns the number of (node, score) entries.
func (v HubRecordView) Len() int { return len(v.data) / sparse.EncodedEntrySize }

// Entry decodes the i-th entry. Entries are sorted by ascending node id.
func (v HubRecordView) Entry(i int) (graph.NodeID, float64) {
	return sparse.EncodedEntryAt(v.data, i)
}

// EntryBytes returns the raw encoded entry payload. The slice aliases the
// view's backing storage and follows the same lifetime rules as the view.
func (v HubRecordView) EntryBytes() []byte { return v.data }

// Contains reports whether the record has an entry for id (binary search).
func (v HubRecordView) Contains(id graph.NodeID) bool {
	i := sort.Search(v.Len(), func(i int) bool {
		node, _ := v.Entry(i)
		return node >= id
	})
	if i == v.Len() {
		return false
	}
	node, _ := v.Entry(i)
	return node == id
}

// Vector decodes the view into a freshly allocated map-based Vector: the
// boundary conversion for callers outside the serving path.
func (v HubRecordView) Vector() sparse.Vector {
	out := sparse.New(v.Len())
	for i := 0; i < v.Len(); i++ {
		id, s := v.Entry(i)
		out[id] = s
	}
	return out
}

// Release returns the view's pin on its index generation, if it holds one.
// It must be called exactly once per pinned view; calling it on a zero or
// unpinned view is a no-op.
func (v HubRecordView) Release() {
	if v.release != nil {
		v.release()
	}
}

// ViewGetter is the record read of an Index. The boolean is false when h is
// not indexed; an error means the record exists but could not be read.
type ViewGetter interface {
	GetView(h graph.NodeID) (HubRecordView, bool, error)
}

// VectorOf is every Index.Get: GetView, decode into a map, Release.
func VectorOf(idx ViewGetter, h graph.NodeID) (sparse.Vector, bool, error) {
	view, ok, err := idx.GetView(h)
	if err != nil || !ok {
		return nil, false, err
	}
	defer view.Release()
	return view.Vector(), true, nil
}

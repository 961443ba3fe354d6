package ppvindex

import (
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// HubRecordView is a zero-copy read-only view of one hub's stored prime PPV:
// the record's entry payload in the encoding of package sparse (uvarint node
// id gaps beside float32 scores rounded toward zero), in strictly ascending
// node order. A DiskIndex view aliases the mapped file, a MemIndex view its
// immutable heap image or an overlay buffer, a cache-retained view an owned
// heap buffer. No map is materialized — the query inner loop decodes the
// entries front to back straight into a sparse.Accumulator.
//
// Lifetime rules: a view is valid only for the index generation that produced
// it and must not outlive it. Every DiskIndex view pins its generation;
// callers must call Release exactly once, promptly, when done (a leaked view
// blocks that generation's Close, and with it compaction's swap).
// Release on a zero or unpinned view is a no-op. Views must be treated as
// immutable and must not be retained across calls that may close or compact
// the index.
type HubRecordView struct {
	data    []byte // a payload of sparse.AppendEncoded
	release func()
}

// NewHubRecordView wraps an encoded entry payload as a view. The data slice
// is aliased, not copied; release (optional) is invoked by Release.
func NewHubRecordView(data []byte, release func()) HubRecordView {
	return HubRecordView{data: data, release: release}
}

// Len returns the number of (node, score) entries, counted by decoding the
// payload.
func (v HubRecordView) Len() int { return sparse.EncodedLen(v.data) }

// EntryBytes returns the raw encoded entry payload. The slice aliases the
// view's backing storage and follows the same lifetime rules as the view.
func (v HubRecordView) EntryBytes() []byte { return v.data }

// ContainsAny reports whether the record has an entry for any of ids, which
// must be in ascending order: one merge pass over both, which stops at the
// first match or past the last id.
func (v HubRecordView) ContainsAny(ids []graph.NodeID) bool {
	r := sparse.NewEncodedReader(v.data)
	i := 0
	for node, _, ok := r.Next(); ok && i < len(ids); node, _, ok = r.Next() {
		for i < len(ids) && ids[i] < node {
			i++
		}
		if i < len(ids) && ids[i] == node {
			return true
		}
	}
	return false
}

// Vector decodes the view into a freshly allocated map-based Vector: the
// boundary conversion for callers outside the serving path.
func (v HubRecordView) Vector() sparse.Vector {
	return sparse.FromEntries(sparse.AppendDecoded(nil, v.data))
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

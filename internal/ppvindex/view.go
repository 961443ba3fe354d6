package ppvindex

import (
	"runtime"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// HubRecordView is a zero-copy read-only view of one hub's stored prime PPV:
// the record's entry payload in the encoding of package sparse (uvarint node
// id gaps beside 16-bit score codes rounded toward zero), in strictly ascending
// node order. A DiskIndex view aliases the mapped file, a MemIndex view its
// immutable heap image or an overlay buffer, a cache-retained view an owned
// heap buffer. No map is materialized — the query inner loop decodes the
// entries front to back straight into a sparse.Accumulator.
//
// Lifetime rule: a generation's bytes live while something reads them. A
// DiskIndex view holds its index, whose mapping the GC unmaps only once no
// view or state reaches it; a view of a heap buffer keeps the buffer itself.
// Call Release after the last read of a view's bytes: it keeps the index
// reachable up to that point. No Close or compaction waits for a view, so an
// unreleased one blocks nothing. Views must be treated as immutable.
type HubRecordView struct {
	data []byte     // a payload of sparse.AppendEncoded
	idx  *DiskIndex // the index whose bytes data aliases, or nil
}

// NewHubRecordView wraps an encoded entry payload held in the heap as a view.
// The data slice is aliased, not copied.
func NewHubRecordView(data []byte) HubRecordView { return HubRecordView{data: data} }

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

// Release ends the view's reads: its index, and with it the mapping the view
// aliases, stays reachable up to this call.
func (v HubRecordView) Release() { runtime.KeepAlive(v.idx) }

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

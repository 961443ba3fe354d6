// Package ppvindex stores the precomputed building blocks of FastPPV's
// offline phase: the prime PPV of every hub node (Algorithm 1 of the paper).
// A stored prime PPV has one form, the hub record: its (node, score) entries
// in strictly ascending node order, in the encoding of package sparse (node
// ids as uvarint gaps, each score a 16-bit code rounded toward zero, so a
// stored record never overstates the push), 3 to 7 bytes an entry. The in-memory
// index, the disk file (Sect. 5.3: one random read per fetched hub), the
// update log and the block cache all hold those same bytes, and the query
// loop decodes them front to back straight out of a HubRecordView.
//
// One state machine serves every index (Store): a base in the disk layout,
// an overlay of the records committed since, and a compaction that folds the
// overlay into a fresh base. The base is an index file, mapped read-only and
// checked once when it opens, behind an update log (CreateStore, OpenStore);
// or, for the in-memory index (MemIndex), the same layout in one heap buffer
// with no log. Either way a record is found by bisecting the base's hubs and
// reading its offset from the base's own directory.
package ppvindex

import (
	"fmt"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// Index is the read interface used by online query processing; GetView
// (ViewGetter) is the record read.
type Index interface {
	ViewGetter
	// Get decodes the record of hub h into a fresh map (VectorOf). A boundary
	// helper for tests and the bench harness; the serving path never calls it.
	Get(h graph.NodeID) (sparse.Vector, bool, error)
	// Has reports whether h is indexed without reading the record.
	Has(h graph.NodeID) bool
	// Hubs returns the indexed hub nodes in ascending order.
	Hubs() []graph.NodeID
	// Len returns the number of indexed hubs.
	Len() int
	// SizeBytes estimates the storage footprint of the index payload, used by
	// the offline-space experiments (Fig. 7b, 9, 11, 15).
	SizeBytes() int64
}

// Writer is the write interface of precomputation and incremental updates.
type Writer interface {
	// PutEncoded stores payload — sparse.AppendEncoded over a prime push's
	// output, strictly ascending node ids, not checked again — as the record
	// of hub h, replacing any previous one. Ownership passes to the index.
	PutEncoded(h graph.NodeID, payload []byte) error
	// Commit takes one update batch whole, its graph mutation and every
	// record it recomputed (ownership passes): a durable index makes it
	// durable, then publishes the state that holds the records and returns
	// it. On error nothing is published.
	Commit(m GraphMutation, records []Record) (Snapshot, error)
	// Snapshot returns the published read state.
	Snapshot() (Snapshot, error)
}

// Record is one hub's encoded record in an update batch.
type Record struct {
	Hub     graph.NodeID
	Payload []byte
}

// Snapshot is one published read state of an index. It never changes,
// whatever is committed, repacked or compacted after it.
type Snapshot = ViewGetter

// perHubOverheadBytes is the fixed per-hub cost in the binary layout: the hub
// id and the payload length.
const perHubOverheadBytes = 4 + 4

// encodeVector is the boundary encoder behind every Put(h, Vector): sort by
// node id, then the one encoder. The engine's payloads never pass through it.
func encodeVector(ppv sparse.Vector) []byte {
	return sparse.AppendEncoded(nil, ppv.AppendSorted(make([]sparse.Entry, 0, len(ppv))))
}

// MemIndex is the in-memory PPV index: a Store whose base is an FPI4 image
// in one heap buffer and which keeps no update log. Records put into a fresh
// index are collected until the first read lays them out in the image (the
// last put of a hub wins); later puts and commits go to the overlay, which
// the store folds into a fresh image past an eighth of the image's bytes
// (foldDue). Nothing stored is written in place, and the GC keeps an image
// alive while a view or a snapshot reads it, as it does a mapped file. It shows
// the index and writer methods of its store, not the durable ones (Compact,
// DurabilityStats, BlockCacheStats).
type MemIndex struct{ heapStore }

// heapStore is what a MemIndex shows of its Store.
type heapStore interface {
	Index
	Writer
}

// NewMemIndex returns an empty in-memory index: a store in write mode, with
// no path and no block cache, whose threshold of 0 folds at an eighth of its
// image (foldDue).
func NewMemIndex() *MemIndex { return &MemIndex{&Store{opts: StoreOptions{BlockCacheBytes: -1}}} }

// Put encodes ppv and stores it (boundary helper, see encodeVector).
func (m *MemIndex) Put(h graph.NodeID, ppv sparse.Vector) error {
	return m.PutEncoded(h, encodeVector(ppv))
}

// Stats summarizes an index for experiment reports.
type Stats struct {
	Hubs         int
	TotalEntries int64
	SizeBytes    int64
}

// StatsOf computes Stats for any Index; the entries are counted by decoding
// every record, as their size varies. A Store's records are read past its
// block cache, so the count fills and evicts no block.
func StatsOf(idx Index) (Stats, error) {
	s := Stats{Hubs: idx.Len(), SizeBytes: idx.SizeBytes()}
	read := idx.GetView
	if st, ok := idx.(*Store); ok {
		read = st.GetViewUncached
	}
	for _, h := range idx.Hubs() {
		view, ok, err := read(h)
		if err != nil {
			return s, err
		}
		if ok {
			s.TotalEntries += int64(view.Len())
			view.Release()
		}
	}
	return s, nil
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("%d hubs, %d entries, %.2f MB", s.Hubs, s.TotalEntries, float64(s.SizeBytes)/(1<<20))
}

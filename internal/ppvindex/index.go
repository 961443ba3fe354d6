// Package ppvindex stores the precomputed building blocks of FastPPV's
// offline phase: the prime PPV of every hub node (Algorithm 1 of the paper).
// A stored prime PPV has one form, the hub record: its (node, score) entries
// in the flat 8-byte encoding of package sparse (each score a float32 rounded
// toward zero, so a stored record never overstates the push), in strictly ascending node
// order. The in-memory index, the disk file (Sect. 5.3: one random read per
// fetched hub), the update log and the block cache all hold those same bytes,
// and the query loop folds them through a HubRecordView without decoding.
//
// Both resident forms find a record through a sorted directory: the hubs in
// ascending order and a parallel offsets array, searched by bisection. The
// in-memory index packs every record into one exact-size arena behind it,
// with the records written since the last pack held beside it in an overlay;
// the disk index keeps only the directory beside a read-only mapping of its
// file, and validates every record once when it opens.
package ppvindex

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
}

// entryBytes is the storage cost per (node, score) pair: a uint32 node id and
// a float32 score, matching the binary disk layout.
const entryBytes = sparse.EncodedEntrySize

// perHubOverheadBytes is the fixed per-hub cost in the binary layout: the hub
// id and the entry count.
const perHubOverheadBytes = 4 + 4

// encodeVector is the boundary encoder behind every Put(h, Vector): sort by
// node id, then the one encoder. The engine's payloads never pass through it.
func encodeVector(ppv sparse.Vector) []byte {
	return sparse.AppendEncoded(nil, ppv.AppendSorted(make([]sparse.Entry, 0, len(ppv))))
}

// MemIndex is an in-memory PPV index in two halves. The packed base holds
// every record in one exact-size arena behind a sorted directory: hubs in
// ascending order, and arena[offsets[i]:offsets[i+1]] the record of hubs[i].
// The overlay maps the hubs written since the last pack to their records and
// shadows the base. PutEncoded writes the overlay; Pack folds it into a fresh
// base (the engine packs once, when Precompute returns), and once a packed
// index's overlay holds more than an eighth of the arena's bytes, the put that
// crossed the line repacks. Nothing stored is written in place: a put
// replaces an overlay buffer and a pack builds a new arena, so views alias
// their record without a pin and outlive a rewrite of their hub or a repack.
// It is safe for concurrent use.
type MemIndex struct {
	mu      sync.RWMutex
	hubs    []graph.NodeID // the packed base's hubs, ascending
	offsets []int          // len(hubs)+1 bounds of the records in arena
	arena   []byte
	overlay map[graph.NodeID][]byte
	// overlayBytes is the payload held by overlay, against which a packed
	// index decides to repack.
	overlayBytes int
	size         int64 // SizeBytes of the records both halves hold
	// count is the number of distinct hubs, kept atomic so a probe can answer
	// "empty" without taking the read lock: as the overlay of a disk store
	// MemIndex is probed once per record read and is empty except between an
	// update and a compaction.
	count atomic.Int64
}

// repackShare is the share of the arena's bytes past which a packed index's
// overlay is folded into a fresh base: repacking costs one copy of the index,
// so it is paid once per eighth of the index rewritten.
const repackShare = 8

// NewMemIndex returns an empty in-memory index.
func NewMemIndex() *MemIndex { return &MemIndex{} }

// PutEncoded stores payload as the record of hub h and takes ownership of it.
func (m *MemIndex) PutEncoded(h graph.NodeID, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.recordLocked(h); ok {
		m.size -= perHubOverheadBytes + int64(len(old))
	} else {
		m.count.Add(1)
	}
	if old, ok := m.overlay[h]; ok {
		m.overlayBytes -= len(old)
	}
	if m.overlay == nil {
		m.overlay = make(map[graph.NodeID][]byte)
	}
	m.overlay[h] = payload
	m.overlayBytes += len(payload)
	m.size += perHubOverheadBytes + int64(len(payload))
	if len(m.hubs) > 0 && m.overlayBytes > len(m.arena)/repackShare {
		m.packLocked()
	}
	return nil
}

// Put encodes ppv and stores it (boundary helper, see encodeVector).
func (m *MemIndex) Put(h graph.NodeID, ppv sparse.Vector) error {
	return m.PutEncoded(h, encodeVector(ppv))
}

// Pack folds the overlay into a fresh packed base: one arena sized to the
// records it holds, and the sorted directory over it. Views taken before keep
// reading the buffers they alias.
func (m *MemIndex) Pack() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.packLocked()
}

func (m *MemIndex) packLocked() {
	if len(m.overlay) == 0 {
		return
	}
	hubs := m.hubsLocked()
	offsets := make([]int, 1, len(hubs)+1)
	arena := make([]byte, 0, m.size-int64(len(hubs))*perHubOverheadBytes)
	for _, h := range hubs {
		rec, _ := m.recordLocked(h)
		arena = append(arena, rec...)
		offsets = append(offsets, len(arena))
	}
	m.hubs, m.offsets, m.arena = hubs, offsets, arena
	m.overlay, m.overlayBytes = nil, 0
}

// hubsLocked returns the hubs of both halves in ascending order, in a fresh
// slice. Callers hold mu.
func (m *MemIndex) hubsLocked() []graph.NodeID {
	out := make([]graph.NodeID, len(m.hubs), m.count.Load())
	copy(out, m.hubs)
	//lint:ordered collect-then-sort: hubs are sorted by id below
	for h := range m.overlay {
		if _, found := slices.BinarySearch(m.hubs, h); !found {
			out = append(out, h)
		}
	}
	if len(out) > len(m.hubs) {
		slices.Sort(out)
	}
	return out
}

// recordLocked returns the record of h, the overlay's first. Callers hold mu.
func (m *MemIndex) recordLocked(h graph.NodeID) ([]byte, bool) {
	if rec, ok := m.overlay[h]; ok {
		return rec, true
	}
	i, ok := slices.BinarySearch(m.hubs, h)
	if !ok || i+1 >= len(m.offsets) {
		return nil, false
	}
	return m.arena[m.offsets[i]:m.offsets[i+1]:m.offsets[i+1]], true
}

// GetView returns a view of the stored record of h; it allocates nothing, and
// an empty index answers from the atomic count alone.
func (m *MemIndex) GetView(h graph.NodeID) (HubRecordView, bool, error) {
	if m.count.Load() == 0 {
		return HubRecordView{}, false, nil
	}
	m.mu.RLock()
	rec, ok := m.recordLocked(h)
	m.mu.RUnlock()
	if !ok {
		return HubRecordView{}, false, nil
	}
	return NewHubRecordView(rec, nil), true, nil
}

// Get decodes the stored record of h into a fresh map.
func (m *MemIndex) Get(h graph.NodeID) (sparse.Vector, bool, error) { return VectorOf(m, h) }

// Has reports whether h is indexed.
func (m *MemIndex) Has(h graph.NodeID) bool {
	_, ok, _ := m.GetView(h)
	return ok
}

// Hubs returns the indexed hubs of both halves in ascending order.
func (m *MemIndex) Hubs() []graph.NodeID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.hubsLocked()
}

// Len returns the number of indexed hubs.
func (m *MemIndex) Len() int { return int(m.count.Load()) }

// SizeBytes returns the size of the records in the binary disk layout, so
// in-memory and on-disk experiments report comparable space numbers.
func (m *MemIndex) SizeBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.size
}

// Stats summarizes an index for experiment reports.
type Stats struct {
	Hubs         int
	TotalEntries int64
	SizeBytes    int64
}

// StatsOf computes Stats for any Index; the entry count is derived from the
// payload size.
func StatsOf(idx Index) Stats {
	s := Stats{Hubs: idx.Len(), SizeBytes: idx.SizeBytes()}
	if s.Hubs > 0 {
		s.TotalEntries = (s.SizeBytes - int64(s.Hubs)*perHubOverheadBytes) / entryBytes
	}
	return s
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("%d hubs, %d entries, %.2f MB", s.Hubs, s.TotalEntries, float64(s.SizeBytes)/(1<<20))
}

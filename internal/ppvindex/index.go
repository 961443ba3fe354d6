// Package ppvindex stores the precomputed building blocks of FastPPV's
// offline phase: the prime PPV of every hub node (Algorithm 1 of the paper).
// A stored prime PPV has one form, the hub record: its (node, score) entries
// in the flat 12-byte encoding of package sparse, in strictly ascending node
// order. The in-memory index, the disk file (Sect. 5.3: one random read per
// fetched hub), the update log and the block cache all hold those same bytes,
// and the query loop folds them through a HubRecordView without decoding.
package ppvindex

import (
	"fmt"
	"sort"
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
// a float64 score, matching the binary disk layout.
const entryBytes = sparse.EncodedEntrySize

// perHubOverheadBytes is the fixed per-hub cost in the binary layout: the hub
// id and the entry count.
const perHubOverheadBytes = 4 + 4

// encodeVector is the boundary encoder behind every Put(h, Vector): sort by
// node id, then the one encoder. The engine's payloads never pass through it.
func encodeVector(ppv sparse.Vector) []byte {
	return sparse.AppendEncoded(nil, ppv.AppendSorted(make([]sparse.Entry, 0, len(ppv))))
}

// MemIndex is an in-memory PPV index: one owned payload buffer per hub. A
// stored buffer is replaced, never written, so views alias it without a pin
// and outlive a rewrite of their hub. It is safe for concurrent use.
type MemIndex struct {
	mu      sync.RWMutex
	records map[graph.NodeID][]byte
	size    int64 // SizeBytes of what records holds
	// count mirrors len(records) so a probe can answer "empty" without taking
	// the read lock: as the overlay of a disk store MemIndex is probed once
	// per record read and is empty except between an update and a compaction.
	count atomic.Int64
}

// NewMemIndex returns an empty in-memory index.
func NewMemIndex() *MemIndex {
	return &MemIndex{records: make(map[graph.NodeID][]byte)}
}

// PutEncoded stores payload as the record of hub h and takes ownership of it.
func (m *MemIndex) PutEncoded(h graph.NodeID, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.records[h]; ok {
		m.size -= perHubOverheadBytes + int64(len(old))
	}
	m.records[h] = payload
	m.size += perHubOverheadBytes + int64(len(payload))
	m.count.Store(int64(len(m.records)))
	return nil
}

// Put encodes ppv and stores it (boundary helper, see encodeVector).
func (m *MemIndex) Put(h graph.NodeID, ppv sparse.Vector) error {
	return m.PutEncoded(h, encodeVector(ppv))
}

// GetView returns a view of the stored record of h; it allocates nothing, and
// an empty index answers from the atomic count alone.
func (m *MemIndex) GetView(h graph.NodeID) (HubRecordView, bool, error) {
	if m.count.Load() == 0 {
		return HubRecordView{}, false, nil
	}
	m.mu.RLock()
	rec, ok := m.records[h]
	m.mu.RUnlock()
	if !ok {
		return HubRecordView{}, false, nil
	}
	return NewHubRecordView(h, rec, nil), true, nil
}

// Get decodes the stored record of h into a fresh map.
func (m *MemIndex) Get(h graph.NodeID) (sparse.Vector, bool, error) { return VectorOf(m, h) }

// Has reports whether h is indexed.
func (m *MemIndex) Has(h graph.NodeID) bool {
	_, ok, _ := m.GetView(h)
	return ok
}

// Hubs returns the indexed hubs in ascending order.
func (m *MemIndex) Hubs() []graph.NodeID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]graph.NodeID, 0, len(m.records))
	//lint:ordered collect-then-sort: hubs are sorted by id on the next line
	for h := range m.records {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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

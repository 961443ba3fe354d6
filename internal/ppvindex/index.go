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
	"maps"
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

// MemIndex is an in-memory PPV index. Its read side is one immutable memState
// behind an atomic pointer, which a read loads without a lock; a write,
// serialized on mu, builds the next state beside it and publishes it. Nothing
// stored is written in place, so a view aliases its record without a pin.
type MemIndex struct {
	mu    sync.Mutex
	state atomic.Pointer[memState]
}

// memState is one published state of a MemIndex, in two halves. The packed
// base holds every record in one exact-size arena behind a sorted directory:
// hubs in ascending order, and arena[offsets[i]:offsets[i+1]] the record of
// hubs[i]. The overlay maps the hubs written since the last pack to their
// records and shadows the base. A write copies the overlay, not the arena;
// once the overlay holds more than an eighth of the arena's bytes, the write
// folds both halves into a fresh base.
type memState struct {
	hubs         []graph.NodeID
	offsets      []int
	arena        []byte
	overlay      map[graph.NodeID][]byte
	overlayBytes int   // payload held by overlay
	size         int64 // SizeBytes of the records both halves hold
	count        int   // distinct hubs
}

// repackShare is the share of the arena's bytes past which the overlay is
// folded into a fresh base: a repack, one copy of the index, is paid once per
// eighth rewritten, so an index built put by put grows geometrically.
const repackShare = 8

// NewMemIndex returns an empty in-memory index.
func NewMemIndex() *MemIndex {
	m := &MemIndex{}
	m.state.Store(&memState{})
	return m
}

// PutEncoded stores payload as the record of hub h and takes ownership of it.
func (m *MemIndex) PutEncoded(h graph.NodeID, payload []byte) error {
	_, err := m.Commit(GraphMutation{}, []Record{{Hub: h, Payload: payload}})
	return err
}

// Commit publishes the state that holds records; an in-memory index keeps no
// log of m. It never fails.
func (m *MemIndex) Commit(_ GraphMutation, records []Record) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := m.state.Load().with(records)
	if next.overlayBytes > len(next.arena)/repackShare {
		next = next.packed()
	}
	m.state.Store(next)
	return next, nil
}

// Snapshot returns the published state.
func (m *MemIndex) Snapshot() (Snapshot, error) { return m.state.Load(), nil }

// Put encodes ppv and stores it (boundary helper, see encodeVector).
func (m *MemIndex) Put(h graph.NodeID, ppv sparse.Vector) error {
	return m.PutEncoded(h, encodeVector(ppv))
}

// with returns st plus records, in a copy of the overlay.
func (st *memState) with(records []Record) *memState {
	next := *st
	next.overlay = make(map[graph.NodeID][]byte, len(st.overlay)+len(records))
	maps.Copy(next.overlay, st.overlay)
	for _, r := range records {
		if old, ok := next.record(r.Hub); ok {
			next.size -= perHubOverheadBytes + int64(len(old))
		} else {
			next.count++
		}
		if old, ok := next.overlay[r.Hub]; ok {
			next.overlayBytes -= len(old)
		}
		next.overlay[r.Hub] = r.Payload
		next.overlayBytes += len(r.Payload)
		next.size += perHubOverheadBytes + int64(len(r.Payload))
	}
	return &next
}

// packed returns st with its overlay folded into a fresh base.
func (st *memState) packed() *memState {
	if len(st.overlay) == 0 {
		return st
	}
	hubs := st.allHubs()
	offsets := make([]int, 1, len(hubs)+1)
	arena := make([]byte, 0, st.size-int64(len(hubs))*perHubOverheadBytes)
	for _, h := range hubs {
		rec, _ := st.record(h)
		arena = append(arena, rec...)
		offsets = append(offsets, len(arena))
	}
	return &memState{hubs: hubs, offsets: offsets, arena: arena, size: st.size, count: st.count}
}

// allHubs returns the hubs of both halves in ascending order, freshly.
func (st *memState) allHubs() []graph.NodeID {
	out := make([]graph.NodeID, len(st.hubs), st.count)
	copy(out, st.hubs)
	//lint:ordered collect-then-sort: hubs are sorted by id below
	for h := range st.overlay {
		if _, found := slices.BinarySearch(st.hubs, h); !found {
			out = append(out, h)
		}
	}
	if len(out) > len(st.hubs) {
		slices.Sort(out)
	}
	return out
}

// record returns the record of h, the overlay's first.
func (st *memState) record(h graph.NodeID) ([]byte, bool) {
	if rec, ok := st.overlay[h]; ok {
		return rec, true
	}
	i, ok := slices.BinarySearch(st.hubs, h)
	if !ok || i+1 >= len(st.offsets) {
		return nil, false
	}
	return st.arena[st.offsets[i]:st.offsets[i+1]:st.offsets[i+1]], true
}

// GetView returns a view of the record of h in this state, allocating
// nothing.
func (st *memState) GetView(h graph.NodeID) (HubRecordView, bool, error) {
	rec, ok := st.record(h)
	if !ok {
		return HubRecordView{}, false, nil
	}
	return NewHubRecordView(rec, nil), true, nil
}

// GetView returns a view of the published record of h.
func (m *MemIndex) GetView(h graph.NodeID) (HubRecordView, bool, error) {
	return m.state.Load().GetView(h)
}

// Get decodes the stored record of h into a fresh map.
func (m *MemIndex) Get(h graph.NodeID) (sparse.Vector, bool, error) { return VectorOf(m, h) }

// Has reports whether h is indexed.
func (m *MemIndex) Has(h graph.NodeID) bool {
	_, ok := m.state.Load().record(h)
	return ok
}

// Hubs (ascending), Len and SizeBytes answer from the published state.
// SizeBytes counts the records in the binary disk layout, so in-memory and
// on-disk experiments report comparable space numbers.
func (m *MemIndex) Hubs() []graph.NodeID { return m.state.Load().allHubs() }
func (m *MemIndex) Len() int             { return m.state.Load().count }
func (m *MemIndex) SizeBytes() int64     { return m.state.Load().size }

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

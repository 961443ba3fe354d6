package ppvindex

import (
	"encoding/binary"
	"slices"

	"fastppv/internal/graph"
)

// Generation returns the disk index the store serves its base records from
// now (nil before the store is finalized).
func (s *Store) Generation() *DiskIndex {
	st := s.state.Load()
	if st == nil {
		return nil
	}
	return st.reader
}

// pack compacts m into a fresh heap image.
func pack(m *MemIndex) {
	if _, err := m.heapStore.(*Store).Compact(); err != nil {
		panic(err)
	}
}

// memState returns the published state of m, finalizing it first.
func memState(m *MemIndex) *storeState {
	st, err := m.heapStore.(*Store).reading()
	if err != nil {
		panic(err)
	}
	return st
}

// Image returns the heap image m serves its base records from.
func (m *MemIndex) Image() []byte { return memState(m).reader.data }

// Unmapped is how many index mappings the GC has released so far.
func Unmapped() int64 { return unmapped.Load() }

// find is the offset of hub h's record in d's bytes.
func (d *DiskIndex) find(h graph.NodeID) (uint64, bool) {
	i, ok := slices.BinarySearch(d.hubs, h)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint64(d.dir[i*dirEntryBytes+4:]), true
}

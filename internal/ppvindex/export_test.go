package ppvindex

// Generation returns the disk index the store serves its base records from
// now (nil before the store is finalized).
func (s *Store) Generation() *DiskIndex {
	st := s.state.Load()
	if st == nil {
		return nil
	}
	return st.gen.reader
}

// pack publishes m's overlay folded into a fresh packed base.
func pack(m *MemIndex) { m.state.Store(m.state.Load().packed()) }

// InFlight is the number of views of d not yet released.
func (d *DiskIndex) InFlight() int64 { return d.inflight.Load() }

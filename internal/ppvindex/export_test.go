package ppvindex

// Generation returns the disk index the store serves its base records from
// now (nil before the store is finalized).
func (s *Store) Generation() *DiskIndex {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reader
}

// InFlight is the number of views of d not yet released.
func (d *DiskIndex) InFlight() int64 { return d.inflight.Load() }

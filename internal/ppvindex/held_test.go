package ppvindex

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// TestHeldSnapshotSurvivesCommitsAndCompaction: a Snapshot never changes. One
// taken before three commits, with a compaction (a Pack of the in-memory
// index) after each of the first two, still reads every hub's first record;
// one taken after the first commit reads that commit's record; the index
// reads the last. On the in-memory index, and on a store with and without a
// block cache, whose held snapshots fail with ErrClosed once it closes.
func TestHeldSnapshotSurvivesCommitsAndCompaction(t *testing.T) {
	rec := func(nodes ...graph.NodeID) []byte {
		entries := make([]sparse.Entry, len(nodes))
		for i, n := range nodes {
			entries[i] = sparse.Entry{Node: n, Score: 0.5}
		}
		return sparse.AppendEncoded(nil, entries)
	}
	batches := [][]Record{
		{{Hub: 3, Payload: rec(40)}},
		{{Hub: 7, Payload: rec(41, 42)}},
		{{Hub: 3, Payload: rec(43)}, {Hub: 11, Payload: rec(44)}},
	}
	type index interface {
		Writer
		ViewGetter
	}
	for _, c := range []struct {
		name       string
		cacheBytes int64 // the store's; 0 is the in-memory index
	}{{"memory", 0}, {"store-nocache", -1}, {"store-blockcache", 1 << 20}} {
		t.Run(c.name, func(t *testing.T) {
			var idx index
			var compact func()
			var store *Store
			if c.cacheBytes == 0 {
				mem := NewMemIndex()
				for h, v := range sampleVectors() {
					if err := mem.Put(h, v); err != nil {
						t.Fatal(err)
					}
				}
				idx, compact = mem, func() { pack(mem) }
			} else {
				store = openTestStore(t, writeIndexFile(t, sampleVectors()), StoreOptions{BlockCacheBytes: c.cacheBytes, CompactThresholdBytes: -1}, nil)
				defer store.Close()
				idx, compact = store, func() {
					if _, err := store.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			read := func(s ViewGetter, h graph.NodeID) []byte {
				t.Helper()
				view, ok, err := s.GetView(h)
				if err != nil || !ok {
					t.Fatalf("hub %d: ok=%v err=%v", h, ok, err)
				}
				defer view.Release()
				return bytes.Clone(view.EntryBytes())
			}
			s0, err := idx.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			first := map[graph.NodeID][]byte{}
			for _, h := range []graph.NodeID{3, 7, 11} {
				first[h] = read(s0, h)
			}
			var s1 Snapshot
			for i, batch := range batches {
				snap, err := idx.Commit(GraphMutation{}, batch)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					s1 = snap
				}
				if i < 2 {
					compact()
				}
			}
			for _, want := range []struct {
				what string
				s    ViewGetter
				recs map[graph.NodeID][]byte
			}{
				{"the snapshot before the commits", s0, first},
				{"the snapshot of the first commit", s1, map[graph.NodeID][]byte{3: rec(40), 7: first[7], 11: first[11]}},
				{"the index", idx, map[graph.NodeID][]byte{3: rec(43), 7: rec(41, 42), 11: rec(44)}},
			} {
				for h, r := range want.recs {
					if got := read(want.s, h); !bytes.Equal(got, r) {
						t.Errorf("%s reads hub %d as %v, want %v", want.what, h, got, r)
					}
				}
			}
			if store == nil {
				return
			}
			store.Close()
			for _, s := range []Snapshot{s0, s1} {
				if _, _, err := s.GetView(7); !errors.Is(err, ErrClosed) {
					t.Errorf("a held snapshot of a closed store reads with %v, want ErrClosed", err)
				}
			}
		})
	}
}

// TestHeldCommitDoesNotBlockReads holds the store's mutex, as a commit does
// through its fsync and a compaction through its rewrite: reads through the
// store and through a snapshot, and the stats probes, still complete.
func TestHeldCommitDoesNotBlockReads(t *testing.T) {
	s := openTestStore(t, writeIndexFile(t, sampleVectors()), StoreOptions{}, nil)
	defer s.Close()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		for _, r := range []ViewGetter{s, snap} {
			view, ok, err := r.GetView(3)
			if err == nil && !ok {
				err = errors.New("hub 3 not found")
			}
			if err != nil {
				done <- err
				return
			}
			view.Release()
		}
		s.DurabilityStats()
		s.BlockCacheStats()
		if s.Len() != 3 || !s.Has(7) {
			done <- errors.New("directory probes are wrong")
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reads waited for the store's mutex")
	}
}

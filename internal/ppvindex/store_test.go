package ppvindex

import (
	"testing"

	"fastppv/internal/sparse"
)

// TestStoreGetViewAllocs guards the disk store's read hot path (state load →
// overlay probe → block-cache view): a warm cache hit allocates nothing,
// whether the overlay is empty or holds other hubs' rewrites.
func TestStoreGetViewAllocs(t *testing.T) {
	path := writeIndexFile(t, sampleVectors())
	s, err := OpenStore(path, GraphLogBinding{Nodes: 12, Edges: 20, Directed: true}, StoreOptions{}, nil)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer s.Close()

	const hit, rewritten = 3, 7
	read := func() {
		view, ok, err := s.GetView(hit)
		if err != nil || !ok || view.Len() != 3 {
			t.Fatalf("GetView(%d): len=%d ok=%v err=%v", hit, view.Len(), ok, err)
		}
		view.Release()
	}
	read() // warm the block cache
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("warm hit with an empty overlay allocates %v times, want 0", allocs)
	}

	payload := sparse.AppendEncoded(nil, []sparse.Entry{{Node: 7, Score: 0.2}})
	if err := s.PutEncoded(rewritten, payload); err != nil {
		t.Fatalf("PutEncoded: %v", err)
	}
	if ds, _ := s.DurabilityStats(); ds.OverlayHubs != 1 {
		t.Fatalf("overlay holds %d hubs, want 1", ds.OverlayHubs)
	}
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("warm hit past a non-empty overlay allocates %v times, want 0", allocs)
	}
}

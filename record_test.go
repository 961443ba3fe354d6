package fastppv

import (
	"bytes"
	"path/filepath"
	"testing"

	"fastppv/internal/hub"
	"fastppv/internal/ppvindex"
)

// recordBytes reads the record of h through idx and returns a copy of its
// payload.
func recordBytes(t testing.TB, name string, idx ppvindex.ViewGetter, h NodeID) []byte {
	t.Helper()
	view, ok, err := idx.GetView(h)
	if err != nil || !ok {
		t.Fatalf("%s: GetView(%d): ok=%v err=%v", name, h, ok, err)
	}
	defer view.Release()
	return append([]byte(nil), view.EntryBytes()...)
}

// TestHubRecordIsTheSameBytesEverywhere: a hub's prime PPV has one form. The
// payload Precompute hands the in-memory index is, byte for byte, what the
// disk file holds and what a pread index, an mmap index and the block cache
// (miss and hit) serve back.
func TestHubRecordIsTheSameBytesEverywhere(t *testing.T) {
	g := buildTestGraph(t, 400, 4, 23)
	opts := Options{NumHubs: 40}
	mem, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Precompute(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.ppv")
	buildDiskIndex(t, g, opts.NumHubs, path)

	pread, err := ppvindex.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pread.Close()
	mapped, err := ppvindex.OpenDiskWithOptions(path, ppvindex.DiskOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	cache := ppvindex.NewBlockCache(pread, 1<<20, 2)

	hubs := mem.Index().Hubs()
	if len(hubs) != opts.NumHubs || pread.Len() != len(hubs) {
		t.Fatalf("%d hubs in memory, %d on disk, want %d", len(hubs), pread.Len(), opts.NumHubs)
	}
	for _, h := range hubs {
		want := recordBytes(t, "mem", mem.Index(), h)
		if len(want) == 0 {
			t.Fatalf("hub %d has an empty record", h)
		}
		for _, src := range []struct {
			name string
			idx  ppvindex.ViewGetter
		}{{"pread", pread}, {"mmap", mapped}, {"blockcache miss", cache}, {"blockcache hit", cache}} {
			if got := recordBytes(t, src.name, src.idx, h); !bytes.Equal(got, want) {
				t.Fatalf("hub %d: %s serves %d bytes that differ from the in-memory record (%d bytes)", h, src.name, len(got), len(want))
			}
		}
	}
	if st := cache.Stats(); st.Hits != int64(len(hubs)) || st.Loads != int64(len(hubs)) {
		t.Errorf("block cache stats %+v, want %d loads and %d hits", st, len(hubs), len(hubs))
	}
}

// TestRewrittenRecordIsServedAsAView: after an update on a finalized disk
// store, GetView of a recomputed hub returns the rewritten record — from the
// overlay, then from the replayed update log after a reopen, then from the
// compacted base file — and it is the record a fresh Precompute on the updated
// graph produces.
func TestRewrittenRecordIsServedAsAView(t *testing.T) {
	for name, dio := range map[string]DiskIndexOptions{
		"pread+blockcache": {BlockCacheBytes: 1 << 20},
		"mmap":             {BlockCacheBytes: -1, Mmap: true},
	} {
		t.Run(name, func(t *testing.T) {
			g := buildTestGraph(t, 300, 4, 29)
			opts := Options{NumHubs: 30}
			path := filepath.Join(t.TempDir(), "index.ppv")
			buildDiskIndex(t, g, opts.NumHubs, path)

			engine, closeIndex, err := OpenDiskIndexWithOptions(g, opts, path, dio)
			if err != nil {
				t.Fatal(err)
			}
			from := engine.Hubs().Hubs()[0]
			stale := recordBytes(t, "before the update", engine.Index(), from) // also fills the block cache
			ustats, err := engine.ApplyUpdate(GraphUpdate{AddedEdges: []Edge{{From: from, To: 250}}})
			if err != nil {
				t.Fatal(err)
			}
			if len(ustats.Recomputed) == 0 {
				t.Fatal("an edge out of a hub should recompute at least that hub")
			}

			// The same hub set on the updated graph, precomputed from scratch.
			fresh := opts
			fresh.PageRank, fresh.HubPolicy = make([]float64, engine.Graph().NumNodes()), hub.ByPageRank
			for rank, h := range engine.Hubs().Hubs() {
				fresh.PageRank[h] = 1 - float64(rank)*1e-6
			}
			want, err := New(engine.Graph(), fresh)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.Precompute(); err != nil {
				t.Fatal(err)
			}
			check := func(stage string, e *Engine) {
				t.Helper()
				for _, h := range e.Hubs().Hubs() { // rewritten and untouched hubs alike
					if got := recordBytes(t, stage, e.Index(), h); !bytes.Equal(got, recordBytes(t, "fresh", want.Index(), h)) {
						t.Fatalf("%s: hub %d is not the record a fresh precompute gives", stage, h)
					}
				}
				if bytes.Equal(recordBytes(t, stage, e.Index(), from), stale) {
					t.Fatalf("%s: hub %d still serves its pre-update record", stage, from)
				}
			}
			check("overlay", engine)
			if err := closeIndex(); err != nil {
				t.Fatal(err)
			}

			// Restart on the original graph file: the logged batch replays.
			engine, closeIndex, err = OpenDiskIndexWithOptions(g, opts, path, dio)
			if err != nil {
				t.Fatal(err)
			}
			defer closeIndex()
			if ds := durabilityOf(t, engine); ds.OverlayHubs != len(ustats.Recomputed) {
				t.Fatalf("replay restored %d overlay hubs, want %d", ds.OverlayHubs, len(ustats.Recomputed))
			}
			check("replayed log", engine)
			if res := compactIndex(t, engine); res.RewrittenHubs != len(ustats.Recomputed) {
				t.Fatalf("compaction rewrote %d hubs, want %d", res.RewrittenHubs, len(ustats.Recomputed))
			}
			if ds := durabilityOf(t, engine); ds.OverlayHubs != 0 {
				t.Fatalf("%d overlay hubs survive the compaction", ds.OverlayHubs)
			}
			check("compacted base", engine)
		})
	}
}

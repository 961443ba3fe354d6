package fastppv

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fastppv/internal/gen"
	"fastppv/internal/hub"
	"fastppv/internal/ppvindex"
	"fastppv/internal/prime"
	"fastppv/internal/sparse"
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
// disk file holds and what the disk index and the block cache (miss and hit)
// serve back.
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

	disk, err := ppvindex.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	cache := ppvindex.NewBlockCache(disk, 1<<20, 2)

	hubs := mem.Index().Hubs()
	if len(hubs) != opts.NumHubs || disk.Len() != len(hubs) {
		t.Fatalf("%d hubs in memory, %d on disk, want %d", len(hubs), disk.Len(), opts.NumHubs)
	}
	for _, h := range hubs {
		want := recordBytes(t, "mem", mem.Index(), h)
		if len(want) == 0 {
			t.Fatalf("hub %d has an empty record", h)
		}
		for _, src := range []struct {
			name string
			idx  ppvindex.ViewGetter
		}{{"disk", disk}, {"blockcache miss", cache}, {"blockcache hit", cache}} {
			if got := recordBytes(t, src.name, src.idx, h); !bytes.Equal(got, want) {
				t.Fatalf("hub %d: %s serves %d bytes that differ from the in-memory record (%d bytes)", h, src.name, len(got), len(want))
			}
		}
	}
	if st := cache.Stats(); st.Hits != int64(len(hubs)) || st.Loads != int64(len(hubs)) {
		t.Errorf("block cache stats %+v, want %d loads and %d hits", st, len(hubs), len(hubs))
	}
}

// TestHubRecordLayoutSize is the gate on the record layout's size: a record
// costs 8 bytes (hub id, payload length) plus its entries, each a uvarint gap
// (node − previous node − 1, the first entry's gap its node id) and a 2-byte
// score code, in memory; the disk file adds a 12-byte directory slot a hub
// and the 16-byte footer. The entries are counted here from the decoded
// records, independently of the encoder. sparse.EncodedEntrySize stays the
// fixed-width size, 8, which only the benchmark harness reads.
func TestHubRecordLayoutSize(t *testing.T) {
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 3000, OutDegreeMean: 6, Attachment: 0.8, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumHubs: 300}
	mem, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Precompute(); err != nil {
		t.Fatal(err)
	}
	if sparse.EncodedEntrySize != 8 {
		t.Fatalf("the fixed-width entry size is %d bytes, want 8", sparse.EncodedEntrySize)
	}
	hubs := int64(mem.Index().Len())
	var entries, payload int64
	for _, h := range mem.Index().Hubs() {
		prev := NodeID(-1)
		for _, e := range sparse.AppendDecoded(nil, recordBytes(t, "mem", mem.Index(), h)) {
			gap := uint64(e.Node - prev - 1)
			payload += 2 + int64(len(binary.AppendUvarint(nil, gap)))
			prev = e.Node
			entries++
		}
	}
	want := 8*hubs + payload
	if got := mem.Index().SizeBytes(); hubs != int64(opts.NumHubs) || got != want {
		t.Fatalf("MemIndex of %d hubs and %d entries is %d bytes, want %d", hubs, entries, got, want)
	}
	if payload >= 4*entries {
		t.Errorf("%d entries take %d payload bytes, %.2f an entry; want under 4", entries, payload, float64(payload)/float64(entries))
	}
	path := filepath.Join(t.TempDir(), "index.ppv")
	buildDiskIndex(t, g, opts.NumHubs, path)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Size(); got != want+12*hubs+16 {
		t.Fatalf("the index file is %d bytes, want %d", got, want+12*hubs+16)
	}
}

// TestIndexSizeIsPinned pins the index of one seeded graph to exact byte
// counts, in memory (SizeBytes) and on disk (the file), so any change to the
// record layout or to what precompute stores shows here. Every record must
// decode to the entries of a fresh prime push passed through StoredScore, and
// the disk index and the in-memory one must answer 50 sources bit for bit
// alike.
func TestIndexSizeIsPinned(t *testing.T) {
	const memBytes, fileBytes = 47_457, 51_073
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 3000, OutDegreeMean: 6, Attachment: 0.8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumHubs: 300}
	mem, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Precompute(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.ppv")
	buildDiskIndex(t, g, opts.NumHubs, path)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.Index().SizeBytes(); got != memBytes {
		t.Errorf("the in-memory index is %d bytes, want %d", got, memBytes)
	}
	if st.Size() != fileBytes {
		t.Errorf("the index file is %d bytes, want %d", st.Size(), fileBytes)
	}

	o := mem.Options()
	var scratch prime.Scratch
	for _, h := range mem.Index().Hubs() {
		pushed, _, err := scratch.Push(g, h, mem.Hubs(), prime.Options{Alpha: o.Alpha, Epsilon: o.Epsilon, MaxPushes: o.MaxPushes}, o.Clip)
		if err != nil {
			t.Fatal(err)
		}
		stored := sparse.AppendDecoded(nil, recordBytes(t, "mem", mem.Index(), h))
		if len(stored) != len(pushed) {
			t.Fatalf("hub %d: the record holds %d entries, the push %d", h, len(stored), len(pushed))
		}
		for i, e := range pushed {
			if stored[i].Node != e.Node || math.Float64bits(stored[i].Score) != math.Float64bits(sparse.StoredScore(e.Score)) {
				t.Fatalf("hub %d entry %d: stored (%d, %v), pushed (%d, %v)", h, i, stored[i].Node, stored[i].Score, e.Node, e.Score)
			}
		}
	}

	disk, closeDisk, err := OpenDiskIndex(g, opts, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeDisk()
	for i := 0; i < 50; i++ {
		q := NodeID(i * 59)
		want, err := mem.Query(q, DefaultStop())
		if err != nil {
			t.Fatal(err)
		}
		got, err := disk.Query(q, DefaultStop())
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.L1ErrorBound) != math.Float64bits(want.L1ErrorBound) || len(got.Entries) != len(want.Entries) {
			t.Fatalf("source %d: the disk index answers %d entries at bound %v, memory %d at %v",
				q, len(got.Entries), got.L1ErrorBound, len(want.Entries), want.L1ErrorBound)
		}
		for j, e := range want.Entries {
			if got.Entries[j].Node != e.Node || math.Float64bits(got.Entries[j].Score) != math.Float64bits(e.Score) {
				t.Fatalf("source %d entry %d: disk (%d, %v), memory (%d, %v)", q, j, got.Entries[j].Node, got.Entries[j].Score, e.Node, e.Score)
			}
		}
	}
}

// TestRewrittenRecordIsServedAsAView: after an update on a finalized disk
// store, GetView of a recomputed hub returns the rewritten record — from the
// overlay, then from the replayed update log after a reopen, then from the
// compacted base file — and it is the record a fresh Precompute on the updated
// graph produces.
func TestRewrittenRecordIsServedAsAView(t *testing.T) {
	for name, dio := range map[string]DiskIndexOptions{
		"mmap+blockcache": {BlockCacheBytes: 1 << 20},
		"mmap":            {BlockCacheBytes: -1},
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

package ppvindex

import (
	"os"
	"path/filepath"
	"testing"

	"fastppv/internal/corpus"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// TestRegenLogCorpora writes the committed seed corpora of the ppvindex fuzz
// targets, building the valid seeds with the real log writers (same bindings
// as the fuzz targets) and deriving the corrupt ones from them. Gated behind
// PPV_REGEN_CORPUS=1.
func TestRegenLogCorpora(t *testing.T) {
	corpus.SkipUnlessRegen(t)
	dir := t.TempDir()

	// FPL1 update log: two committed records plus one uncommitted (torn).
	upath := filepath.Join(dir, "update.log")
	ul, err := OpenUpdateLog(upath, fuzzUpdateBaseBytes, fuzzUpdateBaseHubs, func(graph.NodeID, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := ul.Append(3, sparse.Vector{1: 0.5, 8: 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := ul.Append(9, sparse.Vector{2: 1e-9}); err != nil {
		t.Fatal(err)
	}
	if err := ul.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ul.Close(); err != nil {
		t.Fatal(err)
	}
	uvalid, err := os.ReadFile(upath)
	if err != nil {
		t.Fatal(err)
	}
	ubadcrc := append([]byte(nil), uvalid...)
	ubadcrc[len(ubadcrc)-1] ^= 0xFF
	corpus.Write(t, "FuzzUpdateLogReplay",
		uvalid,
		uvalid[:len(uvalid)-5], // torn tail mid-frame
		ubadcrc,                // checksum mismatch on the last frame
		uvalid[:headerLen(t)],  // bare header, zero records
		[]byte("NOPE"),         // foreign magic
	)

	// FPG1 graph log: one mutation batch.
	gpath := filepath.Join(dir, "graph.log")
	gl, err := OpenGraphLog(gpath, fuzzGraphBinding, func(GraphMutation) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	err = gl.Append(GraphMutation{
		AddedEdges:   []graph.Edge{{From: 1, To: 2}, {From: 2, To: 3}},
		RemovedEdges: []graph.Edge{{From: 3, To: 1}},
		NumNodes:     100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := gl.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := gl.Close(); err != nil {
		t.Fatal(err)
	}
	gvalid, err := os.ReadFile(gpath)
	if err != nil {
		t.Fatal(err)
	}
	gbadcrc := append([]byte(nil), gvalid...)
	gbadcrc[len(gbadcrc)-1] ^= 0xFF
	corpus.Write(t, "FuzzGraphLogReplay",
		gvalid,
		gvalid[:len(gvalid)-5],
		gbadcrc,
		[]byte("NOPE"),
	)

	// Disk hub records: a canonical record, a truncated one, and one whose
	// declared count disagrees with its length.
	rec := encodeRecord(7, sparse.Vector{3: 0.25, 9: 1e-12, 11: -0.5})
	badcount := append([]byte(nil), rec...)
	badcount[4] ^= 0x01
	corpus.Write(t, "FuzzDiskRecordDecode",
		rec,
		rec[:len(rec)-4],
		badcount,
		encodeRecord(0, nil),
	)
}

// headerLen returns the update log's header size by writing an empty log.
func headerLen(t *testing.T) int {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.log")
	l, err := OpenUpdateLog(path, fuzzUpdateBaseBytes, fuzzUpdateBaseHubs, func(graph.NodeID, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return int(st.Size())
}

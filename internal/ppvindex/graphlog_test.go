package ppvindex

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fastppv/internal/frame"
	"fastppv/internal/graph"
)

var testBinding = GraphLogBinding{Nodes: 100, Edges: 400, Directed: true}

// collectMutations returns a replay callback appending into dst.
func collectMutations(dst *[]GraphMutation) func(GraphMutation) error {
	return func(m GraphMutation) error {
		*dst = append(*dst, m)
		return nil
	}
}

func TestGraphLogAppendCommitReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.graphlog")
	l, err := OpenGraphLog(path, testBinding, nil)
	if err != nil {
		t.Fatalf("OpenGraphLog: %v", err)
	}
	m1 := GraphMutation{
		AddedEdges:   []graph.Edge{{From: 1, To: 2}, {From: 3, To: 4}},
		RemovedEdges: []graph.Edge{{From: 5, To: 6}},
	}
	m2 := GraphMutation{AddedEdges: []graph.Edge{{From: 7, To: 8}}, NumNodes: 120}
	if err := l.Append(m1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(m2); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 2 {
		t.Errorf("Records = %d, want 2", l.Records())
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var replayed []GraphMutation
	l2, err := OpenGraphLog(path, testBinding, collectMutations(&replayed))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if len(replayed) != 2 {
		t.Fatalf("replayed %d batches, want 2", len(replayed))
	}
	got := replayed[0]
	if len(got.AddedEdges) != 2 || len(got.RemovedEdges) != 1 ||
		got.AddedEdges[1] != (graph.Edge{From: 3, To: 4}) || got.RemovedEdges[0] != (graph.Edge{From: 5, To: 6}) {
		t.Errorf("first batch replayed as %+v, want %+v", got, m1)
	}
	if replayed[1].NumNodes != 120 || len(replayed[1].AddedEdges) != 1 || replayed[1].RemovedEdges != nil {
		t.Errorf("second batch replayed as %+v, want %+v", replayed[1], m2)
	}
	if l2.Records() != 2 || l2.SizeBytes() <= graphLogHeaderBytes {
		t.Errorf("reopened log: %d records, %d bytes", l2.Records(), l2.SizeBytes())
	}
}

// TestGraphLogTruncatesTornTail simulates a crash mid-append: a partial frame
// at the end of the log must be dropped on open, keeping every complete frame
// before it.
func TestGraphLogTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.graphlog")
	l, err := OpenGraphLog(path, testBinding, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(GraphMutation{AddedEdges: []graph.Edge{{From: 1, To: 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	goodSize := l.SizeBytes()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Torn append: a frame header promising more payload than the file holds.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, frame.Overhead+7) // header + 7 of the promised 20 bytes
	binary.LittleEndian.PutUint32(torn[0:], 20)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var replayed []GraphMutation
	l2, err := OpenGraphLog(path, testBinding, collectMutations(&replayed))
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer l2.Close()
	if len(replayed) != 1 || len(replayed[0].AddedEdges) != 1 {
		t.Fatalf("replayed %v, want just the committed batch", replayed)
	}
	if l2.SizeBytes() != goodSize {
		t.Errorf("log size after truncation = %d, want %d", l2.SizeBytes(), goodSize)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != goodSize {
		t.Errorf("file size = %d (%v), want %d", st.Size(), err, goodSize)
	}
}

// TestGraphLogStopsAtCorruptFrame flips a payload bit mid-log: the CRC
// mismatch must stop replay at the corrupt frame, keeping earlier frames.
func TestGraphLogStopsAtCorruptFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.graphlog")
	l, err := OpenGraphLog(path, testBinding, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(GraphMutation{AddedEdges: []graph.Edge{{From: 1, To: 2}}}); err != nil {
		t.Fatal(err)
	}
	firstEnd := l.SizeBytes()
	if err := l.Append(GraphMutation{RemovedEdges: []graph.Edge{{From: 3, To: 4}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[firstEnd+frame.Overhead+3] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var replayed []GraphMutation
	l2, err := OpenGraphLog(path, testBinding, collectMutations(&replayed))
	if err != nil {
		t.Fatalf("reopen with corrupt frame: %v", err)
	}
	defer l2.Close()
	if len(replayed) != 1 || len(replayed[0].AddedEdges) != 1 {
		t.Fatalf("replayed %v, want just the pre-corruption batch", replayed)
	}
	if l2.SizeBytes() != firstEnd {
		t.Errorf("log truncated to %d, want %d", l2.SizeBytes(), firstEnd)
	}
}

// TestGraphLogCloseDiscardsUncommitted: frames appended by a batch whose
// commit never ran (the update failed) must not survive Close — flushing them
// would hand a restarted replica a graph and epoch whose PPV half was never
// durable.
func TestGraphLogCloseDiscardsUncommitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.graphlog")
	l, err := OpenGraphLog(path, testBinding, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(GraphMutation{AddedEdges: []graph.Edge{{From: 1, To: 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	committedSize := l.SizeBytes()
	if err := l.Append(GraphMutation{AddedEdges: []graph.Edge{{From: 3, To: 4}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != committedSize {
		t.Errorf("file size after close = %d (%v), want the committed %d", st.Size(), err, committedSize)
	}
	var replayed []GraphMutation
	l2, err := OpenGraphLog(path, testBinding, collectMutations(&replayed))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(replayed) != 1 || replayed[0].AddedEdges[0] != (graph.Edge{From: 1, To: 2}) {
		t.Fatalf("replayed %v, want only the committed batch", replayed)
	}
}

func TestGraphLogRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.graphlog")
	if err := os.WriteFile(path, []byte("definitely not a graph-mutation log file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenGraphLog(path, testBinding, nil); !errors.Is(err, ErrBadIndexFormat) {
		t.Fatalf("OpenGraphLog on a foreign file = %v, want ErrBadIndexFormat", err)
	}
}

// TestGraphLogTornHeader covers a crash before the header itself was fully
// written: the open must recover by rewriting a fresh header.
func TestGraphLogTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.graphlog")
	if err := os.WriteFile(path, []byte{0x46, 0x50, 0x47}, 0o644); err != nil { // 3 of 32 header bytes
		t.Fatal(err)
	}
	l, err := OpenGraphLog(path, testBinding, func(GraphMutation) error {
		t.Fatal("nothing should replay from a torn header")
		return nil
	})
	if err != nil {
		t.Fatalf("OpenGraphLog on a torn header: %v", err)
	}
	defer l.Close()
	if l.SizeBytes() != graphLogHeaderBytes || l.Records() != 0 {
		t.Errorf("recovered log: %d bytes, %d records", l.SizeBytes(), l.Records())
	}
}

// TestGraphLogDiscardsMismatchedBinding: a log whose header binds it to a
// different base graph (the -graph file was swapped or regenerated) must be
// discarded on open, not replayed onto a graph it does not describe.
func TestGraphLogDiscardsMismatchedBinding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.graphlog")
	l, err := OpenGraphLog(path, testBinding, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(GraphMutation{AddedEdges: []graph.Edge{{From: 1, To: 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for _, bind := range []GraphLogBinding{
		{Nodes: 101, Edges: 400, Directed: true},
		{Nodes: 100, Edges: 401, Directed: true},
		{Nodes: 100, Edges: 400, Directed: false},
	} {
		l2, err := OpenGraphLog(path, bind, func(GraphMutation) error {
			t.Fatalf("batch replayed despite binding mismatch %+v", bind)
			return nil
		})
		if err != nil {
			t.Fatalf("OpenGraphLog with mismatched binding: %v", err)
		}
		if l2.SizeBytes() != graphLogHeaderBytes || l2.Records() != 0 {
			t.Errorf("mismatched log not discarded: %d bytes, %d records", l2.SizeBytes(), l2.Records())
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		// Re-seed a committed batch under the mismatching binding so the next
		// iteration mismatches against non-empty content again.
		l3, err := OpenGraphLog(path, bind, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := l3.Append(GraphMutation{AddedEdges: []graph.Edge{{From: 9, To: 1}}}); err != nil {
			t.Fatal(err)
		}
		if err := l3.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := l3.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A matching binding replays the batch committed under it.
	var replayed []GraphMutation
	l4, err := OpenGraphLog(path, GraphLogBinding{Nodes: 100, Edges: 400, Directed: false},
		collectMutations(&replayed))
	if err != nil {
		t.Fatal(err)
	}
	defer l4.Close()
	if len(replayed) != 1 || replayed[0].AddedEdges[0] != (graph.Edge{From: 9, To: 1}) {
		t.Fatalf("replayed %v, want the re-bound batch", replayed)
	}
}

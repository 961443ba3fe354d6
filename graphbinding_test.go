package fastppv

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fastppv/internal/gen"
)

// TestOpenBesideAnotherGraphKeepsTheLog: a disk index that committed five
// updates, reopened beside a graph of the same size from another seed, fails
// with ErrGraphMismatch and leaves its update log byte for byte as it was;
// reopened beside its own graph it is still at epoch 5. (Opening beside the
// wrong graph used to rewrite the log down to its header, losing the five
// updates, and then served bounds below the true error.)
func TestOpenBesideAnotherGraphKeepsTheLog(t *testing.T) {
	cfg := gen.SocialConfig{Nodes: 3000, OutDegreeMean: 6, Attachment: 0.8, Seed: 41}
	g, err := gen.SocialGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 42
	other, err := gen.SocialGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if other.NumEdges() == g.NumEdges() {
		t.Fatal("the two graphs have equal counts, which the log binding cannot tell apart; pick another seed")
	}
	opts := Options{NumHubs: 300}
	path := filepath.Join(t.TempDir(), "index.ppv")
	buildDiskIndex(t, g, opts.NumHubs, path)
	engine, closeIndex, err := OpenDiskIndex(g, opts, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := engine.ApplyUpdate(GraphUpdate{AddedEdges: []Edge{{From: NodeID(i), To: NodeID(1000 + i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := closeIndex(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}

	if _, closeOther, err := OpenDiskIndex(other, opts, path, 0); !errors.Is(err, ErrGraphMismatch) {
		if err == nil {
			closeOther()
		}
		t.Fatalf("OpenDiskIndex beside another graph = %v, want ErrGraphMismatch", err)
	}
	if after, err := os.ReadFile(path + ".log"); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the refused open changed the update log: %d bytes before, %d after (err=%v)", len(before), len(after), err)
	}
	reopened, closeReopened, err := OpenDiskIndex(g, opts, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer closeReopened()
	if reopened.Epoch() != 5 || reopened.Graph().NumEdges() != g.NumEdges()+5 {
		t.Errorf("reopened beside its own graph at epoch %d over %d edges, want 5 and %d", reopened.Epoch(), reopened.Graph().NumEdges(), g.NumEdges()+5)
	}
}

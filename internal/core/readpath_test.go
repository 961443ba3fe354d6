package core

import (
	"errors"
	"testing"

	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
	"fastppv/internal/sparse"
)

var errRecordRead = errors.New("record read failed")

// failingIndex is a MemIndex whose reads of one hub fail, and are counted,
// through either read method.
type failingIndex struct {
	*ppvindex.MemIndex
	bad   graph.NodeID
	reads int
}

func (f *failingIndex) GetView(h graph.NodeID) (ppvindex.HubRecordView, bool, error) {
	if h == f.bad {
		f.reads++
		return ppvindex.HubRecordView{}, false, errRecordRead
	}
	return f.MemIndex.GetView(h)
}

func (f *failingIndex) Get(h graph.NodeID) (sparse.Vector, bool, error) {
	return ppvindex.VectorOf(f, h)
}

// TestFailedRecordReadIsReadOnce: the engine has one read path, so a record
// that fails to read is read once per attempt — iteration 0 returns the
// error, Step recomputes the hub on the fly (with the storage clip off, to the
// very entries the record holds), PartialExpand returns the error.
func TestFailedRecordReadIsReadOnce(t *testing.T) {
	g, err := gen.RandomDirected(120, 4, 5)
	if err != nil {
		t.Fatalf("RandomDirected: %v", err)
	}
	store := &failingIndex{MemIndex: ppvindex.NewMemIndex(), bad: -1}
	var engines [2]*Engine // healthy, failing
	for i, idx := range []IndexStore{nil, store} {
		if engines[i], err = NewEngine(g, idx, exactOptions(12)); err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		if err := engines[i].Precompute(); err != nil {
			t.Fatalf("Precompute: %v", err)
		}
	}
	healthy, failing := engines[0], engines[1]

	// A non-hub source and a hub its first Step expands.
	src := nonHubSources(healthy, 0, 1)[0]
	qs, err := healthy.NewQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	qs.Step()
	deps := qs.HubDeps()
	qs.Close()
	if len(deps) == 0 {
		t.Fatalf("source %d expands no hub in one step; the test needs a different graph", src)
	}
	bad := deps[0]
	store.bad = bad

	if _, err := failing.NewQuery(bad); !errors.Is(err, errRecordRead) {
		t.Errorf("iteration 0 on the unreadable hub = %v, want the read error", err)
	}
	if store.reads != 1 {
		t.Errorf("iteration 0 read the failing record %d times, want 1", store.reads)
	}

	store.reads = 0
	stop := StopCondition{MaxIterations: 1}
	got, err := failing.Query(src, stop)
	if err != nil {
		t.Fatalf("Query(%d) over a failing hub record: %v", src, err)
	}
	want, err := healthy.Query(src, stop)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "recomputed on the fly", src, got, want)
	if g, w := got.PerIteration[1], want.PerIteration[1]; g.HubsExpanded != w.HubsExpanded || g.HubsSkipped != w.HubsSkipped {
		t.Errorf("Step expanded %d and skipped %d hubs, the healthy engine %d and %d", g.HubsExpanded, g.HubsSkipped, w.HubsExpanded, w.HubsSkipped)
	}
	if store.reads != 1 {
		t.Errorf("Step read the failing record %d times, want 1", store.reads)
	}

	store.reads = 0
	if _, err := failing.PartialExpand(map[graph.NodeID]float64{bad: 0.25}); !errors.Is(err, errRecordRead) {
		t.Errorf("PartialExpand over the unreadable hub = %v, want the read error", err)
	}
	if store.reads != 1 {
		t.Errorf("PartialExpand read the failing record %d times, want 1", store.reads)
	}
}

package core

import (
	"path/filepath"
	"slices"
	"testing"

	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
)

// TestHeldQueryReadsItsVersion: a query reads the engine version it started
// on. Opened at version v, held through ten updates that touch nodes its
// answer reaches and one compaction (a repack of the in-memory index), and
// only then stepped to eta 4, it returns bit for bit what the same query
// returns on a replica engine frozen at v, over the in-memory index and over
// a disk store.
func TestHeldQueryReadsItsVersion(t *testing.T) {
	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: 400, OutDegreeMean: 5, Attachment: 0.8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NumHubs: 40}
	stop := StopCondition{MaxIterations: 4}
	frozen, err := NewEngine(g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := frozen.Precompute(); err != nil {
		t.Fatal(err)
	}
	src := nonHubSources(frozen, 0, 1)[0]
	want, err := frozen.Query(src, stop)
	if err != nil {
		t.Fatal(err)
	}
	if want.Iterations < 4 {
		t.Fatalf("source %d stops after %d iterations; the test needs a longer schedule", src, want.Iterations)
	}

	for _, disk := range []bool{false, true} {
		name := map[bool]string{false: "memory", true: "disk"}[disk]
		t.Run(name, func(t *testing.T) {
			var idx IndexStore
			var compact func() error
			if disk {
				store, err := ppvindex.CreateStore(filepath.Join(t.TempDir(), "index.ppv"),
					ppvindex.GraphBinding{Nodes: g.NumNodes(), Edges: g.NumEdges(), Directed: g.Directed()},
					ppvindex.StoreOptions{CompactThresholdBytes: -1})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { store.Close() })
				idx, compact = store, func() error { _, err := store.Compact(); return err }
			} else {
				mem := ppvindex.NewMemIndex()
				idx, compact = mem, func() error {
					// A batch of every hub's own record repacks the index
					// and changes no record.
					var recs []ppvindex.Record
					for _, h := range mem.Hubs() {
						view, _, _ := mem.GetView(h)
						recs = append(recs, ppvindex.Record{Hub: h, Payload: view.EntryBytes()})
					}
					_, err := mem.Commit(GraphUpdate{}, recs)
					return err
				}
			}
			e, err := NewEngine(g, idx, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Precompute(); err != nil {
				t.Fatal(err)
			}
			held, err := e.NewQuery(src)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				from := want.Entries[(i*7)%len(want.Entries)].Node
				to := graph.NodeID((int(from) + 37*i + 1) % g.NumNodes())
				if _, err := e.ApplyUpdate(GraphUpdate{AddedEdges: []graph.Edge{{From: from, To: to}}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := compact(); err != nil {
				t.Fatal(err)
			}
			got := held.Run(stop)
			held.Close()
			if held.Epoch() != 0 || e.Epoch() != 10 {
				t.Errorf("the held query is at epoch %d and the engine at %d, want 0 and 10", held.Epoch(), e.Epoch())
			}
			if got.L1ErrorBound != want.L1ErrorBound || !slices.Equal(got.Entries, want.Entries) {
				t.Errorf("the held query answered bound %v over %d entries; the replica frozen at its version %v over %d",
					got.L1ErrorBound, len(got.Entries), want.L1ErrorBound, len(want.Entries))
			}
			now, err := e.Query(src, stop)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Equal(now.Entries, want.Entries) {
				t.Fatal("the updates did not change this query's answer; the test needs other updates")
			}
		})
	}
}

// blockingIndex is a MemIndex whose Commit reports on entered that an update
// has scanned and recomputed, then waits for release.
type blockingIndex struct {
	*ppvindex.MemIndex
	entered, release chan struct{}
}

func (b *blockingIndex) Commit(m GraphUpdate, records []ppvindex.Record) (ppvindex.Snapshot, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.MemIndex.Commit(m, records)
}

// TestHeldUpdateDoesNotBlockQueries holds an update before its commit: a
// query, a partial root and a partial expansion started meanwhile complete,
// on the version before the update, and the update then publishes the next.
func TestHeldUpdateDoesNotBlockQueries(t *testing.T) {
	g, err := gen.RandomDirected(120, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	idx := &blockingIndex{MemIndex: ppvindex.NewMemIndex(), entered: make(chan struct{}), release: make(chan struct{})}
	e, err := NewEngine(g, idx, exactOptions(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	stop := StopCondition{MaxIterations: 3}
	src := nonHubSources(e, 0, 1)[0]
	want, err := e.Query(src, stop)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.ApplyUpdate(GraphUpdate{AddedEdges: []graph.Edge{{From: src, To: (src + 1) % 120}}})
		done <- err
	}()
	<-idx.entered

	got, err := e.Query(src, stop)
	if err != nil {
		t.Fatal(err)
	}
	if got.L1ErrorBound != want.L1ErrorBound || !slices.Equal(got.Entries, want.Entries) {
		t.Error("a query during the held update did not read the version before it")
	}
	root, err := e.PartialRootSorted(src)
	if err != nil {
		t.Fatal(err)
	}
	part, err := e.PartialExpand(root.FrontierNodes, root.FrontierScores)
	if err != nil {
		t.Fatal(err)
	}
	if root.Epoch != 0 || part.Epoch != 0 || e.Epoch() != 0 {
		t.Errorf("during the held update the partials read epochs %d and %d, the engine %d; want 0", root.Epoch, part.Epoch, e.Epoch())
	}
	close(idx.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != 1 {
		t.Errorf("epoch %d after the update, want 1", e.Epoch())
	}
}

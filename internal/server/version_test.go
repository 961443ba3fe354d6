package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastppv/internal/api"
	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
)

// hookIndex is an in-memory index with test hooks on the engine's read and
// commit paths. Reads go through the snapshots it hands out: while readGate
// is set they wait for it to close, and failReads of them fail. A commit
// reports on commitEntered and waits for commitGate to close, when set.
type hookIndex struct {
	*ppvindex.MemIndex
	readGate      atomic.Pointer[chan struct{}]
	failReads     atomic.Int32
	commitEntered chan struct{}
	commitGate    chan struct{}
}

var errHookRead = errors.New("injected record read failure")

func (x *hookIndex) Snapshot() (ppvindex.Snapshot, error) {
	s, err := x.MemIndex.Snapshot()
	return hookSnapshot{s, x}, err
}

func (x *hookIndex) Commit(m ppvindex.GraphMutation, records []ppvindex.Record) (ppvindex.Snapshot, error) {
	if x.commitGate != nil {
		x.commitEntered <- struct{}{}
		<-x.commitGate
	}
	s, err := x.MemIndex.Commit(m, records)
	return hookSnapshot{s, x}, err
}

type hookSnapshot struct {
	ppvindex.Snapshot
	x *hookIndex
}

func (s hookSnapshot) GetView(h graph.NodeID) (ppvindex.HubRecordView, bool, error) {
	if gate := s.x.readGate.Load(); gate != nil {
		<-*gate
	}
	if s.x.failReads.Add(-1) >= 0 {
		return ppvindex.HubRecordView{}, false, errHookRead
	}
	s.x.failReads.Store(0)
	return s.Snapshot.GetView(h)
}

// hookEngine is testEngine over a hookIndex.
func hookEngine(t testing.TB, g *graph.Graph, numHubs int) (*core.Engine, *hookIndex) {
	t.Helper()
	idx := &hookIndex{MemIndex: ppvindex.NewMemIndex()}
	engine, err := core.NewEngine(g, idx, core.Options{NumHubs: numHubs})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Precompute(); err != nil {
		t.Fatal(err)
	}
	return engine, idx
}

// TestUpdateScanFailureLeavesReplicaHealthy: an update that fails before it
// commits (here one record read of its affected-hub scan) answers 5xx and
// leaves the engine on the version before it. Only a failed commit marks the
// replica inconsistent, so /healthz stays 200 and the next update applies.
func TestUpdateScanFailureLeavesReplicaHealthy(t *testing.T) {
	engine, idx := hookEngine(t, socialGraph(t, 200), 30)
	srv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	idx.failReads.Store(1)
	if status, body := post(t, ts, "/v1/update", `{"added_edges":[[1,2]]}`); status < 500 {
		t.Fatalf("update with a failing scan read = %d, want 5xx: %s", status, body)
	}
	if engine.Epoch() != 0 {
		t.Fatalf("the failed update moved the epoch to %d", engine.Epoch())
	}
	if st, _, body := get(t, ts, "/healthz"); st != http.StatusOK {
		t.Errorf("healthz after a failed scan = %d, want 200: %s", st, body)
	}
	status, body := post(t, ts, "/v1/update", `{"added_edges":[[1,2]]}`)
	if status != http.StatusOK {
		t.Fatalf("the next update = %d, want 200: %s", status, body)
	}
	var ur UpdateResponse
	if err := json.Unmarshal(body, &ur); err != nil || ur.Epoch != 1 {
		t.Errorf("the next update answered epoch %d (err %v), want 1", ur.Epoch, err)
	}
}

// TestHeldUpdateDoesNotBlockQueries holds an update between its scan and its
// commit. A query, a partial root and a stats read started meanwhile complete
// before the update is released, at the version before it; then the update
// applies.
func TestHeldUpdateDoesNotBlockQueries(t *testing.T) {
	engine, idx := hookEngine(t, socialGraph(t, 200), 30)
	srv, err := New(engine, Config{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	idx.commitEntered, idx.commitGate = make(chan struct{}), make(chan struct{})

	updated := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/update", "application/json", strings.NewReader(`{"added_edges":[[1,2]]}`))
		if err != nil {
			updated <- 0
			return
		}
		resp.Body.Close()
		updated <- resp.StatusCode
	}()
	<-idx.commitEntered

	done := make(chan error, 1)
	go func() {
		for _, path := range []string{"/v1/ppv?node=5&eta=2", "/v1/ppv?node=6&eta=3", "/v1/stats"} {
			status, _, body, err := fetch(ts, path)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("%s: status %d: %s", path, status, body)
			}
			if err != nil {
				done <- err
				return
			}
		}
		q := graph.NodeID(5)
		part, err := srv.evalPartial(&api.PartialRequest{Query: &q}, "")
		if err == nil && part.Epoch != 0 {
			err = fmt.Errorf("a partial root during the held update answered epoch %d, want 0", part.Epoch)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(idx.commitGate)
		t.Fatal("reads did not complete while an update was held before its commit")
	}
	close(idx.commitGate)
	if status := <-updated; status != http.StatusOK {
		t.Fatalf("the held update answered %d after its release, want 200", status)
	}
	if engine.Epoch() != 1 {
		t.Errorf("epoch %d after the update, want 1", engine.Epoch())
	}
}

// TestUpdateStatsReadOneVersion races /v1/stats and /metrics scrapes against
// updates that each add one node and one edge, so that epoch e is served with
// n0+e nodes and m0+e edges: no body may pair an epoch with another epoch's
// graph.
func TestUpdateStatsReadOneVersion(t *testing.T) {
	engine := testEngine(t, socialGraph(t, 200), 30)
	srv, err := New(engine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	g0 := engine.Graph()
	n0, m0 := g0.NumNodes(), g0.NumEdges()

	const updates = 30
	stop := make(chan struct{})
	var wg sync.WaitGroup
	check := func(epoch, nodes, edges int, what string) error {
		if nodes != n0+epoch || edges != m0+epoch {
			return fmt.Errorf("%s paired epoch %d with %d nodes and %d edges; want %d and %d", what, epoch, nodes, edges, n0+epoch, m0+epoch)
		}
		return nil
	}
	errs := make(chan error, 2)
	scrape := func(path string, parse func([]byte) (int, int, int, error)) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			_, _, body, err := fetch(ts, path)
			var epoch, nodes, edges int
			if err == nil {
				epoch, nodes, edges, err = parse(body)
			}
			if err == nil {
				err = check(epoch, nodes, edges, path)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}
	wg.Add(2)
	go scrape("/v1/stats", func(body []byte) (int, int, int, error) {
		var st StatsResponse
		err := json.Unmarshal(body, &st)
		return int(st.Epoch), st.Graph.Nodes, st.Graph.Edges, err
	})
	go scrape("/metrics", func(body []byte) (int, int, int, error) {
		var v [3]int
		for i, name := range []string{"fastppv_index_epoch ", "fastppv_graph_nodes ", "fastppv_graph_edges "} {
			at := strings.Index(string(body), "\n"+name)
			if at < 0 {
				return 0, 0, 0, fmt.Errorf("/metrics has no %s", name)
			}
			if _, err := fmt.Sscanf(string(body[at+1+len(name):]), "%d", &v[i]); err != nil {
				return 0, 0, 0, err
			}
		}
		return v[0], v[1], v[2], nil
	})
	for e := 0; e < updates; e++ {
		n := n0 + e
		if _, err := srv.applyUpdate(UpdateRequest{NumNodes: n + 1, AddedEdges: [][]int{{0, n}}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastppv/internal/api"
	"fastppv/internal/cluster"
	"fastppv/internal/core"
	"fastppv/internal/gen"
	"fastppv/internal/graph"
)

// The tests in this file cover the one freshness rule of the result cache: an
// answer carries the epoch it is current at, a lookup serves it only at that
// epoch, and an update's retire sweep, run after the update publishes, moves
// an answer on one epoch or drops it.

// fetch is get for goroutines other than the test's own: it reports failure
// instead of stopping the test.
func fetch(ts *httptest.Server, path string) (int, http.Header, []byte, error) {
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// freshServers serves engine through a caching server and a cache-off one,
// whose bodies are what a lookup must answer at the engine's current state.
func freshServers(t *testing.T, engine *core.Engine) (srv *Server, ts, cold *httptest.Server) {
	t.Helper()
	srv, err := New(engine, Config{MaxConcurrent: 64})
	if err != nil {
		t.Fatal(err)
	}
	coldSrv, err := New(engine, Config{CacheBytes: -1, MaxConcurrent: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts, cold = httptest.NewServer(srv.Handler()), httptest.NewServer(coldSrv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(cold.Close)
	return srv, ts, cold
}

// expectCache gets path from ts, checks its cache state and that its body is
// the cache-off server's, and returns the body.
func expectCache(t *testing.T, ts, cold *httptest.Server, path, want string) []byte {
	t.Helper()
	status, hdr, body := get(t, ts, path)
	if status != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, status, body)
	}
	if got := hdr.Get("X-Fastppv-Cache"); got != want {
		t.Errorf("%s: cache state %q, want %s", path, got, want)
	}
	if _, _, coldBody := get(t, cold, path); !bytes.Equal(body, coldBody) {
		t.Errorf("%s (%s) differs from a fresh computation:\n%s\n%s", path, want, body, coldBody)
	}
	return body
}

// applyOrFail runs the serialized half of an engine update.
func applyOrFail(t *testing.T, srv *Server, edges ...[]int) core.UpdateStats {
	t.Helper()
	stats, err := srv.applyUpdate(UpdateRequest{AddedEdges: edges})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// Paths of twoComponents queries: node 2 in the component every update below
// touches, nodes 12 and 13 in the other one.
const (
	touchedPath    = "/v1/ppv?node=2&eta=2"
	untouchedPath  = "/v1/ppv?node=12&eta=2"
	untouchedPath2 = "/v1/ppv?node=13&eta=2"
)

// TestFreshUntouchedAcrossUpdates checks that the sweep moves a valid answer
// on one epoch per update: the untouched component's answer stays a hit
// across two consecutive updates, while the touched one misses after each.
func TestFreshUntouchedAcrossUpdates(t *testing.T) {
	srv, ts, cold := freshServers(t, testEngine(t, twoComponents(t), 6))
	for _, path := range []string{touchedPath, untouchedPath} {
		expectCache(t, ts, cold, path, "miss")
	}
	for i, edge := range []string{"[2,7]", "[3,8]"} {
		status, out := post(t, ts, "/v1/update", `{"added_edges":[`+edge+`]}`)
		if status != http.StatusOK {
			t.Fatalf("update %s: %d %s", edge, status, out)
		}
		var ur UpdateResponse
		if err := json.Unmarshal(out, &ur); err != nil {
			t.Fatal(err)
		}
		if ur.Epoch != uint64(i+1) || ur.Invalidated != 1 {
			t.Errorf("update %s: epoch %d, invalidated %d; want epoch %d, invalidated 1 (node 2's answer)",
				edge, ur.Epoch, ur.Invalidated, i+1)
		}
		expectCache(t, ts, cold, touchedPath, "miss")
		expectCache(t, ts, cold, untouchedPath, "hit")
	}
	if got := srv.cache.Stats().Entries; got != 2 {
		t.Errorf("%d answers retained, want 2", got)
	}
}

// TestFreshLookupBeforeSweep drives an update's two halves apart: a lookup
// made after the commit but before the retire sweep is not served the
// pre-update answer, and counts as one miss and one invalidation, not as a
// hit. The sweep then keeps both the answer that lookup computed and the
// untouched component's.
func TestFreshLookupBeforeSweep(t *testing.T) {
	srv, ts, cold := freshServers(t, testEngine(t, twoComponents(t), 6))
	before := expectCache(t, ts, cold, touchedPath, "miss")
	expectCache(t, ts, cold, untouchedPath, "miss")

	stats := applyOrFail(t, srv, []int{2, 7})
	was := srv.cache.Stats()
	if after := expectCache(t, ts, cold, touchedPath, "miss"); bytes.Equal(before, after) {
		t.Fatalf("adding 2->7 left node 2's answer unchanged; the test needs an update that changes it")
	}
	if st := srv.cache.Stats(); st.Hits != was.Hits || st.Misses != was.Misses+1 || st.Invalidations != was.Invalidations+1 {
		t.Errorf("the stale lookup counted %d hits, %d misses and %d invalidations; want 0, 1 and 1",
			st.Hits-was.Hits, st.Misses-was.Misses, st.Invalidations-was.Invalidations)
	}
	expectCache(t, ts, cold, touchedPath, "hit")

	if n := srv.retire(stats.Epoch, &stats); n != 0 {
		t.Errorf("sweep dropped %d answers, want 0: node 2's was computed at the new epoch, node 12's is untouched", n)
	}
	expectCache(t, ts, cold, touchedPath, "hit")
	expectCache(t, ts, cold, untouchedPath, "hit")
}

// TestFreshRetireOutOfOrder runs two updates' sweeps in reverse order, as two
// updates whose handlers race past applyUpdate can. The later sweep finds
// the answers two epochs behind, which it cannot check against both batches,
// and drops them, while it moves on an answer computed between the two
// commits; the earlier sweep then finds nothing to do. Nothing stale is
// served.
func TestFreshRetireOutOfOrder(t *testing.T) {
	srv, ts, cold := freshServers(t, testEngine(t, twoComponents(t), 6))
	expectCache(t, ts, cold, touchedPath, "miss")
	expectCache(t, ts, cold, untouchedPath, "miss")

	first := applyOrFail(t, srv, []int{2, 7})
	expectCache(t, ts, cold, untouchedPath2, "miss")
	second := applyOrFail(t, srv, []int{3, 8})

	if n := srv.retire(second.Epoch, &second); n != 2 {
		t.Errorf("later sweep dropped %d answers, want the 2 computed before both updates", n)
	}
	if n := srv.retire(first.Epoch, &first); n != 0 {
		t.Errorf("earlier sweep, run last, dropped %d answers, want 0", n)
	}
	expectCache(t, ts, cold, touchedPath, "miss")
	expectCache(t, ts, cold, untouchedPath, "miss")
	expectCache(t, ts, cold, untouchedPath2, "hit")
}

// TestFreshUnderConcurrentUpdates checks the freshness rule against an oracle
// while lookups interleave with updates and their sweeps: a lookup that
// starts at epoch e is answered as a fresh computation at some epoch from e
// to the one it ends at, never as one from before e. The oracle is a replica
// engine given the same updates, whose cache-off answers are recorded at
// every epoch.
func TestFreshUnderConcurrentUpdates(t *testing.T) {
	g := twoComponents(t)
	engine, replica := testEngine(t, g, 6), testEngine(t, g, 6)
	srv, err := New(engine, Config{MaxConcurrent: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	oracle, err := New(replica, Config{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	oracleTS := httptest.NewServer(oracle.Handler())
	defer oracleTS.Close()

	paths := []string{touchedPath, "/v1/ppv?node=5&eta=2", untouchedPath, "/v1/ppv?node=15&eta=1"}
	edges := [][]int{{2, 4}, {12, 16}, {2, 6}, {12, 17}, {2, 7}, {15, 11}, {2, 8}, {12, 19}}
	want := make([]map[string][]byte, len(edges)+1) // by epoch, then path
	for e := range want {
		want[e] = make(map[string][]byte, len(paths))
		for _, path := range paths {
			_, _, want[e][path] = get(t, oracleTS, path)
		}
		if e < len(edges) {
			if _, err := replica.ApplyUpdate(core.GraphUpdate{AddedEdges: []graph.Edge{{From: graph.NodeID(edges[e][0]), To: graph.NodeID(edges[e][1])}}}); err != nil {
				t.Fatal(err)
			}
		}
	}

	var (
		done   = make(chan struct{})
		served atomic.Int64
		wg     sync.WaitGroup
	)
	defer func() {
		close(done)
		wg.Wait()
	}()
	// waitLookups lets the readers serve 20 more lookups, unless one failed.
	waitLookups := func() {
		for start := served.Load(); served.Load() < start+20 && !t.Failed(); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				path := paths[i%len(paths)]
				from := engine.Epoch()
				status, hdr, body, err := fetch(ts, path)
				to := engine.Epoch()
				if err != nil || status != http.StatusOK {
					t.Errorf("%s: status %d, err %v: %s", path, status, err, body)
					return
				}
				fresh := false
				for e := from; e <= to && !fresh; e++ {
					fresh = bytes.Equal(body, want[e][path])
				}
				if !fresh {
					t.Errorf("%s started at epoch %d, ended at %d: answered (%s) a body no epoch in that range has:\n%s",
						path, from, to, hdr.Get("X-Fastppv-Cache"), body)
					return
				}
				served.Add(1)
			}
		}()
	}
	for _, edge := range edges {
		waitLookups() // against every epoch's cache
		if status, out := post(t, ts, "/v1/update", fmt.Sprintf(`{"added_edges":[[%d,%d]]}`, edge[0], edge[1])); status != http.StatusOK {
			t.Fatalf("update %v: %d %s", edge, status, out)
		}
	}
	waitLookups()
}

// holdFlight starts a computation of key through srv's cache, as answer does,
// and stops it once its answer is computed, before its flight ends.
func holdFlight(t *testing.T, srv *Server, key CacheKey) (release, done chan struct{}) {
	var computedOnce sync.Once
	computed := make(chan struct{})
	markComputed := func() { computedOnce.Do(func() { close(computed) }) }
	release, done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		defer markComputed() // a failed computation never reaches end
		_, _, err := srv.cache.Do(key, srv.fresh, func(end func(*cachedAnswer, int64, bool)) (*cachedAnswer, error) {
			ans, _, err := srv.compute(key, func(a *cachedAnswer, size int64, retain bool) {
				markComputed()
				<-release
				end(a, size, retain)
			}, "")
			return ans, err
		})
		if err != nil {
			t.Errorf("held computation of node %d: %v", key.Node, err)
		}
	}()
	<-computed
	return release, done
}

type reply struct {
	status int
	hdr    http.Header
	body   []byte
	err    error
}

// join gets path from ts in the background and returns once that request has
// joined a flight in progress; the reply arrives on the channel.
func join(t *testing.T, srv *Server, ts *httptest.Server, path string) <-chan reply {
	t.Helper()
	coalesced := srv.cache.Stats().Coalesced
	joined := make(chan reply, 1)
	go func() {
		var r reply
		r.status, r.hdr, r.body, r.err = fetch(ts, path)
		joined <- r
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.cache.Stats().Coalesced == coalesced; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never joined the flight in progress", path)
		}
	}
	return joined
}

// TestFreshRouterPreUpdateFlight holds two routed computations in flight
// across an update fan-out. Both end after the sweep and retain their
// pre-update answers, which are never served: a request that joined one
// flight after the update computes afresh instead of sharing it, and the
// first lookup of the other misses. The next lookup of each hits the fresh
// answer.
func TestFreshRouterPreUpdateFlight(t *testing.T) {
	g := socialGraph(t, 500)
	hub := testEngine(t, g, 70).Hubs().Hubs()[0]
	shards := shardedServers(t, g, 70, 2)
	rt, err := cluster.NewRouter(cluster.RouterConfig{Targets: []string{shards[0].URL, shards[1].URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv, err := NewRouter(rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	coldSrv, err := NewRouter(rt, Config{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts, cold := httptest.NewServer(srv.Handler()), httptest.NewServer(coldSrv.Handler())
	defer ts.Close()
	defer cold.Close()

	joinedKey, retainedKey := CacheKey{Node: 42, Eta: 3, Top: defaultTopK}, CacheKey{Node: 43, Eta: 3, Top: defaultTopK}
	joinedPath, retainedPath := "/v1/ppv?node=42&eta=3", "/v1/ppv?node=43&eta=3"
	releaseJoined, joinedDone := holdFlight(t, srv, joinedKey)
	releaseRetained, retainedDone := holdFlight(t, srv, retainedKey)

	status, out := post(t, ts, "/v1/update", fmt.Sprintf(`{"added_edges":[[%d,431]]}`, hub))
	if status != http.StatusOK {
		t.Fatalf("router update = %d: %s", status, out)
	}
	var cu api.ClusterUpdateResponse
	if err := json.Unmarshal(out, &cu); err != nil {
		t.Fatal(err)
	}
	if cu.Epoch != 1 || cu.ShardsApplied != 2 || cu.Invalidated != 0 {
		t.Fatalf("fan-out %+v: want epoch 1 on both shards with nothing retained to invalidate", cu)
	}

	// A request after the update joins the pre-update flight of node 42.
	joined := join(t, srv, ts, joinedPath)
	close(releaseJoined)
	close(releaseRetained)
	<-joinedDone
	<-retainedDone
	if ans, ok := srv.cache.Get(retainedKey); !ok || ans.epoch.Load() != 0 {
		t.Fatalf("the held computation of node 43 did not retain its pre-update answer")
	}

	r := <-joined
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("%s: status %d, err %v: %s", joinedPath, r.status, r.err, r.body)
	}
	if got := r.hdr.Get("X-Fastppv-Cache"); got != "miss" {
		t.Errorf("%s joined a pre-update flight: cache state %q, want miss", joinedPath, got)
	}
	if _, _, coldBody := get(t, cold, joinedPath); !bytes.Equal(r.body, coldBody) {
		t.Errorf("%s answered a body that differs from a fresh computation:\n%s\n%s", joinedPath, r.body, coldBody)
	}
	expectCache(t, ts, cold, joinedPath, "hit")
	expectCache(t, ts, cold, retainedPath, "miss")
	expectCache(t, ts, cold, retainedPath, "hit")
}

// TestFreshRouterDegradedFlightShared checks that a degraded routed answer is
// shared with the requests that join its flight at the same cluster epoch.
// With the only shard at the cluster epoch down, every root comes from a
// shard that is behind: the answer was evaluated at an older epoch than the
// cluster's, but it is all any computation at the cluster epoch gives, so a
// joiner is served it instead of computing again, and again for every joiner
// after it.
func TestFreshRouterDegradedFlightShared(t *testing.T) {
	g := socialGraph(t, 400)
	shards := shardedServers(t, g, 60, 2)
	rt, err := cluster.NewRouter(cluster.RouterConfig{Targets: []string{shards[0].URL, shards[1].URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv, err := NewRouter(rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Shard 0 takes an update behind the router's back; the router learns
	// its epoch from a query, and then loses the shard.
	if status, out := post(t, shards[0].Server, "/v1/update", `{"added_edges":[[5,9]]}`); status != http.StatusOK {
		t.Fatalf("direct shard update = %d: %s", status, out)
	}
	if status, _, body := get(t, ts, "/v1/ppv?node=1&eta=3"); status != http.StatusOK {
		t.Fatalf("query = %d: %s", status, body)
	}
	if epoch, _ := rt.ClusterEpoch(); epoch != 1 {
		t.Fatalf("cluster epoch %d, want 1", epoch)
	}
	shards[0].Close()

	key, path := CacheKey{Node: 7, Eta: 3, Top: defaultTopK}, "/v1/ppv?node=7&eta=3"
	release, done := holdFlight(t, srv, key)
	joined := join(t, srv, ts, path)
	close(release)
	<-done
	r := <-joined
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("%s: status %d, err %v: %s", path, r.status, r.err, r.body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(r.body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Degraded {
		t.Fatalf("answer with the only current shard down is not degraded: %s", r.body)
	}
	if got := r.hdr.Get("X-Fastppv-Cache"); got != "coalesced" {
		t.Errorf("%s joined a degraded flight at the cluster epoch: cache state %q, want coalesced", path, got)
	}
}

// TestFreshRetireMatchesRecompute is the oracle of retire's one rule. On
// random and social graphs with a tenth or three tenths of the nodes as hubs,
// at the default options and with the storage clip or the delta prune off, it
// fills the cache, applies seeded random batches of one or two edge changes
// and sweeps; every answer the sweep keeps must rank and bound exactly as
// computing it again at the new epoch does.
func TestFreshRetireMatchesRecompute(t *testing.T) {
	// A random graph is an expander: at any size the tests can afford, nearly
	// every estimate reaches nearly every node, so it is kept small.
	graphs := map[string]func() (*graph.Graph, error){
		"random": func() (*graph.Graph, error) { return gen.RandomDirected(120, 4, 11) },
		"social": func() (*graph.Graph, error) {
			return gen.SocialGraph(gen.SocialConfig{Nodes: 200, OutDegreeMean: 6, Attachment: 0.8, Seed: 11})
		},
	}
	options := map[string]core.Options{"default": {}, "no clip": {Clip: -1}, "no delta": {Delta: -1}}
	kept, dropped := 0, 0
	for gname, build := range graphs {
		for _, share := range []int{1, 3} {
			for oname, opts := range options {
				t.Run(fmt.Sprintf("%s/%d%% hubs/%s", gname, 10*share, oname), func(t *testing.T) {
					g, err := build()
					if err != nil {
						t.Fatal(err)
					}
					opts.NumHubs = share * g.NumNodes() / 10
					engine, err := core.NewEngine(g, nil, opts)
					if err != nil {
						t.Fatal(err)
					}
					if err := engine.Precompute(); err != nil {
						t.Fatal(err)
					}
					srv, err := New(engine, Config{})
					if err != nil {
						t.Fatal(err)
					}
					k, d := checkRetireAgainstRecompute(t, srv, rand.New(rand.NewSource(int64(share))))
					kept, dropped = kept+k, dropped+d
				})
			}
		}
	}
	t.Logf("%d answers kept across a batch and checked, %d dropped", kept, dropped)
	if kept == 0 || dropped == 0 {
		t.Errorf("%d answers kept and %d dropped; the oracle needs both", kept, dropped)
	}
}

// checkRetireAgainstRecompute runs five batches on srv's engine, checks every
// answer each sweep keeps against a recomputation, and returns how many
// answers the sweeps kept and dropped.
func checkRetireAgainstRecompute(t *testing.T, srv *Server, rng *rand.Rand) (kept, dropped int) {
	t.Helper()
	var reqs []queryRequest
	for q := graph.NodeID(0); q < graph.NodeID(srv.engine.Graph().NumNodes()); q += 13 {
		for _, eta := range []int{1, 3} {
			reqs = append(reqs, queryRequest{node: q, eta: eta, top: defaultTopK})
		}
	}
	for batch := 0; batch < 5; batch++ {
		for _, req := range reqs {
			if _, _, err := srv.answer(req); err != nil {
				t.Fatal(err)
			}
		}
		// One or two edge changes from distinct nodes; a third of them remove
		// an edge.
		g := srv.engine.Graph()
		var ureq UpdateRequest
		for size, from := 1+rng.Intn(2), map[int]bool{}; len(from) < size; {
			u, v := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes())
			if from[u] {
				continue
			}
			if out := g.OutNeighbors(graph.NodeID(u)); rng.Intn(3) == 0 && len(out) > 1 {
				ureq.RemovedEdges = append(ureq.RemovedEdges, []int{u, int(out[rng.Intn(len(out))])})
				from[u] = true
			} else if u != v && !g.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
				ureq.AddedEdges = append(ureq.AddedEdges, []int{u, v})
				from[u] = true
			}
		}
		stats, err := srv.applyUpdate(ureq)
		if err != nil {
			t.Fatalf("batch %+v: %v", ureq, err)
		}
		dropped += srv.retire(stats.Epoch, &stats)
		retained := map[CacheKey]*cachedAnswer{}
		srv.cache.InvalidateFunc(func(k CacheKey, ans *cachedAnswer) bool {
			retained[k] = ans
			return false
		})
		kept += len(retained)
		for k, ans := range retained {
			stop := core.StopCondition{MaxIterations: k.Eta, TargetL1Error: k.TargetError}
			want, err := srv.be.query(k, stop, "", false)
			if err != nil {
				t.Fatal(err)
			}
			if tag := ans.epoch.Load(); tag != stats.Epoch {
				t.Fatalf("batch %d: node %d eta %d kept at epoch %d, want %d", batch, k.Node, k.Eta, tag, stats.Epoch)
			}
			if ans.result.L1ErrorBound != want.result.L1ErrorBound || !slices.Equal(ans.top, want.top) {
				t.Fatalf("batch %d (%+v): node %d eta %d kept with bound %v, top %v; recomputed: bound %v, top %v",
					batch, ureq, k.Node, k.Eta, ans.result.L1ErrorBound, ans.top, want.result.L1ErrorBound, want.top)
			}
		}
	}
	return kept, dropped
}

package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"fastppv/internal/api"
	"fastppv/internal/cluster"
	"fastppv/internal/core"
	"fastppv/internal/graph"
)

// testShard is one shard daemon under test. Close kills it for real: the
// binary streams a router holds are hijacked connections httptest.Server
// forgets, so the embedded Close alone would leave the shard reachable over
// any established stream.
type testShard struct {
	*httptest.Server
	srv *Server
}

func (s *testShard) Close() {
	s.srv.CloseStreams()
	s.Server.Close()
}

// shardedServers precomputes `shards` hub-partitioned engines over g and
// serves each through a real Server (so /v1/stream is the production
// handler), returning the shard servers.
func shardedServers(t *testing.T, g *graph.Graph, numHubs, shards int) []*testShard {
	t.Helper()
	out := make([]*testShard, shards)
	for i := 0; i < shards; i++ {
		opts := core.Options{NumHubs: numHubs}
		if shards > 1 {
			opts.Partition = core.Partition{Shard: i, Shards: shards}
		}
		e, err := core.NewEngine(g, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Precompute(); err != nil {
			t.Fatal(err)
		}
		srv, err := New(e, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		sh := &testShard{Server: ts, srv: srv}
		t.Cleanup(sh.Close)
		out[i] = sh
	}
	return out
}

func routerServer(t *testing.T, shardURLs []string) (*httptest.Server, *cluster.Router) {
	t.Helper()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Targets: shardURLs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv, err := NewRouter(rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, rt
}

// TestClusterEndToEndMatchesSingleNode drives the full production stack —
// shard daemons with the real /v1/stream handler, router, router-fronting
// server — and checks the answers against a single-node server.
func TestClusterEndToEndMatchesSingleNode(t *testing.T) {
	g := socialGraph(t, 600)
	single, err := New(testEngine(t, g, 80), Config{})
	if err != nil {
		t.Fatal(err)
	}
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	shards := shardedServers(t, g, 80, 2)
	routerTS, _ := routerServer(t, []string{shards[0].URL, shards[1].URL})

	for _, node := range []int{1, 33, 257, 599} {
		path := fmt.Sprintf("/v1/ppv?node=%d&eta=3&top=10", node)
		st1, _, body1 := get(t, singleTS, path)
		st2, _, body2 := get(t, routerTS, path)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("node %d: single=%d router=%d: %s / %s", node, st1, st2, body1, body2)
		}
		var r1, r2 QueryResponse
		if err := json.Unmarshal(body1, &r1); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body2, &r2); err != nil {
			t.Fatal(err)
		}
		if r2.Degraded || r2.ShardsDown != 0 {
			t.Fatalf("node %d: healthy cluster answered degraded: %s", node, body2)
		}
		if math.Abs(r1.L1ErrorBound-r2.L1ErrorBound) > 1e-12 {
			t.Errorf("node %d: router bound %.15f, single-node %.15f", node, r2.L1ErrorBound, r1.L1ErrorBound)
		}
		if len(r1.Results) != len(r2.Results) {
			t.Fatalf("node %d: %d results via router, %d single-node", node, len(r2.Results), len(r1.Results))
		}
		for i := range r1.Results {
			if r1.Results[i].Node != r2.Results[i].Node {
				t.Errorf("node %d rank %d: router node %d, single-node %d",
					node, i, r2.Results[i].Node, r1.Results[i].Node)
			}
			if math.Abs(r1.Results[i].Score-r2.Results[i].Score) > 1e-12 {
				t.Errorf("node %d rank %d: router score %v, single-node %v",
					node, i, r2.Results[i].Score, r1.Results[i].Score)
			}
		}
	}

	// The router front caches: a repeated query is a byte-identical hit.
	path := "/v1/ppv?node=33&eta=3&top=10"
	_, hdr1, first := get(t, routerTS, path)
	if hdr1.Get("X-Fastppv-Cache") != "miss" {
		// already queried above
		t.Logf("first state: %s", hdr1.Get("X-Fastppv-Cache"))
	}
	_, hdr2, second := get(t, routerTS, path)
	if hdr2.Get("X-Fastppv-Cache") != "hit" {
		t.Errorf("repeat query not served from the router cache: %s", hdr2.Get("X-Fastppv-Cache"))
	}
	if string(first) != string(second) {
		t.Error("cached router response differs from computed one")
	}
}

// TestClusterShardDownDegrades kills one shard and checks the router front
// keeps answering with a widened bound, flags the degradation, and does not
// cache the degraded answer.
func TestClusterShardDownDegrades(t *testing.T) {
	g := socialGraph(t, 400)
	shards := shardedServers(t, g, 60, 2)
	routerTS, rt := routerServer(t, []string{shards[0].URL, shards[1].URL})

	part := core.Partition{Shards: 2}
	node := 0
	for ; part.Owner(graph.NodeID(node)) != 0; node++ {
	}
	path := fmt.Sprintf("/v1/ppv?node=%d&eta=3&top=5", node)
	st, _, healthyBody := get(t, routerTS, path)
	if st != http.StatusOK {
		t.Fatalf("healthy query failed: %d %s", st, healthyBody)
	}
	var healthy QueryResponse
	if err := json.Unmarshal(healthyBody, &healthy); err != nil {
		t.Fatal(err)
	}

	shards[1].Close()
	// Use a different eta so the healthy cached answer is not returned.
	downPath := fmt.Sprintf("/v1/ppv?node=%d&eta=4&top=5", node)
	st, hdr, downBody := get(t, routerTS, downPath)
	if st != http.StatusOK {
		t.Fatalf("query with one shard down must still answer: %d %s", st, downBody)
	}
	var down QueryResponse
	if err := json.Unmarshal(downBody, &down); err != nil {
		t.Fatal(err)
	}
	if !down.Degraded || down.ShardsDown != 1 {
		t.Errorf("degraded=%v shards_down=%d, want degraded with one shard down: %s", down.Degraded, down.ShardsDown, downBody)
	}
	if down.LostErrorMass <= 0 {
		t.Errorf("lost_error_mass = %v, want > 0", down.LostErrorMass)
	}
	if down.L1ErrorBound <= healthy.L1ErrorBound {
		t.Errorf("bound %.12f with a shard down not wider than healthy %.12f (eta even increased)",
			down.L1ErrorBound, healthy.L1ErrorBound)
	}
	if hdr.Get("X-Fastppv-Cache") == "hit" {
		t.Error("degraded answer served from cache")
	}
	// Degraded answers must not be cached.
	_, hdr, _ = get(t, routerTS, downPath)
	if hdr.Get("X-Fastppv-Cache") == "hit" {
		t.Error("degraded answer was cached")
	}
	if rt.Stats().ShardsHealthy == 0 {
		t.Error("one live shard left; router should still be healthy")
	}
}

func TestRouterModeUnsupportedEndpoints(t *testing.T) {
	g := socialGraph(t, 200)
	shards := shardedServers(t, g, 30, 1)
	routerTS, _ := routerServer(t, []string{shards[0].URL})

	// A router has no index to compact and no shard surface: the stream
	// upgrade is refused before any frame is spoken.
	compactStatus, compactBody := post(t, routerTS, "/v1/compact", "")
	streamStatus, _, streamBody := get(t, routerTS, api.StreamPath)
	for _, c := range []struct {
		what   string
		status int
		body   []byte
	}{
		{"POST /v1/compact", compactStatus, compactBody},
		{"GET " + api.StreamPath, streamStatus, streamBody},
	} {
		if c.status != http.StatusNotImplemented {
			t.Errorf("%s on router = %d, want 501: %s", c.what, c.status, c.body)
		}
		var eresp api.ErrorResponse
		if err := json.Unmarshal(c.body, &eresp); err != nil || eresp.Error.Code != api.CodeUnsupported {
			t.Errorf("%s error code = %q, want %q (%s)", c.what, eresp.Error.Code, api.CodeUnsupported, c.body)
		}
	}

	// Health and stats still work and report the cluster.
	status, _, body := get(t, routerTS, "/healthz")
	if status != http.StatusOK {
		t.Errorf("router healthz = %d: %s", status, body)
	}
	status, _, body = get(t, routerTS, "/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("router stats = %d", status)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || len(st.Cluster.Shards) != 1 || st.Cluster.ShardsHealthy != 1 {
		t.Errorf("router stats cluster section wrong: %s", body)
	}
	if st.Graph.Nodes != g.NumNodes() {
		t.Errorf("router stats nodes = %d, want %d", st.Graph.Nodes, g.NumNodes())
	}
}

func TestStructuredErrorCodes(t *testing.T) {
	g := socialGraph(t, 200)
	srv, err := New(testEngine(t, g, 30), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	decode := func(body []byte) api.ErrorResponse {
		var e api.ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("error body %s is not the structured envelope: %v", body, err)
		}
		return e
	}
	status, _, body := get(t, ts, "/v1/ppv?node=999999")
	if e := decode(body); status != http.StatusBadRequest || e.Error.Code != api.CodeBadRequest {
		t.Errorf("out-of-range node: status %d code %q", status, e.Error.Code)
	}
	status, body = post(t, ts, "/v1/compact", "")
	if e := decode(body); status != http.StatusPreconditionFailed || e.Error.Code != api.CodeUnsupported {
		t.Errorf("compact on memory index: status %d code %q", status, e.Error.Code)
	}

	// The partial protocol carries the same codes in error frames. A request
	// naming neither or both of query and frontier cannot be put on the wire
	// at all; an out-of-range node can, and is a client mistake.
	node, empty := graph.NodeID(1), api.Vector{}
	for name, preq := range map[string]*api.PartialRequest{
		"empty":     {},
		"ambiguous": {Query: &node, Frontier: &empty},
	} {
		if _, err := api.EncodePartialRequest(1, "", preq); err == nil {
			t.Errorf("%s partial request encoded into a frame", name)
		}
	}
	defer srv.CloseStreams()
	conn, br := dialStreamRaw(t, ts.URL)
	defer conn.Close()
	far := graph.NodeID(999999)
	presp, aerr := streamPartial(t, conn, br, 1, "", &api.PartialRequest{Query: &far})
	if presp != nil || aerr == nil || aerr.Code != api.CodeBadRequest {
		t.Errorf("out-of-range partial root: response %v, error %v, want code %q", presp, aerr, api.CodeBadRequest)
	}
	// The error frame answered one request; the stream keeps serving.
	if _, aerr := streamPartial(t, conn, br, 2, "", &api.PartialRequest{Query: &node}); aerr != nil {
		t.Errorf("request after an error frame answered %v", aerr)
	}
}

// TestPartialEndpoint exercises the shard-side protocol directly, over raw
// frames on /v1/stream: a root answer must be the engine's root partial and an
// expansion its PartialExpand, both slice for slice and bit for bit — and
// PartialRoot's map view must hold exactly the root's slices.
func TestPartialEndpoint(t *testing.T) {
	g := socialGraph(t, 300)
	e := testEngine(t, g, 40)
	srv, err := New(e, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.CloseStreams()
	conn, br := dialStreamRaw(t, ts.URL)
	defer conn.Close()

	node := graph.NodeID(5)
	root, aerr := streamPartial(t, conn, br, 1, "", &api.PartialRequest{Query: &node})
	if aerr != nil {
		t.Fatalf("root partial answered %v", aerr)
	}
	if root.Shard != 0 || root.Shards != 1 {
		t.Errorf("unsharded engine reports %d/%d, want 0/1", root.Shard, root.Shards)
	}
	want, err := e.PartialRootSorted(node)
	if err != nil {
		t.Fatal(err)
	}
	sameWire(t, "root increment", root.Increment, want.IncrementNodes, want.IncrementScores)
	sameWire(t, "root frontier", root.Frontier, want.FrontierNodes, want.FrontierScores)
	if len(root.Frontier.Nodes) == 0 {
		t.Fatal("root frontier is empty; the expansion below would test nothing")
	}

	view, err := e.PartialRoot(node)
	if err != nil {
		t.Fatal(err)
	}
	sameMap(t, "PartialRoot increment view", view.Increment, view.IncrementNodes, view.IncrementScores)
	sameMap(t, "PartialRoot frontier view", view.Frontier, view.FrontierNodes, view.FrontierScores)
	sameWire(t, "PartialRoot increment", root.Increment, view.IncrementNodes, view.IncrementScores)

	exp, aerr := streamPartial(t, conn, br, 2, "", &api.PartialRequest{Frontier: &root.Frontier, Iteration: 1})
	if aerr != nil {
		t.Fatalf("expand partial answered %v", aerr)
	}
	wantExp, err := e.PartialExpand(root.Frontier.Nodes, root.Frontier.Scores)
	if err != nil {
		t.Fatal(err)
	}
	sameWire(t, "expansion increment", exp.Increment, wantExp.IncrementNodes, wantExp.IncrementScores)
	sameWire(t, "expansion frontier", exp.Frontier, wantExp.FrontierNodes, wantExp.FrontierScores)
	if exp.HubsExpanded != wantExp.HubsExpanded || exp.HubsSkipped != wantExp.HubsSkipped {
		t.Errorf("expanded/skipped = %d/%d, want %d/%d",
			exp.HubsExpanded, exp.HubsSkipped, wantExp.HubsExpanded, wantExp.HubsSkipped)
	}
}

// sameWire fails unless a decoded wire vector equals the engine's sorted
// slices, id for id and score bit for score bit.
func sameWire(t *testing.T, what string, got api.Vector, nodes []graph.NodeID, scores []float64) {
	t.Helper()
	if !slices.Equal(got.Nodes, nodes) || len(got.Scores) != len(scores) {
		t.Fatalf("%s: wire nodes %v, engine %v", what, got.Nodes, nodes)
	}
	for i := range scores {
		if math.Float64bits(got.Scores[i]) != math.Float64bits(scores[i]) {
			t.Fatalf("%s: node %d scores %v on the wire, engine %v", what, nodes[i], got.Scores[i], scores[i])
		}
	}
}

// sameMap fails unless a map view holds exactly the sorted slices' entries,
// bit for bit.
func sameMap(t *testing.T, what string, m map[graph.NodeID]float64, nodes []graph.NodeID, scores []float64) {
	t.Helper()
	if len(m) != len(nodes) {
		t.Fatalf("%s: map has %d entries, slices %d", what, len(m), len(nodes))
	}
	for i, n := range nodes {
		if got, ok := m[n]; !ok || math.Float64bits(got) != math.Float64bits(scores[i]) {
			t.Fatalf("%s: node %d = %v (present %v) in the map, %v in the slices", what, n, got, ok, scores[i])
		}
	}
}

// shardStatsOf decodes a shard's /v1/stats.
func shardStatsOf(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	status, _, body := get(t, ts, "/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("/v1/stats = %d: %s", status, body)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestClusterUpdateFanOut drives the tentpole end to end: an update posted to
// the router must reach every shard, leave them at the same epoch, and the
// routed post-update top-k must match a single-node engine given the same
// update.
func TestClusterUpdateFanOut(t *testing.T) {
	g := socialGraph(t, 500)
	single := testEngine(t, g, 70)
	shards := shardedServers(t, g, 70, 2)
	routerTS, rt := routerServer(t, []string{shards[0].URL, shards[1].URL})

	// Warm the router cache with a pre-update answer so the invalidation
	// satellite is exercised on the same path.
	path := "/v1/ppv?node=42&eta=3&top=10"
	if st, _, body := get(t, routerTS, path); st != http.StatusOK {
		t.Fatalf("pre-update query: %d %s", st, body)
	}
	if _, hdr, _ := get(t, routerTS, path); hdr.Get("X-Fastppv-Cache") != "hit" {
		t.Fatalf("pre-update answer not cached")
	}

	// An edge out of a hub guarantees at least one recomputed hub.
	hub := single.Hubs().Hubs()[0]
	target := graph.NodeID(431)
	if target == hub {
		target = 432
	}
	body := fmt.Sprintf(`{"added_edges":[[%d,%d]]}`, hub, target)
	status, respBody := post(t, routerTS, "/v1/update", body)
	if status != http.StatusOK {
		t.Fatalf("router update = %d: %s", status, respBody)
	}
	var cu api.ClusterUpdateResponse
	if err := json.Unmarshal(respBody, &cu); err != nil {
		t.Fatal(err)
	}
	if cu.ShardsApplied != 2 || cu.ShardsFailed != 0 || cu.Degraded {
		t.Fatalf("fan-out outcome %+v, want both shards applied", cu)
	}
	if cu.Epoch != 1 {
		t.Fatalf("cluster epoch after first update = %d, want 1", cu.Epoch)
	}
	if cu.Invalidated == 0 {
		t.Error("router cache not invalidated by the accepted update")
	}
	for i, ts := range shards {
		if st := shardStatsOf(t, ts.Server); st.Epoch != 1 {
			t.Errorf("shard %d reports epoch %d after fan-out, want 1", i, st.Epoch)
		}
	}
	if st := shardStatsOf(t, routerTS); st.Epoch != 1 || st.Cluster == nil || st.Cluster.ShardsBehind != 0 {
		t.Errorf("router stats after fan-out: epoch=%d cluster=%+v", st.Epoch, st.Cluster)
	}

	// The pre-update cached answer must not survive: same URL, fresh compute.
	if _, hdr, _ := get(t, routerTS, path); hdr.Get("X-Fastppv-Cache") == "hit" {
		t.Error("pre-update answer served from cache after an accepted update")
	}

	// Routed answers now match a single-node engine with the same update.
	if _, err := single.ApplyUpdate(core.GraphUpdate{AddedEdges: []graph.Edge{{From: hub, To: target}}}); err != nil {
		t.Fatal(err)
	}
	if got := single.Epoch(); got != 1 {
		t.Fatalf("single-node epoch = %d, want 1", got)
	}
	for _, node := range []int{int(hub), int(target), 3, 77} {
		want, err := single.Query(graph.NodeID(node), core.StopCondition{MaxIterations: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Query(graph.NodeID(node), core.StopCondition{MaxIterations: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded || res.ShardsBehind != 0 || res.ShardsDown != 0 {
			t.Fatalf("node %d: healthy post-update cluster degraded: %+v", node, res)
		}
		if res.Epoch != 1 {
			t.Errorf("node %d: routed answer at epoch %d, want 1", node, res.Epoch)
		}
		if math.Abs(res.L1ErrorBound-want.L1ErrorBound) > 1e-12 {
			t.Errorf("node %d: routed bound %.15f, single-node %.15f", node, res.L1ErrorBound, want.L1ErrorBound)
		}
		gotTop, wantTop := res.TopK(10), want.TopK(10)
		if len(gotTop) != len(wantTop) {
			t.Fatalf("node %d: %d results via router, %d single-node", node, len(gotTop), len(wantTop))
		}
		for i := range wantTop {
			if gotTop[i].Node != wantTop[i].Node || math.Abs(gotTop[i].Score-wantTop[i].Score) > 1e-12 {
				t.Errorf("node %d rank %d: router (%d,%v), single-node (%d,%v)",
					node, i, gotTop[i].Node, gotTop[i].Score, wantTop[i].Node, wantTop[i].Score)
			}
		}
	}
}

// TestClusterDirectShardUpdateDiverges is the divergence footgun: a shard
// taking a direct local update while fronted by a router must bump its epoch,
// and the router must fold it out — degraded answer, strictly wider exact
// bound — instead of merging answers from two different graphs.
func TestClusterDirectShardUpdateDiverges(t *testing.T) {
	g := socialGraph(t, 400)
	shards := shardedServers(t, g, 60, 2)
	routerTS, _ := routerServer(t, []string{shards[0].URL, shards[1].URL})

	// Pick a node owned by shard 0 so the root stays on the consistent shard.
	part := core.Partition{Shards: 2}
	node := 0
	for ; part.Owner(graph.NodeID(node)) != 0; node++ {
	}
	path := fmt.Sprintf("/v1/ppv?node=%d&eta=3&top=5", node)
	st, _, healthyBody := get(t, routerTS, path)
	if st != http.StatusOK {
		t.Fatalf("healthy query failed: %d %s", st, healthyBody)
	}
	var healthy QueryResponse
	if err := json.Unmarshal(healthyBody, &healthy); err != nil {
		t.Fatal(err)
	}
	if healthy.Degraded {
		t.Fatalf("healthy cluster answered degraded: %s", healthyBody)
	}

	// Update shard 1 directly, behind the router's back.
	status, body := post(t, shards[1].Server, "/v1/update", `{"added_edges":[[5,9]]}`)
	if status != http.StatusOK {
		t.Fatalf("direct shard update = %d: %s", status, body)
	}
	var ur UpdateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Epoch != 1 {
		t.Fatalf("direct update left shard at epoch %d, want 1", ur.Epoch)
	}

	// A different eta dodges the router's (epoch-0-tagged) cached answer.
	divergedPath := fmt.Sprintf("/v1/ppv?node=%d&eta=4&top=5", node)
	st, hdr, divergedBody := get(t, routerTS, divergedPath)
	if st != http.StatusOK {
		t.Fatalf("query against diverged cluster must still answer: %d %s", st, divergedBody)
	}
	var diverged QueryResponse
	if err := json.Unmarshal(divergedBody, &diverged); err != nil {
		t.Fatal(err)
	}
	if !diverged.Degraded || diverged.ShardsBehind == 0 {
		t.Errorf("degraded=%v shards_behind=%d, want the divergent shard folded out: %s",
			diverged.Degraded, diverged.ShardsBehind, divergedBody)
	}
	if diverged.ShardsDown != 0 {
		t.Errorf("shards_down = %d: divergence must not be reported as an outage", diverged.ShardsDown)
	}
	if diverged.LostErrorMass <= 0 {
		t.Errorf("lost_error_mass = %v, want > 0", diverged.LostErrorMass)
	}
	if diverged.L1ErrorBound <= healthy.L1ErrorBound {
		t.Errorf("bound %.12f with a divergent shard not wider than healthy %.12f (eta even increased)",
			diverged.L1ErrorBound, healthy.L1ErrorBound)
	}
	if hdr.Get("X-Fastppv-Cache") == "hit" {
		t.Error("divergence-degraded answer served from cache")
	}
	// Degraded answers must not be cached.
	_, hdr, _ = get(t, routerTS, divergedPath)
	if hdr.Get("X-Fastppv-Cache") == "hit" {
		t.Error("divergence-degraded answer was cached")
	}
	// The router's stats expose the divergence for operators.
	if st := shardStatsOf(t, routerTS); st.Epoch != 1 || st.Cluster == nil || st.Cluster.ShardsBehind != 1 {
		t.Errorf("router stats: epoch=%d cluster=%+v, want epoch 1 with one shard behind", st.Epoch, st.Cluster)
	}
}

// TestClusterUpdateSkipsBehindShard checks the fan-out's ordering guard: a
// shard that missed a batch (here: it was updated past the others directly,
// the same class of divergence) is refused further batches instead of
// applying them out of sequence.
func TestClusterUpdateSkipsBehindShard(t *testing.T) {
	g := socialGraph(t, 300)
	shards := shardedServers(t, g, 40, 2)
	routerTS, rt := routerServer(t, []string{shards[0].URL, shards[1].URL})
	// A routed query first: the router has seen both shards at epoch 0, so
	// the fan-out must not trust what it saw.
	if status, _, body := get(t, routerTS, "/v1/ppv?node=1&eta=2"); status != http.StatusOK {
		t.Fatalf("routed query = %d: %s", status, body)
	}
	for _, ss := range rt.Stats().Shards {
		if !ss.EpochKnown || ss.Epoch != 0 {
			t.Fatalf("shard %d: epoch %d known=%v before the direct updates, want 0", ss.Shard, ss.Epoch, ss.EpochKnown)
		}
	}

	// Diverge shard 1 by two direct updates; the cluster epoch becomes 2 and
	// shard 0 (epoch 0) is now "behind".
	for _, b := range []string{`{"added_edges":[[1,2]]}`, `{"added_edges":[[2,3]]}`} {
		if status, body := post(t, shards[1].Server, "/v1/update", b); status != http.StatusOK {
			t.Fatalf("direct update = %d: %s", status, body)
		}
	}
	status, body := post(t, routerTS, "/v1/update", `{"added_edges":[[3,4]]}`)
	if status != http.StatusOK {
		t.Fatalf("router update = %d: %s", status, body)
	}
	var cu api.ClusterUpdateResponse
	if err := json.Unmarshal(body, &cu); err != nil {
		t.Fatal(err)
	}
	if cu.ShardsApplied != 1 || cu.ShardsFailed != 1 || !cu.Degraded {
		t.Fatalf("fan-out over a diverged cluster: %+v, want exactly the current-epoch shard applied", cu)
	}
	if cu.Epoch != 3 {
		t.Errorf("cluster epoch = %d, want 3 (two direct + one routed)", cu.Epoch)
	}
	for _, sh := range cu.Shards {
		switch sh.Shard {
		case 0:
			if sh.Applied || sh.ErrorCode != api.CodeEpochMismatch {
				t.Errorf("behind shard 0 outcome %+v, want epoch_mismatch refusal", sh)
			}
		case 1:
			if !sh.Applied || sh.Epoch != 3 {
				t.Errorf("current shard 1 outcome %+v, want applied at epoch 3", sh)
			}
		}
	}
}

// TestClusterUpdateAddsNodes checks that a router serves the nodes an update
// fan-out added: its node count follows the update's num_nodes on /v1/stats
// and /metrics, a query for a new node is answered rather than refused, a
// later update naming fewer nodes does not lower the count, and one more than
// doubling it is refused by the shards and answered 400.
func TestClusterUpdateAddsNodes(t *testing.T) {
	routerTS, rt := routerWithRegistry(t, socialGraph(t, 300))
	if n := rt.NumNodes(); n != 300 {
		t.Fatalf("router discovered %d nodes, want 300", n)
	}
	for _, update := range []string{
		`{"num_nodes":310,"added_edges":[[5,305],[305,6]]}`,
		`{"num_nodes":305,"added_edges":[[7,8]]}`,
	} {
		if status, out := post(t, routerTS, "/v1/update", update); status != http.StatusOK {
			t.Fatalf("router update %s = %d: %s", update, status, out)
		}
		if status, _, body := get(t, routerTS, "/v1/ppv?node=305&eta=2"); status != http.StatusOK {
			t.Errorf("after %s: query for added node 305 = %d: %s", update, status, body)
		}
		if st := shardStatsOf(t, routerTS); st.Graph.Nodes != 310 || st.Cluster == nil || st.Cluster.Nodes != 310 {
			t.Errorf("after %s: router stats report %d nodes (cluster %+v), want 310", update, st.Graph.Nodes, st.Cluster)
		}
		_, _, metrics := get(t, routerTS, "/metrics")
		if n := scrapeValue(t, string(metrics), "fastppv_cluster_nodes"); n != 310 {
			t.Errorf("after %s: fastppv_cluster_nodes %v, want 310", update, n)
		}
	}
	status, out := post(t, routerTS, "/v1/update", `{"num_nodes":3000,"added_edges":[[7,9]]}`)
	var eresp api.ErrorResponse
	if status != http.StatusBadRequest || json.Unmarshal(out, &eresp) != nil || eresp.Error.Code != api.CodeBadRequest {
		t.Errorf("router update to 3000 nodes = %d (%s), want 400 bad_request", status, out)
	}
	if st := shardStatsOf(t, routerTS); st.Graph.Nodes != 310 {
		t.Errorf("after the refused update the router reports %d nodes, want 310", st.Graph.Nodes)
	}
}

// TestUpdateConflictWhenInconsistent covers the failed-past-commit-point
// satellite: once a server is flagged inconsistent, further updates must be
// refused with the structured conflict code instead of stacking new batches
// on possibly corrupt state.
func TestUpdateConflictWhenInconsistent(t *testing.T) {
	g := socialGraph(t, 200)
	srv, err := New(testEngine(t, g, 30), Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.inconsistent.Store(true)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, body := post(t, ts, "/v1/update", `{"added_edges":[[1,2]]}`)
	if status != http.StatusConflict {
		t.Fatalf("update on inconsistent engine = %d, want 409: %s", status, body)
	}
	var eresp api.ErrorResponse
	if err := json.Unmarshal(body, &eresp); err != nil || eresp.Error.Code != api.CodeConflict {
		t.Errorf("error code = %q, want %q (%s)", eresp.Error.Code, api.CodeConflict, body)
	}
	// Health keeps failing too, so the refusal is not the only signal.
	st, _, _ := get(t, ts, "/healthz")
	if st != http.StatusServiceUnavailable {
		t.Errorf("healthz on inconsistent engine = %d, want 503", st)
	}
}

// TestUpdateIfEpochPrecondition covers the conditional-update wire contract
// on a single engine: a stale if_epoch is refused with epoch_mismatch, the
// matching one applies.
func TestUpdateIfEpochPrecondition(t *testing.T) {
	g := socialGraph(t, 200)
	srv, err := New(testEngine(t, g, 30), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, body := post(t, ts, "/v1/update", `{"added_edges":[[1,2]],"if_epoch":7}`)
	if status != http.StatusConflict {
		t.Fatalf("mismatched if_epoch = %d, want 409: %s", status, body)
	}
	var eresp api.ErrorResponse
	if err := json.Unmarshal(body, &eresp); err != nil || eresp.Error.Code != api.CodeEpochMismatch {
		t.Errorf("error code = %q, want %q (%s)", eresp.Error.Code, api.CodeEpochMismatch, body)
	}
	status, body = post(t, ts, "/v1/update", `{"added_edges":[[1,2]],"if_epoch":0}`)
	if status != http.StatusOK {
		t.Fatalf("matching if_epoch = %d, want 200: %s", status, body)
	}
	var ur UpdateResponse
	if err := json.Unmarshal(body, &ur); err != nil || ur.Epoch != 1 {
		t.Errorf("update response %s, want epoch 1", body)
	}
}

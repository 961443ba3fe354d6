// backend.go holds the two things a Server can front. The serving layers —
// cache, coalescing, admission, tracing, the query log — are the same over
// both; backend is the list of facts they need that the two obtain
// differently, so that compute, render, the stats and health handlers and the
// scrape collector each have one body. Endpoints only one mode has (a local
// update against a fan-out, compaction, the shard stream) are not here: they
// branch on Server.engine / Server.router where they are mounted.
package server

import (
	"errors"
	"net/http"

	"fastppv/internal/api"
	"fastppv/internal/cluster"
	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/querylog"
	"fastppv/internal/sparse"
	"fastppv/internal/telemetry"
)

type backend interface {
	// mode is the querylog mode byte of the answers; modeNames names it in
	// traces.
	mode() uint8
	// numNodes returns the size of the served graph, 0 while it is not known
	// (a router that has not reached a shard yet).
	numNodes() int
	// epoch is the index epoch answers are served at: a cached answer is
	// current only while its own epoch equals it.
	epoch() uint64
	// query answers key's query under stop, tagged with the epoch it is
	// current at. The answer's result is a cluster.Result without its
	// estimate — a local engine's answer is the no-shard case of one — and
	// its ranking of key.Top entries is taken from the pooled estimate before
	// it is recycled, with the reach list when reach is set (an engine answer
	// only).
	query(key CacheKey, stop core.StopCondition, traceID string, reach bool) (*cachedAnswer, error)
	// labelResults fills in node labels where the backend has them.
	labelResults(results []ScoredNode)
	// stats fills the backend's part of the /v1/stats body.
	stats(resp *StatsResponse)
	// health returns the /healthz status and body.
	health() (int, map[string]any)
	// collect emits the backend's scrape-time samples.
	collect(e *telemetry.Emitter)
}

// modeNames renders backend.mode for traces.
var modeNames = [...]string{querylog.ModeEngine: "engine", querylog.ModeRouter: "router"}

// engineBackend is a local core.Engine.
type engineBackend struct{ s *Server }

func (engineBackend) mode() uint8 { return querylog.ModeEngine }

func (b engineBackend) numNodes() int { return b.s.engine.Graph().NumNodes() }

func (b engineBackend) epoch() uint64 { return b.s.engine.Epoch() }

func (b engineBackend) query(key CacheKey, stop core.StopCondition, _ string, reach bool) (*cachedAnswer, error) {
	qs, err := b.s.engine.NewQuery(key.Node)
	if err != nil {
		return nil, err
	}
	ans := &cachedAnswer{}
	// Serve ranks and reaches the estimate in its pooled bundle and recycles
	// the bundle without copying it out, so a steady serving workload answers
	// without re-growing it.
	res := qs.Serve(stop, func(estimate []sparse.Entry) {
		ans.top = sparse.TopKEntries(estimate, key.Top)
		if reach {
			ans.reach = appendReach(estimate)
		}
	})
	ans.result = &cluster.Result{Result: *res, Epoch: qs.Epoch()}
	ans.epoch.Store(qs.Epoch())
	return ans, nil
}

func (b engineBackend) labelResults(results []ScoredNode) {
	g := b.s.engine.Graph()
	if !g.HasLabels() {
		return
	}
	for i := range results {
		if results[i].Node < g.NumNodes() {
			results[i].Label = g.Label(graph.NodeID(results[i].Node))
		}
	}
}

func (b engineBackend) stats(resp *StatsResponse) {
	s := b.s
	g, epoch := s.engine.Version()
	off := s.engine.OfflineStats()
	resp.Graph = GraphInfo{Nodes: g.NumNodes(), Edges: g.NumEdges(), Directed: g.Directed()}
	resp.Epoch = epoch
	resp.Offline = OfflineInfo{
		Hubs:           off.Hubs,
		HubSelectionMS: float64(off.HubSelection) / 1e6,
		PrimePPVMS:     float64(off.PrimePPV) / 1e6,
		TotalMS:        float64(off.Total) / 1e6,
		IndexBytes:     off.IndexBytes,
		IndexEntries:   off.IndexEntries,
	}
	if p := s.engine.Partition(); p.Enabled() {
		resp.Shard = p.String()
	}
	if bcs, ok := s.engine.Index().(blockCacheStatser); ok {
		if st, enabled := bcs.BlockCacheStats(); enabled {
			resp.BlockCache = &st
		}
	}
	if dss, ok := s.engine.Index().(durabilityStatser); ok {
		if st, enabled := dss.DurabilityStats(); enabled {
			resp.Durability = &st
		}
	}
	sst := s.streams.stats()
	resp.Streams = &sst
}

func (b engineBackend) health() (int, map[string]any) {
	return http.StatusOK, map[string]any{"status": "ok", "precomputed": b.s.engine.Precomputed()}
}

// routerBackend is a cluster.Router over hub-partitioned shards. It has no
// local mutable state; its scrape samples come from the collector the router
// registers itself (internal/cluster/telemetry.go).
type routerBackend struct{ rt *cluster.Router }

func (routerBackend) mode() uint8 { return querylog.ModeRouter }

func (b routerBackend) numNodes() int { return b.rt.NumNodes() }

// epoch is the cluster epoch, which moves as soon as one shard accepts an
// update: from then on no pre-update answer is served.
func (b routerBackend) epoch() uint64 {
	epoch, _ := b.rt.ClusterEpoch()
	return epoch
}

// query ignores reach: a router's update carries no batch to test it against,
// so its sweep retires every pre-update answer.
func (b routerBackend) query(key CacheKey, stop core.StopCondition, traceID string, _ bool) (*cachedAnswer, error) {
	// The answer is current at the epoch its computation began at, not its
	// result's: a router answer degraded by a behind root is all any
	// computation at this epoch gives, so it may be shared.
	ans := &cachedAnswer{}
	ans.epoch.Store(b.epoch())
	res, err := b.rt.QueryTrace(key.Node, stop, traceID, func(estimate []sparse.Entry) {
		ans.top = sparse.TopKEntries(estimate, key.Top)
	})
	if err != nil {
		// A shard answering bad_request (e.g. an out-of-range node the router
		// could not pre-validate before graph-size discovery) is a client
		// mistake, not an outage; everything else means no shard could answer.
		var aerr *api.Error
		if errors.As(err, &aerr) && aerr.Code == api.CodeBadRequest {
			return nil, &httpError{status: http.StatusBadRequest, code: api.CodeBadRequest, msg: aerr.Message}
		}
		return nil, &httpError{status: http.StatusServiceUnavailable, code: api.CodeUnavailable, msg: err.Error()}
	}
	ans.result = res
	return ans, nil
}

// labelResults is a no-op: a router answers with bare node ids.
func (routerBackend) labelResults([]ScoredNode) {}

func (b routerBackend) stats(resp *StatsResponse) {
	cst := b.rt.Stats()
	resp.Cluster = &cst
	resp.Graph = GraphInfo{Nodes: cst.Nodes}
	resp.Epoch = cst.Epoch
}

func (b routerBackend) health() (int, map[string]any) {
	st := b.rt.Stats()
	if st.ShardsHealthy == 0 {
		return http.StatusServiceUnavailable, map[string]any{
			"status": "no_shards", "shards_healthy": 0, "shards": len(st.Shards),
		}
	}
	return http.StatusOK, map[string]any{
		"status": "ok", "shards_healthy": st.ShardsHealthy, "shards": len(st.Shards),
	}
}

func (routerBackend) collect(*telemetry.Emitter) {}

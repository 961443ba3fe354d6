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
	"fastppv/internal/telemetry"
)

type backend interface {
	// mode is the querylog mode byte of the answers; modeNames names it in
	// traces.
	mode() uint8
	// numNodes returns the size of the served graph, 0 while it is not known
	// (a router that has not reached a shard yet).
	numNodes() int
	// keyEpoch is the epoch component of result-cache keys (see
	// CacheKey.Epoch).
	keyEpoch() uint64
	// query answers one query as a cluster.Result — a local engine's answer
	// is the no-shard case of one — plus the hub records it depends on. The
	// caller holds Server.mu for reading.
	query(node graph.NodeID, stop core.StopCondition, traceID string) (*cluster.Result, []graph.NodeID, error)
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

// engineBackend is a local core.Engine, guarded by the server's update lock.
type engineBackend struct{ s *Server }

func (engineBackend) mode() uint8 { return querylog.ModeEngine }

func (b engineBackend) numNodes() int {
	b.s.mu.RLock()
	defer b.s.mu.RUnlock()
	return b.s.engine.Graph().NumNodes()
}

// keyEpoch is constant: engine mode invalidates by hub dependency instead.
func (engineBackend) keyEpoch() uint64 { return 0 }

func (b engineBackend) query(node graph.NodeID, stop core.StopCondition, _ string) (*cluster.Result, []graph.NodeID, error) {
	qs, err := b.s.engine.NewQuery(node)
	if err != nil {
		return nil, nil, err
	}
	res := qs.Run(stop)
	deps := qs.HubDeps()
	// Run materialized the result; Close recycles the pooled query buffers so
	// a steady serving workload answers without per-query allocations.
	qs.Close()
	return &cluster.Result{Result: *res, Epoch: b.s.engine.Epoch()}, deps, nil
}

func (b engineBackend) labelResults(results []ScoredNode) {
	b.s.mu.RLock()
	defer b.s.mu.RUnlock()
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
	s.mu.RLock()
	g := s.engine.Graph()
	off := s.engine.OfflineStats()
	resp.Graph = GraphInfo{Nodes: g.NumNodes(), Edges: g.NumEdges(), Directed: g.Directed()}
	resp.Epoch = s.engine.Epoch()
	s.mu.RUnlock()
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
	if s.cfg.WarmHubs > 0 {
		warmed := s.warmed
		resp.Warming = &warmed
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

// keyEpoch is the cluster epoch: an accepted update moves every lookup to the
// new epoch, so pre-update answers can never be served again and a post-update
// request never joins a pre-update flight.
func (b routerBackend) keyEpoch() uint64 {
	epoch, _ := b.rt.ClusterEpoch()
	return epoch
}

func (b routerBackend) query(node graph.NodeID, stop core.StopCondition, traceID string) (*cluster.Result, []graph.NodeID, error) {
	res, err := b.rt.QueryTrace(node, stop, traceID)
	if err != nil {
		// A shard answering bad_request (e.g. an out-of-range node the router
		// could not pre-validate before graph-size discovery) is a client
		// mistake, not an outage; everything else means no shard could answer.
		var aerr *api.Error
		if errors.As(err, &aerr) && aerr.Code == api.CodeBadRequest {
			return nil, nil, &httpError{status: http.StatusBadRequest, code: api.CodeBadRequest, msg: aerr.Message}
		}
		return nil, nil, &httpError{status: http.StatusServiceUnavailable, code: api.CodeUnavailable, msg: err.Error()}
	}
	return res, nil, nil
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

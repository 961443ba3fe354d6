// Package api defines the wire contract shared by the serving daemon, the
// cluster router and the load-generation tooling: the partial-query protocol
// the router speaks to shards (request and response types here, their binary
// frames in binary.go), the sparse-vector form it uses, and the structured
// error envelope every HTTP endpoint returns on failure.
//
// It deliberately contains no behaviour beyond encoding: both internal/server
// (the shard side of /v1/stream) and internal/cluster (the router side)
// import it, so it must not depend on either.
package api

import (
	"fmt"
	"sort"
	"strings"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// TraceHeader carries the per-query trace ID between a client and the serving
// layer, which mints one per traced request when the client sent none. The
// router forwards the ID inside every shard leg's request frame and shards key
// their structured logs on it, so one routed query can be followed end to end
// through the logs of every process it touched.
const TraceHeader = "X-Fastppv-Trace"

// NormalizeTarget canonicalizes a shard/daemon address as accepted by the
// CLIs and the router: surrounding space and trailing slashes are dropped and
// a bare host:port gets the http scheme. It returns an error for a blank
// entry (usually a stray comma in a target list).
func NormalizeTarget(t string) (string, error) {
	t = strings.TrimRight(strings.TrimSpace(t), "/")
	if t == "" {
		return "", fmt.Errorf("api: empty target address")
	}
	if !strings.Contains(t, "://") {
		t = "http://" + t
	}
	return t, nil
}

// Error codes distinguish failure classes machine-readably, so a router or
// load generator can react per class instead of pattern-matching messages:
// retry transient conditions, widen the error bound on unavailable shards,
// and surface client mistakes unchanged.
const (
	// CodeBadRequest is a malformed or out-of-range request; retrying is
	// pointless.
	CodeBadRequest = "bad_request"
	// CodeOverloaded reports admission rejection: no computation slot freed
	// within the server's queue wait. Back off before retrying.
	CodeOverloaded = "overloaded"
	// CodeRetry reports a transient server condition — typically an index
	// descriptor closing mid-read while the shard restarts or compacts — that
	// an immediate retry is expected to clear.
	CodeRetry = "retry"
	// CodeUnsupported reports an endpoint that exists but is not available in
	// this server's mode (e.g. /v1/update on a router, /v1/compact on an
	// in-memory index).
	CodeUnsupported = "unsupported"
	// CodeConflict reports an operation already in progress (e.g. concurrent
	// compactions) or a replica refusing writes on top of possibly corrupt
	// state (an engine flagged inconsistent rejects further updates with it).
	CodeConflict = "conflict"
	// CodeEpochMismatch reports a conditional update whose if_epoch
	// precondition failed: the target's index epoch is not the one the caller
	// expected, so applying the batch would put the replica out of sequence
	// with the rest of the cluster. The caller must re-read the current epoch
	// (or let the router fold the divergent replica out of query answers).
	CodeEpochMismatch = "epoch_mismatch"
	// CodeUnavailable reports that the service cannot answer at all — a
	// router with every shard down, or an engine flagged inconsistent.
	CodeUnavailable = "unavailable"
	// CodeInternal is an unclassified server-side failure.
	CodeInternal = "internal"
)

// Error is the structured error payload. It implements the error interface so
// a decoded remote failure can travel through ordinary error returns without
// losing its code.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Code + ": " + e.Message }

// ErrorResponse is the body of every non-2xx answer: {"error": {code, message}}.
type ErrorResponse struct {
	Error Error `json:"error"`
}

// Vector is the wire form of a sparse score vector: parallel node and score
// slices sorted by ascending node id. The sort makes encoded bodies a
// deterministic function of the vector, preserving the serving layer's
// byte-reproducibility guarantee across the cluster hop, and float64 values
// round-trip exactly through encoding/json's shortest-form rendering.
type Vector struct {
	Nodes  []graph.NodeID `json:"nodes"`
	Scores []float64      `json:"scores"`
}

// EncodeVector converts a sparse vector map to wire form, sorting its ids.
// Nothing on the shard leg calls it — a shard frames the accumulator's sorted
// slices as they are — and it stays only because the benchmark harness builds
// its partial responses from core.Engine.PartialRoot's map view; it is deleted
// with that view (ROADMAP item 1).
func EncodeVector(v sparse.Vector) Vector {
	w := Vector{
		Nodes:  make([]graph.NodeID, 0, len(v)),
		Scores: make([]float64, 0, len(v)),
	}
	for id := range v {
		w.Nodes = append(w.Nodes, id)
	}
	sort.Slice(w.Nodes, func(i, j int) bool { return w.Nodes[i] < w.Nodes[j] })
	for _, id := range w.Nodes {
		w.Scores = append(w.Scores, v[id])
	}
	return w
}

// EncodeMap converts a hub->weight map (a query frontier) to wire form. Like
// EncodeVector it serves only the benchmark harness and goes with ROADMAP
// item 1.
func EncodeMap(m map[graph.NodeID]float64) Vector {
	v := make(sparse.Vector, len(m))
	for id, s := range m {
		v[id] = s
	}
	return EncodeVector(v)
}

// PartialRequest is the shard-side sub-query of a distributed PPV evaluation,
// carried in a FramePartialRequest on the shard's stream. Exactly one of Query
// and Frontier is set:
//
//   - Query asks for iteration 0 — the prime PPV of the query node, served
//     from the shard's index when it owns that hub and computed on the fly
//     otherwise;
//   - Frontier asks for one expansion iteration over the given hub->prefix
//     weights, which must all be hubs this shard owns.
type PartialRequest struct {
	Query    *graph.NodeID
	Frontier *Vector
	// Iteration is the router's iteration number for this expansion; it only
	// feeds shard-side logging and stats.
	Iteration int
}

// PartialResponse answers a partial request, in a FramePartialResponse.
type PartialResponse struct {
	// Shard and Shards echo the answering shard's partition, letting the
	// router detect a misconfigured target list.
	Shard  int
	Shards int
	// Epoch is the answering shard's index epoch: the number of graph-update
	// batches folded into the state this partial was evaluated against. The
	// router compares epochs across the shards of one query and folds an
	// epoch-divergent shard's mass into the error bound instead of merging
	// answers computed on different graphs.
	Epoch uint64
	// Increment is the partial PPV mass this sub-query contributed.
	Increment Vector
	// Frontier holds the hub entries of Increment: prefix weights for the
	// next iteration, including hubs owned by other shards. A root reply's
	// frontier holds only the hubs whose prefix exceeds delta. An expansion
	// reply's frontier is unpruned, since it is one addend of the router's
	// sum; the router prunes the sum by the root reply's Delta.
	Frontier Vector
	// HubsExpanded and HubsSkipped count assembled and delta-pruned hubs. For
	// a root reply HubsSkipped is the number of border hubs pruned from
	// Frontier; the router counts them as the first expansion's skipped hubs.
	HubsExpanded int
	HubsSkipped  int
	// Unowned lists requested hubs the shard refused because its partition
	// does not own them; their mass was not expanded.
	Unowned []graph.NodeID
	// FromIndex reports, for a root request, whether the query node's prime
	// PPV came from the stored index.
	FromIndex bool
	// ComputeMS is the shard-side evaluation time in milliseconds.
	ComputeMS float64
	// Delta is, in a root reply, the shard engine's delta threshold: a border
	// hub is expanded only when its summed prefix exceeds it. Zero in an
	// expansion reply.
	Delta float64
}

// UpdateRequest is the body of POST /v1/update: batches of edges to add and
// remove, each edge a [from, to] pair. Pairs are decoded as slices so that a
// wrong-length entry is rejected instead of being zero-filled. It lives here
// because both sides of the cluster speak it: a client posts it to the router,
// and the router fans the identical body out to every shard.
type UpdateRequest struct {
	AddedEdges   [][]int `json:"added_edges,omitempty"`
	RemovedEdges [][]int `json:"removed_edges,omitempty"`
	NumNodes     int     `json:"num_nodes,omitempty"`
	// IfEpoch, when set, makes the update conditional: the target applies the
	// batch only if its current index epoch equals IfEpoch, and answers
	// CodeEpochMismatch otherwise. The router uses it on every fan-out leg so
	// a shard that missed an earlier batch can never apply later batches out
	// of sequence — it stays cleanly "behind" (and folded out of answers)
	// instead of diverging unboundedly.
	IfEpoch *uint64 `json:"if_epoch,omitempty"`
}

// UpdateResponse is the body answering an update applied to one engine.
type UpdateResponse struct {
	AffectedHubs   int     `json:"affected_hubs"`
	UnaffectedHubs int     `json:"unaffected_hubs"`
	Invalidated    int     `json:"invalidated"`
	DurationMS     float64 `json:"duration_ms"`
	// Epoch is the engine's index epoch after this update was applied.
	Epoch uint64 `json:"epoch"`
}

// ShardUpdateResult reports the outcome of one leg of a cluster update
// fan-out.
type ShardUpdateResult struct {
	Shard  int    `json:"shard"`
	Target string `json:"target"`
	// Applied reports whether this shard committed the batch; Epoch is its
	// index epoch afterwards (or the stale epoch that disqualified it).
	Applied bool   `json:"applied"`
	Epoch   uint64 `json:"epoch,omitempty"`
	// AffectedHubs counts the hubs the shard recomputed (owned hubs only).
	AffectedHubs int `json:"affected_hubs,omitempty"`
	// ErrorCode and Error describe the failure when Applied is false.
	ErrorCode string `json:"error_code,omitempty"`
	Error     string `json:"error,omitempty"`
}

// ClusterUpdateResponse is the body answering POST /v1/update on a router: the
// per-shard fan-out outcomes and the resulting cluster epoch.
type ClusterUpdateResponse struct {
	// Epoch is the cluster index epoch after the fan-out: every shard that
	// applied the batch now reports it.
	Epoch uint64 `json:"epoch"`
	// ShardsApplied and ShardsFailed partition the shard set; Degraded is set
	// when at least one shard did not apply the batch — that shard now serves
	// an older graph and the router folds its mass into query error bounds
	// until it is restarted or rebuilt.
	ShardsApplied int                 `json:"shards_applied"`
	ShardsFailed  int                 `json:"shards_failed"`
	Degraded      bool                `json:"degraded,omitempty"`
	Shards        []ShardUpdateResult `json:"shards"`
	// Invalidated counts router-cache entries dropped by this update.
	Invalidated int     `json:"invalidated"`
	DurationMS  float64 `json:"duration_ms"`
}

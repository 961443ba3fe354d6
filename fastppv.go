// Package fastppv is the public API of the FastPPV reproduction: incremental
// and accuracy-aware Personalized PageRank through scheduled approximation
// (Zhu, Fang, Chang, Ying — PVLDB 6(6), 2013).
//
// The package exposes the building blocks a downstream application needs:
//
//   - building or loading a graph (Builder, LoadEdgeList, LoadBinary),
//   - creating an Engine and precomputing its hub index (New, Engine.Precompute),
//   - answering online queries with a configurable accuracy/time trade-off
//     (Engine.Query, Engine.NewQuery with per-iteration stepping),
//   - ground truth and accuracy metrics for evaluation (ExactPPV, Evaluate),
//   - maintaining the index as the graph changes (Engine.ApplyUpdate).
//
// The heavy lifting lives in the internal packages; the exported identifiers
// here are thin aliases and wrappers so that application code only ever
// imports "fastppv".
//
// A minimal end-to-end use:
//
//	b := fastppv.NewBuilder(true)
//	// ... add nodes and edges ...
//	g := b.Finalize()
//	engine, err := fastppv.New(g, fastppv.Options{NumHubs: 1000})
//	if err != nil { ... }
//	if err := engine.Precompute(); err != nil { ... }
//	res, err := engine.Query(q, fastppv.StopCondition{MaxIterations: 2})
//	for _, e := range res.TopK(10) {
//		fmt.Println(e.Node, e.Score)
//	}
package fastppv

import (
	"fmt"
	"io"

	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/metrics"
	"fastppv/internal/pagerank"
	"fastppv/internal/ppvindex"
	"fastppv/internal/sparse"
)

// Graph types.
type (
	// NodeID identifies a node: a dense index in [0, Graph.NumNodes()).
	NodeID = graph.NodeID
	// Edge is a directed edge (or one orientation of an undirected edge).
	Edge = graph.Edge
	// Graph is an immutable graph in CSR layout; build one with a Builder or
	// the Load functions.
	Graph = graph.Graph
	// Builder accumulates nodes and edges and produces a Graph.
	Builder = graph.Builder
)

// Engine types.
type (
	// Options configure an Engine (teleport probability, hub count and
	// policy, pruning thresholds). The zero value reproduces the paper's
	// defaults with an automatically chosen hub count.
	Options = core.Options
	// Engine is a FastPPV instance: offline Precompute, then online Query.
	Engine = core.Engine
	// StopCondition controls when online query processing stops (number of
	// iterations eta, target L1 error, or time limit).
	StopCondition = core.StopCondition
	// Result is the outcome of a query: the estimated PPV, the accuracy-aware
	// L1 error bound, and per-iteration statistics.
	Result = core.Result
	// QueryState is an in-progress incremental query; Step applies one more
	// PPV increment. Run returns the estimate as the sorted Result.Entries
	// only (Result.Estimate is nil); Result builds the map view.
	QueryState = core.QueryState
	// IterationStat describes one online iteration.
	IterationStat = core.IterationStat
	// OfflineStats summarizes offline precomputation cost.
	OfflineStats = core.OfflineStats
	// GraphUpdate is a batch of edge insertions/deletions for ApplyUpdate.
	GraphUpdate = core.GraphUpdate
	// UpdateStats reports the cost of an incremental index update.
	UpdateStats = core.UpdateStats
	// Partition restricts an engine to one horizontal shard of the hub index
	// (set Options.Partition); shard routing and ownership are a pure
	// function of (hub id, shard count), see core.Partition.
	Partition = core.Partition
	// PartialIncrement is the outcome of one shard-local step of a
	// distributed query (Engine.PartialRoot / Engine.PartialExpand).
	PartialIncrement = core.PartialIncrement
)

// ParsePartition parses an "i/n" shard spec (shard i of n), as accepted by
// the fastppvd -shard flag.
func ParsePartition(s string) (Partition, error) { return core.ParsePartition(s) }

// Vector types.
type (
	// Vector is a sparse score vector indexed by node.
	Vector = sparse.Vector
	// Entry is a (node, score) pair of a ranked result.
	Entry = sparse.Entry
)

// AccuracyReport bundles the four accuracy metrics of the paper's evaluation.
type AccuracyReport = metrics.Report

// InvalidNode is returned by lookups that find no node.
const InvalidNode = graph.InvalidNode

// ErrBadIndexFormat reports a corrupt, truncated or foreign index file; both
// OpenDiskIndex and later reads through the engine can return it (wrapped).
var ErrBadIndexFormat = ppvindex.ErrBadIndexFormat

// ErrClosed reports an operation on a disk index store whose close function
// has already run; queries against a closed engine fail with it (wrapped)
// instead of reading a closed file descriptor or serving stale overlay hits.
var ErrClosed = ppvindex.ErrClosed

// ErrCompactionInProgress reports that Compact was called while another
// compaction of the same index was still running.
var ErrCompactionInProgress = ppvindex.ErrCompactionInProgress

// DurabilityStats summarizes the durable-update machinery of a disk-served
// index (update-log size, overlay population, compaction count).
type DurabilityStats = ppvindex.DurabilityStats

// CompactionResult reports what one compaction of a disk-served index did.
type CompactionResult = ppvindex.CompactionResult

// DefaultAlpha is the teleporting probability used throughout the paper.
const DefaultAlpha = pagerank.DefaultAlpha

// NewBuilder returns a Builder for a directed (true) or undirected (false)
// graph.
func NewBuilder(directed bool) *Builder { return graph.NewBuilder(directed) }

// FromEdges builds a graph directly from an edge list over numNodes nodes.
func FromEdges(numNodes int, directed bool, edges []Edge) (*Graph, error) {
	return graph.FromEdges(numNodes, directed, edges)
}

// LoadEdgeList parses a text edge-list (optionally with a "nodes <n>
// directed|undirected" header).
func LoadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// LoadEdgeListFile reads a text edge-list file from disk.
func LoadEdgeListFile(path string) (*Graph, error) { return graph.LoadEdgeListFile(path) }

// SaveEdgeListFile writes a graph as a text edge-list file.
func SaveEdgeListFile(path string, g *Graph) error { return graph.SaveEdgeListFile(path, g) }

// LoadBinaryFile reads a graph in the compact binary format.
func LoadBinaryFile(path string) (*Graph, error) { return graph.LoadBinaryFile(path) }

// SaveBinaryFile writes a graph in the compact binary format.
func SaveBinaryFile(path string, g *Graph) error { return graph.SaveBinaryFile(path, g) }

// New creates a FastPPV engine over g with an in-memory PPV index. Call
// Precompute before Query.
func New(g *Graph, opts Options) (*Engine, error) { return core.NewEngine(g, nil, opts) }

// DefaultCompactThresholdBytes is how many bytes of hub records the update
// log of a disk-served index may hold before it compacts itself in the
// background, unless configured otherwise.
const DefaultCompactThresholdBytes = ppvindex.DefaultCompactThresholdBytes

// DiskIndexOptions tune the durable-update machinery of a disk-backed index
// (OpenDiskIndexWithOptions): block cache budget, update-log path,
// compaction threshold and mmap. The zero value logs update batches to
// <index path>.log, with the default compaction threshold and block cache.
type DiskIndexOptions = ppvindex.StoreOptions

// graphBinding names the base graph the mutations in a disk store's update
// log apply to.
func graphBinding(g *Graph) ppvindex.GraphBinding {
	return ppvindex.GraphBinding{Nodes: g.NumNodes(), Edges: g.NumEdges(), Directed: g.Directed()}
}

// NewWithDiskIndex creates a FastPPV engine whose hub prime PPVs are written
// to (and later read from) the index file at path, for deployments where the
// index should not live in memory. Records stream into <path>.tmp and the
// finished index is renamed into place when it is finalized (by the first
// read, or by the close function after a successful Precompute), so a crash
// or failure mid-precompute never leaves a partial file at path.
//
// Publishing the index starts its update log fresh, so updates the engine
// applies after Precompute are as durable as those of an engine from
// OpenDiskIndex: a later OpenDiskIndex replays them.
//
// The returned close function releases the file handles and must be called
// when the engine is no longer needed; if Precompute never succeeded it
// discards the temporary file instead of publishing an incomplete index.
func NewWithDiskIndex(g *Graph, opts Options, path string) (*Engine, func() error, error) {
	store, err := ppvindex.CreateStore(path, graphBinding(g), DiskIndexOptions{BlockCacheBytes: -1})
	if err != nil {
		return nil, nil, err
	}
	engine, err := core.NewEngine(g, store, opts)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	closer := func() error {
		if !engine.Precomputed() {
			return store.Abort()
		}
		return store.Close()
	}
	return engine, closer, nil
}

// BlockCacheStats summarizes the hub-block cache fronting a disk index.
type BlockCacheStats = ppvindex.BlockCacheStats

// OpenDiskIndex opens an index file precomputed earlier (by NewWithDiskIndex
// or `fastppv precompute`) and returns an engine that serves queries from it
// without redoing the offline phase: the hub set is recovered from the index
// directory and the engine is immediately query-ready.
//
// blockCacheBytes budgets an in-memory cache of hub records between
// the engine and the disk: 0 means a 64 MiB default, negative disables
// caching (every fetched hub costs one random disk access, the raw Sect. 6.3
// cost model). opts must match the options used at precompute time.
//
// Incremental updates applied through the engine are durable: each batch —
// the graph mutation and the hub PPVs it recomputed — is committed to
// <path>.log as one frame before the update returns, and reopening the index
// replays the batches, so updates survive a restart. Compaction folds the
// logged hub PPVs back into the base file and keeps the mutations (automatic
// past DefaultCompactThresholdBytes of logged records, or on demand through
// the store's Compact method / the daemon's /v1/compact endpoint). Use
// OpenDiskIndexWithOptions to tune this.
//
// The returned close function releases the file handles; afterwards queries
// fail with ErrClosed (wrapped).
func OpenDiskIndex(g *Graph, opts Options, path string, blockCacheBytes int64) (*Engine, func() error, error) {
	return OpenDiskIndexWithOptions(g, opts, path, DiskIndexOptions{BlockCacheBytes: blockCacheBytes})
}

// OpenDiskIndexWithOptions is OpenDiskIndex with explicit control over the
// log path, compaction threshold, block cache and mmap.
//
// The mutations of the logged batches are replayed onto g before the engine
// is created, and the engine's index epoch starts at the replayed batch
// count: a restarted daemon serves the same graph, PPVs and epoch as the
// process that applied the updates live. g itself must be the graph the index
// was precomputed on: the log is bound to it (beside another graph it is
// discarded), and a sharded engine recovers its full hub set by selecting on
// g, because updates never change the hub set.
func OpenDiskIndexWithOptions(g *Graph, opts Options, path string, dio DiskIndexOptions) (*Engine, func() error, error) {
	served, replayed := g, uint64(0)
	store, err := ppvindex.OpenStore(path, graphBinding(g), dio, func(upd GraphUpdate) error {
		next, err := core.ReplayGraphUpdate(served, upd)
		if err != nil {
			return fmt.Errorf("fastppv: replaying the update log: %w", err)
		}
		served, replayed = next, replayed+1
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	opts.InitialEpoch = replayed
	engine, err := core.NewServingEngine(g, served, store, opts)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return engine, store.Close, nil
}

// DefaultStop returns the paper's default stopping condition (eta = 2).
func DefaultStop() StopCondition { return core.DefaultStop() }

// ExactPPV computes the exact Personalized PageRank Vector of q on g by power
// iteration. It is the ground truth oracle; use Engine.Query for fast
// approximate answers.
func ExactPPV(g *Graph, q NodeID, alpha float64) (Vector, error) {
	return pagerank.ExactPPV(g, q, pagerank.Options{Alpha: alpha})
}

// GlobalPageRank computes the global (non-personalized) PageRank of every
// node; it is the popularity signal used by hub selection.
func GlobalPageRank(g *Graph, alpha float64) ([]float64, error) {
	return pagerank.Global(g, pagerank.Options{Alpha: alpha})
}

// Evaluate scores an approximate PPV against the exact one at ranking depth
// k, returning the paper's four accuracy metrics.
func Evaluate(exact, approx Vector, k int) AccuracyReport {
	return metrics.Evaluate(exact, approx, k)
}

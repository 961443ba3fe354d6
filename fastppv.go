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
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

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
	// PPV increment.
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
var ErrClosed = errors.New("fastppv: disk index store is closed")

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

// DefaultCompactThresholdBytes is the update-log size at which a disk-served
// index compacts itself in the background, unless configured otherwise.
const DefaultCompactThresholdBytes = 64 << 20

// DiskIndexOptions tune the durable-update machinery of a disk-backed index
// (NewWithDiskIndex and OpenDiskIndexWithOptions). The zero value enables the
// update log at <index path>.log with the default compaction threshold and no
// block cache restrictions beyond the package defaults.
type DiskIndexOptions struct {
	// BlockCacheBytes budgets an in-memory cache of hub records
	// between the engine and the disk: 0 means a 64 MiB default, negative
	// disables caching (every fetched hub costs one random disk access, the
	// raw Sect. 6.3 cost model).
	BlockCacheBytes int64
	// UpdateLogPath overrides where post-finalize index updates are logged;
	// empty means <index path>.log.
	UpdateLogPath string
	// DisableUpdateLog turns durable updates off: incremental updates then
	// live only in the in-memory overlay and are lost on restart (the
	// pre-durability behaviour).
	DisableUpdateLog bool
	// CompactThresholdBytes triggers a background compaction once the update
	// log grows past it; 0 means DefaultCompactThresholdBytes, negative
	// disables automatic compaction (manual Compact still works).
	CompactThresholdBytes int64
	// GraphLogPath overrides where committed graph updates themselves are
	// logged; empty means <index path>.graphlog. Replayed on open, so the
	// served graph (and the index epoch) survive a restart instead of
	// reverting to the graph file the daemon was started with.
	GraphLogPath string
	// DisableGraphLog turns graph-mutation logging off: after a restart the
	// engine serves the original graph again while the index still replays
	// the updated hub PPVs (the pre-graph-log behaviour).
	DisableGraphLog bool
	// Mmap maps the index file into memory and serves hub records as
	// zero-copy views instead of pread-ing them into fresh buffers. Falls
	// back to pread silently when the platform (or the file) cannot be
	// mapped; MmapActive on the store reports which mode is live.
	Mmap bool
}

// storeConfig resolves the public knobs into the internal store config.
func (o DiskIndexOptions) storeConfig(indexPath string) diskStoreConfig {
	cfg := diskStoreConfig{cacheBytes: o.BlockCacheBytes, mmap: o.Mmap}
	if !o.DisableUpdateLog {
		cfg.logPath = o.UpdateLogPath
		if cfg.logPath == "" {
			cfg.logPath = indexPath + ".log"
		}
		cfg.compactThreshold = o.CompactThresholdBytes
		if cfg.compactThreshold == 0 {
			cfg.compactThreshold = DefaultCompactThresholdBytes
		}
	}
	if !o.DisableGraphLog {
		cfg.graphLogPath = o.GraphLogPath
		if cfg.graphLogPath == "" {
			cfg.graphLogPath = indexPath + ".graphlog"
		}
	}
	return cfg
}

// NewWithDiskIndex creates a FastPPV engine whose hub prime PPVs are written
// to (and later read from) the index file at path, for deployments where the
// index should not live in memory. Records stream into <path>.tmp and the
// finished index is renamed into place when it is finalized (by the first
// read, or by the close function after a successful Precompute), so a crash
// or failure mid-precompute never leaves a partial file at path.
//
// The returned close function releases the file handles and must be called
// when the engine is no longer needed; if Precompute never succeeded it
// discards the temporary file instead of publishing an incomplete index.
func NewWithDiskIndex(g *Graph, opts Options, path string) (*Engine, func() error, error) {
	cfg := DiskIndexOptions{BlockCacheBytes: -1}.storeConfig(path)
	store, err := newDiskStore(path, cfg)
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
// Incremental updates applied through the engine are durable: each batch of
// recomputed hub PPVs is committed to <path>.log before the update returns,
// and reopening the index replays the log, so updates survive a restart. The
// log is folded back into the base file by compaction (automatic past
// DefaultCompactThresholdBytes, or on demand through the store's Compact
// method / the daemon's /v1/compact endpoint). Use OpenDiskIndexWithOptions
// to tune or disable this.
//
// The returned close function releases the file handles; afterwards queries
// fail with ErrClosed (wrapped).
func OpenDiskIndex(g *Graph, opts Options, path string, blockCacheBytes int64) (*Engine, func() error, error) {
	return OpenDiskIndexWithOptions(g, opts, path, DiskIndexOptions{BlockCacheBytes: blockCacheBytes})
}

// OpenDiskIndexWithOptions is OpenDiskIndex with explicit control over the
// update log, graph-mutation log and compaction behaviour.
//
// When the graph log is enabled (the default), the batches it holds are
// replayed onto g before the engine is created, and the engine's index epoch
// starts at the replayed batch count: a restarted daemon serves the same
// graph, the same PPVs and the same epoch as the process that applied the
// updates live, instead of reverting non-hub answers to the original graph
// file. g itself must be the graph the index was precomputed on: a sharded
// engine recovers its full hub set by selecting on g, not on the replayed
// graph, because updates never change the hub set.
func OpenDiskIndexWithOptions(g *Graph, opts Options, path string, dio DiskIndexOptions) (*Engine, func() error, error) {
	cfg := dio.storeConfig(path)
	served := g
	if cfg.graphLogPath != "" {
		bind := ppvindex.GraphLogBinding{Nodes: g.NumNodes(), Edges: g.NumEdges(), Directed: g.Directed()}
		glog, err := ppvindex.OpenGraphLog(cfg.graphLogPath, bind, func(m ppvindex.GraphMutation) error {
			next, err := core.ReplayGraphUpdate(served, core.GraphUpdate{
				AddedEdges:   m.AddedEdges,
				RemovedEdges: m.RemovedEdges,
				NumNodes:     m.NumNodes,
			})
			if err != nil {
				return fmt.Errorf("fastppv: replaying the graph-mutation log: %w", err)
			}
			served = next
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		cfg.graphLog = glog
		opts.InitialEpoch = uint64(glog.Records())
	}
	store, err := openDiskStore(path, cfg)
	if err != nil {
		if cfg.graphLog != nil {
			cfg.graphLog.Close()
		}
		return nil, nil, err
	}
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

// diskStoreConfig tunes a diskStore beyond its index path.
type diskStoreConfig struct {
	// cacheBytes budgets the hub-block cache: <0 disables it, 0 means the
	// package default.
	cacheBytes int64
	// logPath is where post-finalize Puts are persisted; empty disables the
	// update log (volatile overlay only).
	logPath string
	// compactThreshold triggers a background compaction once the update log
	// grows past it; <=0 disables automatic compaction.
	compactThreshold int64
	// graphLogPath is where committed graph updates are persisted; empty
	// disables the graph-mutation log. In write mode (a fresh precompute) it
	// is only used for stale-file cleanup when the new base is published.
	graphLogPath string
	// graphLog is the already opened and replayed graph-mutation log handed
	// over by OpenDiskIndexWithOptions (opening it needs the graph, which the
	// store never sees); the store takes ownership and appends/commits/closes
	// it.
	graphLog *ppvindex.GraphLog
	// mmap opens every base-index generation memory-mapped (zero-copy record
	// views); unsupported platforms fall back to pread silently.
	mmap bool
}

// diskStore adapts the disk index writer/reader pair to the engine's
// IndexStore interface. During precompute, PutEncoded streams to the writer;
// the first read finalizes the writer and opens the index for reading (guarded
// by mu — concurrent first reads from parallel queries must not race the
// transition). Reads optionally go through a ppvindex.BlockCache, and writes
// after finalization (incremental updates recomputing a hub) land in an
// in-memory overlay that shadows the on-disk record, with the hub's cached
// block invalidated. Whichever of the three a record is served from, it is the
// same flat payload behind a HubRecordView.
//
// When an update log is configured, every post-finalize write is also appended
// to it and CommitUpdates (the engine's update-commit hook) fsyncs the batch,
// so incremental updates survive a restart: opening the store replays the log
// back into the overlay. Compact folds log + overlay into a rewritten base
// file (built in <path>.tmp, atomically renamed over <path>) and resets the
// log; in-flight reads drain on the old file descriptor before it is closed,
// while new reads move to the freshly published state.
type diskStore struct {
	path string
	cfg  diskStoreConfig

	// state is the published read-side view. It is swapped atomically: once
	// at the writer->reader transition, and again by every compaction. The
	// read hot path loads it without taking mu, so warm cache hits never
	// serialize on a store-wide lock.
	state atomic.Pointer[diskReadState]

	mu     sync.Mutex
	writer *ppvindex.DiskWriter
	reader *ppvindex.DiskIndex
	log    *ppvindex.UpdateLog
	// graphLog persists the graph-update batches themselves (opened and
	// replayed by OpenDiskIndexWithOptions, which owns the graph); nil when
	// graph logging is disabled or the store was created in write mode.
	graphLog *ppvindex.GraphLog
	closed   bool
	// logWedged flips when a compaction renamed the rewritten base into
	// place but failed before re-binding the log to it: frames appended from
	// then on would be bound to the replaced base and silently discarded on
	// restart, so Puts fail instead until a retried compaction (which
	// re-binds the log) or a restart recovers.
	logWedged bool

	compacting  atomic.Bool
	compactions atomic.Int64
	// logBytes/logRecords mirror the log counters so DurabilityStats can
	// report them without taking mu (which compaction holds for its whole
	// rewrite). Updated under mu, read atomically. graphLogBytes/-Records do
	// the same for the graph-mutation log.
	logBytes        atomic.Int64
	logRecords      atomic.Int64
	graphLogBytes   atomic.Int64
	graphLogRecords atomic.Int64
}

// diskReadState is one immutable read-side view of a finalized store. The
// overlay it carries is mutable (updates shadow base records through it), but
// src and reader never change; compaction publishes a whole new state instead.
// A retired state's descriptor is closed by DiskIndex.Close, which drains
// in-flight record reads first; a straggler that loaded this state before it
// was unpublished either completes against the still-open descriptor or gets
// ErrIndexClosed and retries on the current state.
type diskReadState struct {
	// src is where reads of hubs the overlay does not shadow come from: the
	// block cache when enabled, the raw reader otherwise.
	src ppvindex.Index
	// overlay holds hubs rewritten after finalization; it only ever contains
	// hubs that are also in the on-disk directory, so membership queries can
	// keep delegating to src.
	overlay *ppvindex.MemIndex
	// reader owns the file descriptor behind src; cache is the block cache
	// fronting it (nil when caching is disabled).
	reader *ppvindex.DiskIndex
	cache  *ppvindex.BlockCache
}

// newDiskStore creates a store in write mode: records stream to a fresh index
// file at path until the first read finalizes it. A leftover update log from a
// previous index at the same path is left alone until the new index is
// actually published (finalize time) — if this rebuild fails or crashes, the
// old index and its durable updates remain fully intact.
func newDiskStore(path string, cfg diskStoreConfig) (*diskStore, error) {
	w, err := ppvindex.CreateDisk(path)
	if err != nil {
		return nil, err
	}
	return &diskStore{path: path, cfg: cfg, writer: w}, nil
}

// openDiskStore opens an existing index file in read mode, replaying the
// update log (when configured) into the overlay. A stale <path>.tmp from a
// crashed precompute or compaction is removed: whatever it held either never
// completed or was already renamed into place.
func openDiskStore(path string, cfg diskStoreConfig) (*diskStore, error) {
	if err := os.Remove(path + ".tmp"); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	s := &diskStore{path: path, cfg: cfg}
	if cfg.graphLog != nil {
		s.graphLog = cfg.graphLog
		s.graphLogBytes.Store(s.graphLog.SizeBytes())
		s.graphLogRecords.Store(s.graphLog.Records())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureReaderLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// PutEncoded implements ppvindex.Writer; the payload ends up owned by the
// overlay, or copied into the writer's buffer while the store is being built.
func (s *diskStore) PutEncoded(h NodeID, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.writer != nil {
		return s.writer.PutEncoded(h, payload)
	}
	// Finalized: the rewrite (an incremental update recomputing this hub) is
	// logged first — write-ahead discipline — then shadows the on-disk record
	// and evicts the stale cached block. The overlay write below never errors.
	if err := s.ensureReaderLocked(); err != nil {
		return err
	}
	if s.log != nil {
		if s.logWedged {
			return fmt.Errorf("fastppv: update log is out of sync with the rewritten base (a compaction failed after its rename); retry compaction or restart to recover")
		}
		if err := s.log.AppendEncoded(h, payload); err != nil {
			return fmt.Errorf("fastppv: appending hub %d to the update log: %w", h, err)
		}
		s.logBytes.Store(s.log.SizeBytes())
		s.logRecords.Store(s.log.Records())
	}
	st := s.state.Load()
	if err := st.overlay.PutEncoded(h, payload); err != nil {
		return err
	}
	if st.cache != nil {
		st.cache.Invalidate([]NodeID{h})
	}
	return nil
}

// AppendGraphUpdate implements core.GraphUpdateLogger: the committed batch's
// graph mutation is staged into the graph-mutation log alongside the PPV
// rewrites already staged by Put, and CommitUpdates below makes both durable.
// Without a graph log (disabled, or a store still being precomputed) it is a
// no-op — the update then only survives restarts in its PPV half.
func (s *diskStore) AppendGraphUpdate(upd core.GraphUpdate) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.graphLog == nil {
		return nil
	}
	m := ppvindex.GraphMutation{
		AddedEdges:   upd.AddedEdges,
		RemovedEdges: upd.RemovedEdges,
		NumNodes:     upd.NumNodes,
	}
	if err := s.graphLog.Append(m); err != nil {
		return fmt.Errorf("fastppv: appending to the graph-mutation log: %w", err)
	}
	s.graphLogBytes.Store(s.graphLog.SizeBytes())
	s.graphLogRecords.Store(s.graphLog.Records())
	return nil
}

// CommitUpdates implements core.UpdateCommitter: it makes the batch of Puts
// staged by one incremental update durable with a single fsync, and kicks off
// a background compaction when the log has outgrown its threshold.
func (s *diskStore) CommitUpdates() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	var trigger bool
	if s.log != nil {
		if err := s.log.Commit(); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("fastppv: committing the update log: %w", err)
		}
		trigger = s.cfg.compactThreshold > 0 && s.log.SizeBytes() >= s.cfg.compactThreshold
	}
	// The PPV half commits first: a crash between the two fsyncs then leaves
	// a replica whose graph (and epoch) are one batch behind its hub PPVs —
	// it reports the older epoch and a router folds it out. The opposite
	// order would let a replica claim the new epoch while serving the old
	// PPVs, which no epoch check could catch.
	if s.graphLog != nil {
		if err := s.graphLog.Commit(); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("fastppv: committing the graph-mutation log: %w", err)
		}
	}
	s.mu.Unlock()
	if trigger && !s.compacting.Load() {
		go func() {
			// Best effort: a failed or concurrent background compaction is
			// retried at the next commit past the threshold.
			_, _ = s.Compact()
		}()
	}
	return nil
}

// Get decodes the record of h into a fresh map (ppvindex.Index's boundary
// helper; the engine reads through GetView).
func (s *diskStore) Get(h NodeID) (Vector, bool, error) { return ppvindex.VectorOf(s, h) }

// GetView implements ppvindex.ViewGetter: the overlay's record when an
// incremental update rewrote the hub since the last compaction — a view of
// the stale base record must never win over a newer rewrite — and otherwise
// the base record as a zero-copy (mmap) or single-copy (pread / cached
// payload) view.
func (s *diskStore) GetView(h NodeID) (ppvindex.HubRecordView, bool, error) {
	for {
		st, err := s.reading()
		if err != nil {
			return ppvindex.HubRecordView{}, false, err
		}
		if view, ok, _ := st.overlay.GetView(h); ok {
			return view, true, nil
		}
		view, ok, err := st.src.GetView(h)
		if err != nil && errors.Is(err, ppvindex.ErrIndexClosed) && s.state.Load() != st {
			// The state was retired under us (compaction swap, or Close);
			// retry against the current one — reading() reports ErrClosed
			// when the whole store is gone.
			continue
		}
		return view, ok, err
	}
}

// MmapActive reports whether the published read state serves its base index
// from a memory mapping (false when pread fallback engaged, the store is in
// write mode, or it is closed).
func (s *diskStore) MmapActive() bool {
	st := s.state.Load()
	return st != nil && st.reader != nil && st.reader.MmapActive()
}

// closedIndex is what a store that cannot be read answers directory questions
// from: no hubs, no bytes.
var closedIndex = ppvindex.NewMemIndex()

// directory returns the index that answers membership and size questions: the
// overlay only ever shadows hubs of the base, so the base directory suffices.
func (s *diskStore) directory() ppvindex.Index {
	if st, err := s.reading(); err == nil {
		return st.src
	}
	return closedIndex
}

func (s *diskStore) Has(h NodeID) bool { return s.directory().Has(h) }
func (s *diskStore) Hubs() []NodeID    { return s.directory().Hubs() }
func (s *diskStore) Len() int          { return s.directory().Len() }
func (s *diskStore) SizeBytes() int64  { return s.directory().SizeBytes() }

// WarmHubs preloads the given hubs' records through the block cache and
// returns how many of them are now cached, so a freshly started shard can
// front-load its hottest blocks instead of paying a cold random read per
// first request. Without a block cache (or on a closed store) it is a no-op
// reporting zero. The serving layer drives it via server.Config.WarmHubs.
func (s *diskStore) WarmHubs(hubs []NodeID) int {
	st, err := s.reading()
	if err != nil || st.cache == nil {
		return 0
	}
	warmed := 0
	for _, h := range hubs {
		// The cache fill is the wanted side effect; nothing is decoded.
		if view, ok, err := st.src.GetView(h); err == nil && ok {
			view.Release()
			warmed++
		}
	}
	return warmed
}

// BlockCacheStats reports the hub-block cache counters; ok is false when the
// store runs without a cache. The serving layer's /v1/stats exposes these.
// Lock-free (state load only), so stats stay responsive during a compaction.
func (s *diskStore) BlockCacheStats() (BlockCacheStats, bool) {
	st := s.state.Load()
	if st == nil || st.cache == nil {
		return BlockCacheStats{}, false
	}
	return st.cache.Stats(), true
}

// DurabilityStats reports the update-log and overlay counters; ok is false
// while the store is still in write mode (nothing finalized yet) or closed.
// Lock-free: the log counters come from mirrored atomics, so /v1/stats does
// not stall behind a running compaction (which holds mu for its rewrite).
func (s *diskStore) DurabilityStats() (DurabilityStats, bool) {
	st := s.state.Load()
	if st == nil {
		return DurabilityStats{}, false
	}
	ds := DurabilityStats{
		LogEnabled:      s.cfg.logPath != "",
		GraphLogEnabled: s.graphLog != nil,
		OverlayHubs:     st.overlay.Len(),
		Compactions:     s.compactions.Load(),
	}
	if ds.LogEnabled {
		ds.LogBytes = s.logBytes.Load()
		ds.LogRecords = s.logRecords.Load()
	}
	if ds.GraphLogEnabled {
		ds.GraphLogBytes = s.graphLogBytes.Load()
		ds.GraphLogRecords = s.graphLogRecords.Load()
	}
	return ds, true
}

// reading returns the read-side state, opening the reader first if the store
// is still in write mode. The fast path is a single atomic load — the same
// cost as before durable updates existed, so warm-read latency is unchanged.
func (s *diskStore) reading() (*diskReadState, error) {
	if st := s.state.Load(); st != nil {
		return st, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureReaderLocked(); err != nil {
		return nil, err
	}
	return s.state.Load(), nil
}

// ensureReaderLocked finalizes the writer (if still open), opens the index
// for reading, replays the update log into the overlay and publishes the read
// state. Callers must hold s.mu.
func (s *diskStore) ensureReaderLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.reader != nil {
		return nil
	}
	freshBase := s.writer != nil
	if s.writer != nil {
		if err := s.writer.Close(); err != nil {
			return err
		}
		s.writer = nil
	}
	r, err := ppvindex.OpenDiskWithOptions(s.path, ppvindex.DiskOptions{Mmap: s.cfg.mmap})
	if err != nil {
		return err
	}
	st := s.newReadState(r)
	if freshBase && s.cfg.graphLogPath != "" {
		// A fresh base means a fresh precompute over the caller's graph: a
		// graph-mutation log from a previous index at this path would replay
		// mutations the new PPVs were never computed against, so it must go.
		// (Stores built in write mode never open a graph log themselves —
		// OpenDiskIndexWithOptions does, on the reopen that starts serving.)
		if err := os.Remove(s.cfg.graphLogPath); err != nil && !os.IsNotExist(err) {
			r.Close()
			return err
		}
	}
	if s.cfg.logPath != "" {
		if freshBase {
			// The base was just rebuilt from scratch; a log from the previous
			// index must not replay onto it. (The binding check below covers
			// the cross-process crash cases; this keeps even a byte-identical
			// rebuild from resurrecting pre-rebuild updates.)
			if err := os.Remove(s.cfg.logPath); err != nil && !os.IsNotExist(err) {
				r.Close()
				return err
			}
		}
		lg, err := ppvindex.OpenUpdateLog(s.cfg.logPath, r.SizeBytes(), r.Len(), func(h NodeID, payload []byte) error {
			// A logged hub missing from the base directory means the log does
			// not belong to this index file; refusing keeps the overlay
			// invariant (overlay ⊆ directory) and surfaces the mismatch.
			if !r.Has(h) {
				return fmt.Errorf("%w: update log %s has a record for hub %d not present in %s",
					ErrBadIndexFormat, s.cfg.logPath, h, s.path)
			}
			// The payload aliases the log's replay buffer, which the next
			// frame overwrites; the overlay keeps its own copy.
			return st.overlay.PutEncoded(h, append([]byte(nil), payload...))
		})
		if err != nil {
			r.Close()
			return err
		}
		s.log = lg
		s.logBytes.Store(lg.SizeBytes())
		s.logRecords.Store(lg.Records())
	}
	s.reader = r
	s.state.Store(st)
	return nil
}

// newReadState builds a read-side view over r, wiring the block cache when
// configured. Callers must hold s.mu.
func (s *diskStore) newReadState(r *ppvindex.DiskIndex) *diskReadState {
	st := &diskReadState{src: r, overlay: ppvindex.NewMemIndex(), reader: r}
	if s.cfg.cacheBytes >= 0 {
		st.cache = ppvindex.NewBlockCache(r, s.cfg.cacheBytes, 0)
		st.src = st.cache
	}
	return st
}

// Compact folds the update log and overlay into a rewritten base index:
// every hub record is streamed into <path>.tmp (overlay version when present,
// base record otherwise), the finished file is fsync'd and atomically renamed
// over <path>, the log is reset, and a fresh read state over the new file is
// published. Queries are served throughout — the hot path keeps reading the
// old state, whose descriptor stays open until in-flight reads drain — while
// Puts wait on mu for the duration. At most one compaction runs at a time.
func (s *diskStore) Compact() (CompactionResult, error) {
	var res CompactionResult
	if !s.compacting.CompareAndSwap(false, true) {
		return res, ErrCompactionInProgress
	}
	defer s.compacting.Store(false)
	start := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return res, ErrClosed
	}
	if err := s.ensureReaderLocked(); err != nil {
		return res, err
	}
	st := s.state.Load()
	res.TotalHubs = st.reader.Len()
	var logBytes, logRecords int64
	if s.log != nil {
		// An update batch between its first Put and its CommitUpdates has
		// appended-but-undurable frames; folding its overlay entries now
		// would make half the batch durable. Bail and let the trigger retry
		// after the commit.
		if s.log.Uncommitted() {
			return res, ppvindex.ErrUpdateInFlight
		}
		logBytes, logRecords = s.log.SizeBytes(), s.log.Records()
	}
	if st.overlay.Len() == 0 && logRecords == 0 {
		// Nothing to fold in; report the current file size and return.
		res.IndexBytes = st.reader.SizeBytes()
		res.DurationMS = float64(time.Since(start)) / 1e6
		return res, nil
	}

	w, err := ppvindex.CreateDisk(s.path)
	if err != nil {
		return res, err
	}
	defer w.Abort() // discards <path>.tmp on an early return; a no-op after Close
	for _, h := range st.reader.Hubs() {
		// The overlay's version when there is one; otherwise the base record,
		// straight from the descriptor and not through the block cache: a
		// full-index sweep would evict the hot set.
		view, ok, err := st.overlay.GetView(h)
		if ok {
			res.RewrittenHubs++
		} else if view, ok, err = st.reader.GetView(h); err != nil {
			return res, fmt.Errorf("fastppv: compaction reading hub %d: %w", h, err)
		} else if !ok {
			return res, fmt.Errorf("fastppv: compaction: hub %d vanished from the base index", h)
		}
		// The record moves as bytes: the writer copies the payload into its
		// buffer before the view is released.
		err = w.PutEncoded(h, view.EntryBytes())
		view.Release()
		if err != nil {
			return res, fmt.Errorf("fastppv: compaction writing hub %d: %w", h, err)
		}
	}
	// Close fsyncs the file and its directory, then atomically renames the
	// rewritten file over s.path. From here the durable on-disk base owns
	// every logged update, so resetting the log is safe; a crash before the
	// reset leaves old log frames whose base binding no longer matches the
	// new file, so the next open discards instead of replaying them.
	if err := w.Close(); err != nil {
		return res, fmt.Errorf("fastppv: compaction finalizing rewritten index: %w", err)
	}
	r, err := ppvindex.OpenDiskWithOptions(s.path, ppvindex.DiskOptions{Mmap: s.cfg.mmap})
	if err != nil {
		// The old state keeps serving: its overlay still shadows the base
		// records the rewrite folded in, so answers stay correct, and the
		// rewritten file on disk already holds the merged data for recovery.
		// The log, however, is still bound to the replaced base — frames
		// appended now would be discarded on restart — so wedge updates
		// until a retried compaction re-binds it.
		s.logWedged = s.log != nil
		return res, fmt.Errorf("fastppv: compaction reopening rewritten index: %w", err)
	}
	if s.log != nil {
		if err := s.log.Reset(r.SizeBytes(), r.Len()); err != nil {
			r.Close()
			s.logWedged = true
			return res, fmt.Errorf("fastppv: compaction resetting the update log: %w", err)
		}
		s.logBytes.Store(s.log.SizeBytes())
		s.logRecords.Store(s.log.Records())
	}
	newSt := s.newReadState(r)
	old := s.state.Swap(newSt)
	s.reader = r
	if old != nil {
		// DiskIndex.Close drains in-flight record reads before releasing the
		// descriptor; stragglers still holding the old state retry against
		// the new one.
		old.reader.Close()
	}
	s.logWedged = false
	s.compactions.Add(1)

	res.LogRecordsFolded = logRecords
	res.LogBytesFreed = logBytes
	res.IndexBytes = r.SizeBytes()
	res.DurationMS = float64(time.Since(start)) / 1e6
	return res, nil
}

// Close releases the underlying file handles. The published read state is
// cleared first, so late Gets fail with ErrClosed instead of reading a closed
// descriptor or serving stale overlay hits; in-flight reads drain before the
// descriptor goes away. A store still in write mode is finalized (the index
// file is published) — use Abort to discard instead.
func (s *diskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked(false)
}

// Abort is Close for the failure path: a store still in write mode discards
// its temporary file instead of publishing it. A finalized store closes
// normally.
func (s *diskStore) Abort() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked(true)
}

func (s *diskStore) closeLocked(discard bool) error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.state.Store(nil)
	var firstErr error
	if s.writer != nil {
		var err error
		if discard {
			err = s.writer.Abort()
		} else {
			err = s.writer.Close()
			if err == nil && s.cfg.logPath != "" {
				// A fresh base was just published without ever opening the
				// log; drop any log left over from the previous index so a
				// later open does not consider replaying it. (Its binding
				// would reject it anyway unless the rebuild is
				// byte-identical.)
				if rmErr := os.Remove(s.cfg.logPath); rmErr != nil && !os.IsNotExist(rmErr) {
					err = rmErr
				}
			}
			if err == nil && s.cfg.graphLogPath != "" {
				// Same for the graph-mutation log: the freshly precomputed
				// PPVs belong to the caller's graph, not to one with old
				// mutations replayed on top.
				if rmErr := os.Remove(s.cfg.graphLogPath); rmErr != nil && !os.IsNotExist(rmErr) {
					err = rmErr
				}
			}
		}
		s.writer = nil
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.reader != nil {
		if err := s.reader.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.reader = nil
	}
	if s.log != nil {
		if err := s.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.log = nil
	}
	if s.graphLog != nil {
		if err := s.graphLog.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.graphLog = nil
	}
	return firstErr
}

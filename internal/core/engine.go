package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastppv/internal/graph"
	"fastppv/internal/hub"
	"fastppv/internal/pagerank"
	"fastppv/internal/ppvindex"
	"fastppv/internal/prime"
	"fastppv/internal/sparse"
)

// IndexStore is the combination of read and write access the engine needs for
// its PPV index: hub records read as views (GetView) and written as encoded
// payloads (PutEncoded). ppvindex.MemIndex is one; ppvindex.Store, the
// durable disk store, is the other. NewEngine defaults to an in-memory index.
type IndexStore interface {
	ppvindex.Index
	ppvindex.Writer
}

// OfflineStats summarizes one offline precomputation run; the offline cost
// experiments (Fig. 7b/c, 9, 11, 15) read these counters.
type OfflineStats struct {
	// Hubs is |H|, the number of hubs selected and indexed.
	Hubs int
	// HubSelection is the wall time of hub scoring and selection (including
	// global PageRank when the policy needs it).
	HubSelection time.Duration
	// PrimePPV is the wall time of computing and storing all hub prime PPVs.
	PrimePPV time.Duration
	// Total is HubSelection + PrimePPV.
	Total time.Duration
	// IndexBytes is the size of the resulting PPV index.
	IndexBytes int64
	// IndexEntries is the total number of stored (node, score) pairs.
	IndexEntries int64
	// Pushes is the total expansion work across all prime PPVs.
	Pushes int64
	// ClippedEntries counts entries dropped by the storage clip.
	ClippedEntries int64
}

// Engine is a FastPPV instance bound to one graph: it owns the hub set and
// the PPV index produced by Precompute and answers online queries against
// them. An Engine is safe for concurrent queries after Precompute has
// completed.
type Engine struct {
	g     *graph.Graph
	opts  Options
	hubs  *hub.Set
	index IndexStore

	offline     OfflineStats
	precomputed bool

	// epoch counts the graph-update batches folded into the engine's state:
	// it starts at Options.InitialEpoch (the batches already replayed into the
	// supplied graph, e.g. from a disk index's update log) and ApplyUpdate bumps it
	// once per committed batch. Two replicas that applied the same update
	// sequence report the same epoch, which is what lets a cluster router
	// detect a replica serving a different graph. Atomic so stats and the
	// partial-query path can read it without the serving layer's update lock.
	epoch atomic.Uint64
}

// NewEngine creates an engine over g with the given options, storing prime
// PPVs in the provided index (a fresh in-memory index when index is nil).
// Call Precompute before Query.
func NewEngine(g *graph.Graph, index IndexStore, opts Options) (*Engine, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if g == nil || g.NumNodes() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if index == nil {
		index = ppvindex.NewMemIndex()
	}
	e := &Engine{g: g, opts: opts, index: index}
	e.epoch.Store(opts.InitialEpoch)
	return e, nil
}

// NewServingEngine creates an engine that answers queries from an existing,
// already precomputed index — the disk-based serving configuration of
// Sect. 5.3, where the offline phase ran in a separate process and the daemon
// only opens the index file. The hub set is recovered from the index
// directory, the engine is immediately query-ready (Precomputed reports
// true), and ApplyUpdate maintains the index through its PutEncoded method.
//
// opts must match the options the index was precomputed with (Alpha in
// particular — the stored prime PPVs embed it); the index format does not
// record them, so this cannot be verified here.
//
// base is the graph the index was precomputed on; served is the graph queries
// run on — base with opts.InitialEpoch update batches replayed onto it (the
// mutations of a replayed update log), or base itself when there are none.
//
// When opts.Partition is sharded, the index holds only the hubs this shard
// owns, but prime-subgraph semantics need the full hub set (stored PPVs block
// at every hub). Hub selection is therefore re-run — it is deterministic given
// the graph and options — and every indexed hub is checked to be a selected
// hub owned by this shard, so opening the wrong shard's file or a file built
// with different options fails instead of serving silently wrong partials.
// It runs on base, never on served: ApplyUpdate keeps the hub set fixed, so
// the set the live process served with is the one Precompute selected on base,
// and selecting on an updated graph would rank a different one.
func NewServingEngine(base, served *graph.Graph, index IndexStore, opts Options) (*Engine, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if base == nil || base.NumNodes() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if served == nil || served.NumNodes() < base.NumNodes() {
		return nil, fmt.Errorf("core: served graph is not the base graph with updates replayed")
	}
	if index == nil || index.Len() == 0 {
		return nil, fmt.Errorf("core: serving engine needs a non-empty precomputed index")
	}
	hubNodes := index.Hubs()
	for _, h := range hubNodes {
		if h < 0 || int(h) >= base.NumNodes() {
			return nil, fmt.Errorf("core: index/graph mismatch: indexed hub %d outside [0,%d)", h, base.NumNodes())
		}
	}
	hubSet := hub.NewSet(hubNodes)
	if opts.Partition.Enabled() {
		hubSet, err = selectHubs(base, opts)
		if err != nil {
			return nil, fmt.Errorf("core: recovering the full hub set for shard %s: %w", opts.Partition, err)
		}
		for _, h := range hubNodes {
			if !hubSet.Contains(h) {
				return nil, fmt.Errorf("core: indexed hub %d is not a selected hub; the index was built with different options", h)
			}
			if !opts.Partition.Owns(h) {
				return nil, fmt.Errorf("core: indexed hub %d belongs to shard %d, not %s; wrong shard index file",
					h, opts.Partition.Owner(h), opts.Partition)
			}
		}
	}
	e := &Engine{
		g:           served,
		opts:        opts,
		hubs:        hubSet,
		index:       index,
		precomputed: true,
	}
	e.epoch.Store(opts.InitialEpoch)
	e.offline = OfflineStats{
		Hubs:         len(hubNodes),
		IndexBytes:   index.SizeBytes(),
		IndexEntries: ppvindex.StatsOf(index).TotalEntries,
	}
	return e, nil
}

// Graph returns the underlying graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Hubs returns the hub set selected by Precompute (nil before Precompute).
func (e *Engine) Hubs() *hub.Set { return e.hubs }

// Index returns the PPV index.
func (e *Engine) Index() ppvindex.Index { return e.index }

// Options returns the engine options after defaulting.
func (e *Engine) Options() Options { return e.opts }

// Partition returns the hub partition this engine serves (zero value when
// unsharded).
func (e *Engine) Partition() Partition { return e.opts.Partition }

// Epoch returns the engine's index epoch: the number of graph-update batches
// folded into the graph and index it serves (including Options.InitialEpoch
// batches replayed before the engine was created).
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// OfflineStats returns the statistics of the last Precompute run.
func (e *Engine) OfflineStats() OfflineStats { return e.offline }

// Precomputed reports whether Precompute has completed, i.e. the engine is
// ready to answer queries. Long-lived servers use it as their readiness check.
func (e *Engine) Precomputed() bool { return e.precomputed }

// selectHubs runs hub selection for g under opts. It is deterministic given
// (graph, options), which sharded serving relies on: every shard and every
// reopen of a shard index recovers the same full hub set.
func selectHubs(g *graph.Graph, opts Options) (*hub.Set, error) {
	numHubs := opts.NumHubs
	if numHubs == 0 {
		numHubs = hub.SuggestHubCount(g, 0, 0)
	}
	hubs, err := hub.Select(g, hub.Options{
		Policy:          opts.HubPolicy,
		Count:           numHubs,
		PageRank:        opts.PageRank,
		PageRankOptions: pagerank.Options{Alpha: opts.Alpha},
		Seed:            opts.HubSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("core: hub selection: %w", err)
	}
	return hubs, nil
}

// Precompute runs the offline phase (Algorithm 1): select |H| hubs by the
// configured policy and compute and store the prime PPV of every hub. It can
// be called again after the options or graph change; the index is refilled.
//
// With a sharded Partition, selection still covers the full hub set but only
// the prime PPVs of the hubs this shard owns are computed and stored — the
// per-shard offline cost and index size shrink by the shard count.
func (e *Engine) Precompute() error {
	start := time.Now()

	hubs, err := selectHubs(e.g, e.opts)
	if err != nil {
		return err
	}
	e.hubs = hubs
	selectionDone := time.Now()

	toCompute := hubs.Hubs()
	if e.opts.Partition.Enabled() {
		owned := make([]graph.NodeID, 0, len(toCompute)/e.opts.Partition.Shards+1)
		for _, h := range toCompute {
			if e.opts.Partition.Owns(h) {
				owned = append(owned, h)
			}
		}
		toCompute = owned
	}
	stats, err := e.computeHubPPVs(toCompute)
	if err != nil {
		return err
	}

	e.offline = stats
	e.offline.Hubs = len(toCompute)
	e.offline.HubSelection = selectionDone.Sub(start)
	e.offline.PrimePPV = time.Since(selectionDone)
	e.offline.Total = time.Since(start)
	e.offline.IndexBytes = e.index.SizeBytes()
	e.offline.IndexEntries = ppvindex.StatsOf(e.index).TotalEntries
	e.precomputed = true
	return nil
}

// computeHubPPVs computes and stores the prime PPVs for the given hub nodes
// using a worker pool; index writes are serialized.
func (e *Engine) computeHubPPVs(hubNodes []graph.NodeID) (OfflineStats, error) {
	var stats OfflineStats

	workers := e.opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(hubNodes) {
		workers = len(hubNodes)
	}
	if workers < 1 {
		workers = 1
	}

	jobs := make(chan graph.NodeID)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards index writes and stats
		firstErr error
	)
	worker := func() {
		defer wg.Done()
		var scratch prime.Scratch // one per worker, reused for every hub it draws
		for h := range jobs {
			// The push emits the entries that survive the storage clip in
			// ascending node order; encoded once, they are the stored record.
			entries, pstats, err := scratch.Push(e.g, h, e.hubs, e.opts.primeOptions(), e.opts.Clip)
			record := sparse.AppendEncoded(nil, entries)
			mu.Lock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("core: prime PPV of hub %d: %w", h, err)
				}
			} else if firstErr == nil {
				if err := e.index.PutEncoded(h, record); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("core: indexing hub %d: %w", h, err)
				}
				stats.Pushes += int64(pstats.Pushes)
				stats.ClippedEntries += int64(pstats.Clipped)
			}
			mu.Unlock()
		}
	}
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go worker()
	}
	for _, h := range hubNodes {
		jobs <- h
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return stats, firstErr
	}
	return stats, nil
}

// ExactPPV computes the exact PPV of q on the engine's graph with the
// engine's alpha. It is exposed for evaluation and examples; it is orders of
// magnitude slower than Query on large graphs.
func (e *Engine) ExactPPV(q graph.NodeID) (sparse.Vector, error) {
	return pagerank.ExactPPV(e.g, q, pagerank.Options{Alpha: e.opts.Alpha})
}

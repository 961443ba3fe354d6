package core

import (
	"fmt"
	"runtime"
	"slices"
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

// IndexStore is the access the engine needs to its PPV index: Precompute
// writes records (PutEncoded), an update commits its batch (Commit), and a
// query reads a published state (Snapshot). ppvindex.MemIndex is one;
// ppvindex.Store, the durable disk store, is the other. NewEngine defaults to
// an in-memory index. A store that compacts outside a commit
// (ppvindex.Store) reports each compaction through OnCompact, and the engine
// publishes its next version (republish).
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
// them. After Precompute, queries are safe for concurrent use with each other
// and with ApplyUpdate, one update at a time: a query reads the immutable
// version it loaded when it started, and an update publishes the next one.
type Engine struct {
	opts  Options
	hubs  *hub.Set
	index IndexStore

	offline OfflineStats

	cur atomic.Pointer[version] // the published version
	// pub serializes the publishes that follow an index change, an update's
	// commit and a compaction's, so a compaction never publishes a version
	// whose index holds records its graph does not.
	pub sync.Mutex
}

// version is one immutable state the engine serves: a graph, the index state
// computed on it (nil before Precompute), and the update batches folded into
// both. The epoch starts at Options.InitialEpoch (batches replayed into the
// supplied graph, e.g. from a disk index's log) and grows by one per commit,
// so replicas that applied the same updates report the same epoch, which is
// what lets a cluster router detect a replica serving a different graph.
type version struct {
	g     *graph.Graph
	epoch uint64
	index ppvindex.Snapshot
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
	e := &Engine{opts: opts, index: index}
	e.cur.Store(&version{g: g, epoch: opts.InitialEpoch})
	e.followCompactions()
	return e, nil
}

func (e *Engine) followCompactions() {
	if c, ok := e.index.(interface{ OnCompact(func()) }); ok {
		c.OnCompact(e.republish)
	}
}

// republish publishes the version after a compaction of the index: the same
// graph and epoch, over the index's compacted snapshot, so no query reads the
// retired state. Under pub no update is between its commit and its publish,
// so the index's snapshot holds exactly the records of the published version.
func (e *Engine) republish() {
	e.pub.Lock()
	defer e.pub.Unlock()
	v := e.cur.Load()
	if v.index == nil {
		return
	}
	if snap, err := e.index.Snapshot(); err == nil && snap != v.index {
		e.cur.Store(&version{g: v.g, epoch: v.epoch, index: snap})
	}
}

// NewServingEngine creates an engine that answers queries from an existing,
// already precomputed index — the disk-based serving configuration of
// Sect. 5.3, where the offline phase ran in a separate process and the daemon
// only opens the index file. The hub set is recovered from the index
// directory, the engine is immediately query-ready (Precomputed reports
// true), and ApplyUpdate commits to the index while queries go on.
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
	snap, err := index.Snapshot()
	if err != nil {
		return nil, err
	}
	e := &Engine{opts: opts, hubs: hubSet, index: index}
	e.cur.Store(&version{g: served, epoch: opts.InitialEpoch, index: snap})
	e.followCompactions()
	e.offline = OfflineStats{
		Hubs:         len(hubNodes),
		IndexBytes:   index.SizeBytes(),
		IndexEntries: ppvindex.StatsOf(index).TotalEntries,
	}
	return e, nil
}

// Graph returns the graph of the published version.
func (e *Engine) Graph() *graph.Graph { return e.cur.Load().g }

// Version returns the graph and the epoch of the published version, together.
func (e *Engine) Version() (*graph.Graph, uint64) {
	v := e.cur.Load()
	return v.g, v.epoch
}

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
func (e *Engine) Epoch() uint64 { return e.cur.Load().epoch }

// OfflineStats returns the statistics of the last Precompute run.
func (e *Engine) OfflineStats() OfflineStats { return e.offline }

// Precomputed reports whether Precompute has completed, i.e. the engine is
// ready to answer queries. Long-lived servers use it as their readiness check.
func (e *Engine) Precomputed() bool { return e.cur.Load().index != nil }

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
// configured policy and compute and store the prime PPV of every hub. The
// records reach the index in ascending hub order (computeHubPPVs), so a fresh
// index, in memory or on disk, holds the same bytes whatever the worker
// count. A disk store is written only once. A second call on an in-memory
// index writes a fresh one, which replaces it (Index returns it): the call
// costs what the first did, and no record of a hub this selection dropped
// stays behind to be served as a query's stale prime PPV.
//
// With a sharded Partition, selection still covers the full hub set but only
// the prime PPVs of the hubs this shard owns are computed and stored — the
// per-shard offline cost and index size shrink by the shard count.
func (e *Engine) Precompute() error {
	start := time.Now()
	v := e.cur.Load()

	hubs, err := selectHubs(v.g, e.opts)
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
	index := e.index
	if _, mem := index.(*ppvindex.MemIndex); mem && v.index != nil {
		index = ppvindex.NewMemIndex()
	}
	stats, err := e.computeHubPPVs(v.g, toCompute, index)
	if err != nil {
		return err
	}
	snap, err := index.Snapshot()
	if err != nil {
		return err
	}
	if index != e.index {
		e.index = index
		e.followCompactions()
	}

	e.offline = stats
	e.offline.Hubs = len(toCompute)
	e.offline.HubSelection = selectionDone.Sub(start)
	e.offline.PrimePPV = time.Since(selectionDone)
	e.offline.Total = time.Since(start)
	e.offline.IndexBytes = e.index.SizeBytes()
	e.offline.IndexEntries = ppvindex.StatsOf(e.index).TotalEntries
	e.cur.Store(&version{g: v.g, epoch: v.epoch, index: snap})
	return nil
}

// computeHubPPVs computes the prime PPVs of hubNodes on g with a worker pool
// and writes them to index in ascending hub order. The jobs go out in that
// order with a sequence number; a finished record waits in a small reorder
// window until every record before it is written, and at most window jobs are
// out at once, so a precompute larger than RAM still streams.
func (e *Engine) computeHubPPVs(g *graph.Graph, hubNodes []graph.NodeID, index ppvindex.Writer) (OfflineStats, error) {
	var stats OfflineStats
	hubNodes = slices.Sorted(slices.Values(hubNodes))
	workers := max(1, min(runtime.GOMAXPROCS(0), len(hubNodes)))

	jobs := make(chan int)
	window := make(chan struct{}, 4*workers) // a token per job out and not yet written
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards done, next, stats and firstErr
		done     = make(map[int][]byte)
		next     int // the sequence number of the next record to write
		firstErr error
	)
	worker := func() {
		defer wg.Done()
		var scratch prime.Scratch // one per worker, reused for every hub it draws
		for seq := range jobs {
			h := hubNodes[seq]
			// The push emits the entries that survive the storage clip in
			// ascending node order; encoded once, they are the stored record.
			entries, pstats, err := scratch.Push(g, h, e.hubs, e.opts.primeOptions(), e.opts.Clip)
			record := sparse.AppendEncoded(nil, entries)
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("core: prime PPV of hub %d: %w", h, err)
			}
			stats.Pushes += int64(pstats.Pushes)
			stats.ClippedEntries += int64(pstats.Clipped)
			done[seq] = record
			for rec, ok := done[next]; ok; rec, ok = done[next] {
				delete(done, next)
				if firstErr == nil {
					if err := index.PutEncoded(hubNodes[next], rec); err != nil {
						firstErr = fmt.Errorf("core: indexing hub %d: %w", hubNodes[next], err)
					}
				}
				next++
				<-window
			}
			mu.Unlock()
		}
	}
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go worker()
	}
	for seq := range hubNodes {
		window <- struct{}{}
		jobs <- seq
	}
	close(jobs)
	wg.Wait()
	return stats, firstErr
}

// ExactPPV computes the exact PPV of q on the engine's graph with the
// engine's alpha. It is exposed for evaluation and examples; it is orders of
// magnitude slower than Query on large graphs.
func (e *Engine) ExactPPV(q graph.NodeID) (sparse.Vector, error) {
	return pagerank.ExactPPV(e.Graph(), q, pagerank.Options{Alpha: e.opts.Alpha})
}

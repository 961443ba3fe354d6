package ppvindex

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// DefaultCompactThresholdBytes is how many bytes of hub records the update
// log may hold before a Store compacts itself in the background, unless
// configured otherwise.
const DefaultCompactThresholdBytes = 64 << 20

// ErrClosed reports an operation on a Store whose Close (or Abort) has
// already run; reads fail with it instead of reading a closed file descriptor
// or serving stale overlay hits.
var ErrClosed = errors.New("ppvindex: disk index store is closed")

// StoreOptions tune a Store beyond its index path. The zero value logs
// update batches to <index path>.log, compacts past
// DefaultCompactThresholdBytes and fronts reads with a default-sized block
// cache.
type StoreOptions struct {
	// BlockCacheBytes budgets an in-memory cache of hub records
	// between the engine and the disk: 0 means a 64 MiB default, negative
	// disables caching (every fetched hub costs one random disk access, the
	// raw Sect. 6.3 cost model).
	BlockCacheBytes int64
	// UpdateLogPath overrides where post-finalize update batches (graph
	// mutation and rewritten hub records) are logged; empty means
	// <index path>.log.
	UpdateLogPath string
	// CompactThresholdBytes triggers a background compaction once the hub
	// records in the update log pass it; 0 means
	// DefaultCompactThresholdBytes, negative disables automatic compaction
	// (manual Compact still works).
	CompactThresholdBytes int64
	// Mmap maps the index file into memory and serves hub records as
	// zero-copy views instead of pread-ing them into fresh buffers. Falls
	// back to pread silently when the platform (or the file) cannot be
	// mapped; MmapActive on the store reports which mode is live.
	Mmap bool
}

// withDefaults fills the empty path and the zero threshold.
func (o StoreOptions) withDefaults(path string) StoreOptions {
	if o.UpdateLogPath == "" {
		o.UpdateLogPath = path + ".log"
	}
	if o.CompactThresholdBytes == 0 {
		o.CompactThresholdBytes = DefaultCompactThresholdBytes
	}
	return o
}

// Store is the durable disk-backed PPV index: the base index file and its
// update log, one frame per committed update batch (see updatelog.go).
//
// A store built by CreateStore starts in write mode: PutEncoded streams to
// a DiskWriter, and the first read finalizes the writer (guarded by mu —
// concurrent first reads from parallel queries must not race the
// transition), publishing the index and starting the log fresh. A store
// opened by OpenStore replays the log, each batch's mutation through the
// caller and its records into the overlay, then serves.
//
// Reads optionally go through a BlockCache. Writes after finalization
// (incremental updates recomputing a hub) are staged in the log and land in
// an in-memory overlay that shadows the on-disk record, with the hub's cached
// block invalidated; whichever of the three serves a record, it is the same
// flat payload behind a HubRecordView. CommitUpdates writes the batch as one
// frame with one fsync.
//
// Compact folds the logged records and the overlay into a rewritten base file
// and rewrites the log down to its mutations; in-flight reads drain on the
// old file descriptor, new reads move to the freshly published state.
type Store struct {
	path string
	opts StoreOptions
	// graph identifies the base graph the logged mutations apply to.
	graph GraphBinding

	// state is the published read-side view. It is swapped atomically: once
	// at the writer->reader transition, and again by every compaction. The
	// read hot path loads it without taking mu, so warm cache hits never
	// serialize on a store-wide lock.
	state atomic.Pointer[storeState]

	mu     sync.Mutex
	writer *DiskWriter
	reader *DiskIndex
	log    *UpdateLog
	closed bool
	// logWedged flips when a compaction renamed the rewritten base into
	// place but failed before re-binding the log to it: records committed
	// from then on would be bound to the replaced base and skipped on
	// restart, so Puts fail instead until a retried compaction (which
	// re-binds the log) or a restart recovers.
	logWedged bool

	compacting  atomic.Bool
	compactions atomic.Int64
	// logBytes/logRecords/logBatches mirror the log counters so
	// DurabilityStats can report them without taking mu (which compaction
	// holds for its whole rewrite). Updated under mu, read atomically.
	logBytes   atomic.Int64
	logRecords atomic.Int64
	logBatches atomic.Int64
}

// storeState is one immutable read-side view of a finalized store. The
// overlay it carries is mutable (updates shadow base records through it), but
// src and reader never change; compaction publishes a whole new state instead.
// A retired state's descriptor is closed by DiskIndex.Close, which drains
// in-flight record reads first; a straggler that loaded this state before it
// was unpublished either completes against the still-open descriptor or gets
// ErrIndexClosed and retries on the current state.
type storeState struct {
	// src is where reads of hubs the overlay does not shadow come from: the
	// block cache when enabled, the raw reader otherwise.
	src Index
	// overlay holds hubs rewritten after finalization; it only ever contains
	// hubs that are also in the on-disk directory, so membership queries can
	// keep delegating to src.
	overlay *MemIndex
	// reader owns the file descriptor behind src; cache is the block cache
	// fronting it (nil when caching is disabled).
	reader *DiskIndex
	cache  *BlockCache
}

// CreateStore creates a store in write mode: records stream to a fresh index
// file at path until the first read finalizes it. graph identifies the graph
// being precomputed; the update log started at finalize time is bound to it.
// A log left by a previous index at the same path is left alone until the new
// index is actually published — if this rebuild fails or crashes, the old
// index and its durable updates remain fully intact.
func CreateStore(path string, graph GraphBinding, opts StoreOptions) (*Store, error) {
	w, err := CreateDisk(path)
	if err != nil {
		return nil, err
	}
	return &Store{path: path, opts: opts.withDefaults(path), graph: graph, writer: w}, nil
}

// OpenStore opens an existing index file in read mode and replays its update
// log, bound to graph: every batch's mutation through replay, in commit order
// (the caller owns the graph and applies them), and its records into the
// overlay. A stale <path>.tmp from a crashed precompute or compaction, and a
// stale <log>.tmp from a crashed log rewrite, are removed: whatever they held
// either never completed or was already renamed into place.
func OpenStore(path string, graph GraphBinding, opts StoreOptions, replay func(GraphMutation) error) (*Store, error) {
	s := &Store{path: path, opts: opts.withDefaults(path), graph: graph}
	for _, tmp := range []string{path + ".tmp", s.opts.UpdateLogPath + ".tmp"} {
		if err := os.Remove(tmp); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.openLocked(replay); err != nil {
		return nil, err
	}
	return s, nil
}

// mirrorLog publishes the log counters to the atomics DurabilityStats reads.
// Callers hold mu (or own the store exclusively).
func (s *Store) mirrorLog() {
	s.logBytes.Store(s.log.SizeBytes())
	s.logRecords.Store(s.log.Records())
	s.logBatches.Store(s.log.Batches())
}

// PutEncoded implements Writer; the payload ends up owned by the overlay, or
// copied into the writer's buffer while the store is being built.
func (s *Store) PutEncoded(h graph.NodeID, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.writer != nil {
		return s.writer.PutEncoded(h, payload)
	}
	// Finalized: the rewrite (an incremental update recomputing this hub) is
	// staged in the log for the batch's commit, then shadows the on-disk
	// record and evicts the stale cached block. The overlay write below never
	// errors.
	if err := s.ensureReaderLocked(); err != nil {
		return err
	}
	if s.logWedged {
		return fmt.Errorf("ppvindex: update log is out of sync with the rewritten base (a compaction failed after its rename); retry compaction or restart to recover")
	}
	s.log.AppendEncoded(h, payload)
	s.mirrorLog()
	st := s.state.Load()
	if err := st.overlay.PutEncoded(h, payload); err != nil {
		return err
	}
	if st.cache != nil {
		st.cache.Invalidate([]graph.NodeID{h})
	}
	return nil
}

// CommitUpdates implements the engine's update-commit hook: it writes the
// batch's graph mutation and the hub records PutEncoded staged as one log
// frame and fsyncs it, so the batch is durable whole or not at all, then
// kicks off a background compaction when the logged records have outgrown
// their threshold.
func (s *Store) CommitUpdates(m GraphMutation) error {
	compact, err := s.commit(m)
	if compact && !s.compacting.Load() {
		go func() {
			// Best effort: a failed or concurrent background compaction is
			// retried at the next commit past the threshold.
			_, _ = s.Compact()
		}()
	}
	return err
}

// commit is CommitUpdates under mu; compact reports that the hub records in
// the log have outgrown the threshold. The mutations are not counted: no
// compaction folds them away, so a log whose mutations alone pass the
// threshold must not compact on every commit.
func (s *Store) commit(m GraphMutation) (compact bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureReaderLocked(); err != nil {
		return false, err
	}
	err = s.log.CommitBatch(m)
	s.mirrorLog()
	if err != nil {
		return false, fmt.Errorf("ppvindex: committing the update log: %w", err)
	}
	return s.opts.CompactThresholdBytes > 0 && s.log.recordBytes >= s.opts.CompactThresholdBytes, nil
}

// Get decodes the record of h into a fresh map (Index's boundary helper; the
// engine reads through GetView).
func (s *Store) Get(h graph.NodeID) (sparse.Vector, bool, error) { return VectorOf(s, h) }

// GetView implements ViewGetter: the overlay's record when an incremental
// update rewrote the hub since the last compaction — a view of the stale
// base record must never win over a newer rewrite — and otherwise the base
// record as a zero-copy (mmap) or single-copy (pread / cached payload) view.
func (s *Store) GetView(h graph.NodeID) (HubRecordView, bool, error) {
	for {
		st, err := s.reading()
		if err != nil {
			return HubRecordView{}, false, err
		}
		if view, ok, _ := st.overlay.GetView(h); ok {
			return view, true, nil
		}
		view, ok, err := st.src.GetView(h)
		if err != nil && errors.Is(err, ErrIndexClosed) && s.state.Load() != st {
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
func (s *Store) MmapActive() bool {
	st := s.state.Load()
	return st != nil && st.reader.MmapActive()
}

// closedIndex is what a store that cannot be read answers directory questions
// from: no hubs, no bytes.
var closedIndex = NewMemIndex()

// directory returns the index that answers membership and size questions: the
// overlay only ever shadows hubs of the base, so the base directory suffices.
func (s *Store) directory() Index {
	if st, err := s.reading(); err == nil {
		return st.src
	}
	return closedIndex
}

func (s *Store) Has(h graph.NodeID) bool { return s.directory().Has(h) }
func (s *Store) Hubs() []graph.NodeID    { return s.directory().Hubs() }
func (s *Store) Len() int                { return s.directory().Len() }
func (s *Store) SizeBytes() int64        { return s.directory().SizeBytes() }

// WarmHubs preloads the given hubs' records through the block cache and
// returns how many of them are now cached, so a freshly started shard can
// front-load its hottest blocks instead of paying a cold random read per
// first request. Without a block cache (or on a closed store) it is a no-op
// reporting zero. The serving layer drives it via server.Config.WarmHubs.
func (s *Store) WarmHubs(hubs []graph.NodeID) int {
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
func (s *Store) BlockCacheStats() (BlockCacheStats, bool) {
	st := s.state.Load()
	if st == nil || st.cache == nil {
		return BlockCacheStats{}, false
	}
	return st.cache.Stats(), true
}

// DurabilityStats reports the log and overlay counters; ok is false while
// the store is still in write mode (nothing finalized yet) or closed.
// Lock-free: the log counters come from mirrored atomics, so /v1/stats does
// not stall behind a running compaction (which holds mu for its rewrite).
func (s *Store) DurabilityStats() (DurabilityStats, bool) {
	st := s.state.Load()
	if st == nil {
		return DurabilityStats{}, false
	}
	return DurabilityStats{
		OverlayHubs: st.overlay.Len(),
		LogBytes:    s.logBytes.Load(),
		LogRecords:  s.logRecords.Load(),
		LogBatches:  s.logBatches.Load(),
		Compactions: s.compactions.Load(),
	}, true
}

// reading returns the read-side state, finalizing the store first if it is
// still in write mode. The fast path is a single atomic load.
func (s *Store) reading() (*storeState, error) {
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

// ensureReaderLocked finalizes the writer (if still open) and opens the
// store for reading (openLocked). Callers must hold s.mu. Finalizing
// publishes a fresh base: a log from a previous index at this path would
// replay batches the new PPVs were never computed against, so it is removed.
func (s *Store) ensureReaderLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.reader != nil {
		return nil
	}
	if s.writer != nil {
		if err := s.writer.Close(); err != nil {
			return err
		}
		s.writer = nil
		if err := os.Remove(s.opts.UpdateLogPath); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return s.openLocked(nil)
}

// bindingFor is what the update log of a store serving r is bound to.
func (s *Store) bindingFor(r *DiskIndex) []byte { return logBinding(r.SizeBytes(), r.Len(), s.graph) }

// openLocked opens the index for reading and the update log, replays the
// log's mutations through replay (nil skips them) and its records into the
// overlay, and publishes the read state. Callers must hold s.mu.
func (s *Store) openLocked(replay func(GraphMutation) error) error {
	r, err := OpenDiskWithOptions(s.path, DiskOptions{Mmap: s.opts.Mmap})
	if err != nil {
		return err
	}
	st := s.newReadState(r)
	lg, err := openUpdateLog(s.opts.UpdateLogPath, s.bindingFor(r), replay, func(h graph.NodeID, payload []byte) error {
		// A logged hub missing from the base directory means the log does
		// not belong to this index file; refusing keeps the overlay
		// invariant (overlay ⊆ directory) and surfaces the mismatch.
		if !r.Has(h) {
			return fmt.Errorf("%w: update log %s has a record for hub %d not present in %s",
				ErrBadIndexFormat, s.opts.UpdateLogPath, h, s.path)
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
	s.mirrorLog()
	s.reader = r
	s.state.Store(st)
	return nil
}

// newReadState builds a read-side view over r, wiring the block cache when
// configured. Callers must hold s.mu.
func (s *Store) newReadState(r *DiskIndex) *storeState {
	st := &storeState{src: r, overlay: NewMemIndex(), reader: r}
	if s.opts.BlockCacheBytes >= 0 {
		st.cache = NewBlockCache(r, s.opts.BlockCacheBytes, 0)
		st.src = st.cache
	}
	return st
}

// Compact folds the logged records and overlay into a rewritten base index:
// every hub record is streamed into <path>.tmp (overlay version when present,
// base record otherwise), the finished file is fsync'd and atomically renamed
// over <path>, the log is rewritten down to its mutations, which no file
// folds, bound to the new base (rewriteLog), and a fresh read state over the
// new file is published. Queries are served throughout — the hot path keeps
// reading the old state until its in-flight reads drain — while Puts wait on
// mu. At most one compaction runs at a time.
func (s *Store) Compact() (CompactionResult, error) {
	var res CompactionResult
	if !s.compacting.CompareAndSwap(false, true) {
		return res, ErrCompactionInProgress
	}
	defer s.compacting.Store(false)
	start := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureReaderLocked(); err != nil {
		return res, err
	}
	st := s.state.Load()
	res.TotalHubs = st.reader.Len()
	// An update batch between its first Put and its CommitUpdates has staged,
	// undurable records; folding its overlay entries now would make half the
	// batch durable. Bail and let the trigger retry after the commit.
	if s.log.stagedRecords > 0 {
		return res, ErrUpdateInFlight
	}
	logBytes, logRecords := s.log.SizeBytes(), s.log.Records()
	if st.overlay.Len() == 0 && logRecords == 0 {
		// Nothing to fold in; report the current file size and return.
		res.IndexBytes = st.reader.SizeBytes()
		res.DurationMS = float64(time.Since(start)) / 1e6
		return res, nil
	}

	w, err := CreateDisk(s.path)
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
			return res, fmt.Errorf("ppvindex: compaction reading hub %d: %w", h, err)
		} else if !ok {
			return res, fmt.Errorf("ppvindex: compaction: hub %d vanished from the base index", h)
		}
		// The record moves as bytes: the writer copies the payload into its
		// buffer before the view is released.
		err = w.PutEncoded(h, view.EntryBytes())
		view.Release()
		if err != nil {
			return res, fmt.Errorf("ppvindex: compaction writing hub %d: %w", h, err)
		}
	}
	// Close fsyncs the file and its directory, then atomically renames the
	// rewritten file over s.path. From here the base owns every logged
	// record; a crash before the log rewrite leaves a log bound to the old
	// base, which the next open rewrites itself.
	if err := w.Close(); err != nil {
		return res, fmt.Errorf("ppvindex: compaction finalizing rewritten index: %w", err)
	}
	r, err := OpenDiskWithOptions(s.path, DiskOptions{Mmap: s.opts.Mmap})
	if err != nil {
		// The old state keeps serving: its overlay still shadows the base
		// records the rewrite folded in, so answers stay correct, and the
		// rewritten file on disk already holds the merged data for recovery.
		// The log, however, is still bound to the replaced base — records
		// committed now would be skipped on restart — so wedge updates
		// until a retried compaction re-binds it.
		s.logWedged = true
		return res, fmt.Errorf("ppvindex: compaction reopening rewritten index: %w", err)
	}
	if err := s.rebindLogLocked(r); err != nil {
		r.Close()
		s.logWedged = true
		return res, fmt.Errorf("ppvindex: compaction rewriting the update log: %w", err)
	}
	old := s.state.Swap(s.newReadState(r))
	s.reader = r
	// DiskIndex.Close drains in-flight record reads before releasing the
	// descriptor; stragglers still holding the old state retry against the
	// new one.
	old.reader.Close()
	s.logWedged = false
	s.compactions.Add(1)

	res.LogRecordsFolded = logRecords
	res.LogBytesFreed = logBytes - s.log.SizeBytes()
	res.IndexBytes = r.SizeBytes()
	res.DurationMS = float64(time.Since(start)) / 1e6
	return res, nil
}

// rebindLogLocked rewrites the update log down to its mutations, bound to
// the base r, and switches to it. Callers must hold s.mu and have checked
// that nothing is staged.
func (s *Store) rebindLogLocked(r *DiskIndex) error {
	bind := s.bindingFor(r)
	if err := rewriteLog(s.opts.UpdateLogPath, bind); err != nil {
		return err
	}
	lg, err := openUpdateLog(s.opts.UpdateLogPath, bind, nil, nil)
	if err != nil {
		return err
	}
	_ = s.log.Close() // its file was renamed over and it has nothing staged
	s.log = lg
	s.mirrorLog()
	return nil
}

// Close releases the underlying file handles. The published read state is
// cleared first, so late reads fail with ErrClosed instead of reading a
// closed descriptor or serving stale overlay hits; in-flight reads drain
// before the descriptor goes away. A store still in write mode is finalized
// first (the index file is published, its log started fresh) — use Abort to
// discard instead.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked(false)
}

// Abort is Close for the failure path: a store still in write mode discards
// its temporary file instead of publishing it. A finalized store closes
// normally.
func (s *Store) Abort() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked(true)
}

func (s *Store) closeLocked(discard bool) error {
	if s.closed {
		return nil
	}
	var firstErr error
	if s.writer != nil {
		if discard {
			firstErr = s.writer.Abort()
			s.writer = nil
		} else {
			firstErr = s.ensureReaderLocked()
		}
	}
	s.closed = true
	s.state.Store(nil)
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.reader != nil {
		keep(s.reader.Close())
	}
	if s.log != nil {
		keep(s.log.Close())
	}
	return firstErr
}

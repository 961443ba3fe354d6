package ppvindex

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
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
// already run; reads through any of its states, held ones included, fail
// with it instead of serving a closed store's records.
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

// Store is the PPV index state machine: a base in the disk layout, an overlay
// of the records committed since, and a compaction that folds the overlay
// into a new base. The disk store (CreateStore, OpenStore) keeps its base in
// an index file and logs every update batch as one frame of its update log
// (see updatelog.go); an in-memory store (MemIndex) keeps the same bytes in a
// heap buffer and has no file and no log.
//
// A store starts in write mode: PutEncoded streams to a DiskWriter, or in
// memory collects the records, and the first read finalizes it under mu,
// publishing the base and, on disk, starting the log fresh. OpenStore replays
// the log instead, each batch's mutation through the caller and its records
// into the overlay.
//
// Its read side is one immutable storeState behind an atomic pointer. Commit
// makes a batch durable, then publishes a state whose overlay is a copy of
// the old one plus the batch. Compact publishes a state over the new base
// with the same records and drops its reference to the old one. A state held
// elsewhere reads its own base until the GC collects it (see DiskIndex), and
// every state checks the store's closed flag, so none reads on after Close.
type Store struct {
	path string // empty for an in-memory store
	opts StoreOptions
	// graph identifies the base graph the logged mutations apply to.
	graph GraphBinding

	// state is the published read side, nil in write mode and once closed;
	// commits and compactions publish it under mu, reads take no lock.
	state atomic.Pointer[storeState]

	mu     sync.Mutex
	writer *DiskWriter // a disk store's, in write mode
	built  []Record    // an in-memory store's, in write mode, in put order
	log    *UpdateLog
	// closed is set, under mu, by Close and Abort; every state reads it.
	closed atomic.Bool
	// logWedged flips when a compaction renamed the rewritten base into
	// place but failed before re-binding the log to it: records committed
	// from then on would be bound to the replaced base and skipped on
	// restart, so commits fail instead until a retried compaction (which
	// re-binds the log) or a restart recovers.
	logWedged bool
	compacted func() // see OnCompact

	compacting  atomic.Bool
	compactions atomic.Int64
	// logBytes/logRecords/logBatches mirror the log counters so
	// DurabilityStats can report them without taking mu (which compaction
	// holds for its whole rewrite). Updated under mu, read atomically.
	logBytes   atomic.Int64
	logRecords atomic.Int64
	logBatches atomic.Int64
}

// storeState is one published read state of a finalized store: a base,
// which reader serves and cache (nil without caching) fronts, and the records
// committed since.
type storeState struct {
	reader  *DiskIndex
	cache   *BlockCache
	closed  *atomic.Bool // the store's
	overlay map[graph.NodeID][]byte
	// added counts the overlay's hubs missing from the base (only an
	// in-memory store takes new hubs after its base); pending is what the
	// records committed since the base take in the disk layout, which the
	// fold rule weighs.
	added   int
	pending int64
}

// with returns st plus records, in a copy of the overlay.
func (st *storeState) with(records []Record) *storeState {
	next := *st
	next.overlay = make(map[graph.NodeID][]byte, len(st.overlay)+len(records))
	maps.Copy(next.overlay, st.overlay)
	for _, r := range records {
		if _, ok := next.overlay[r.Hub]; !ok && !st.reader.Has(r.Hub) {
			next.added++
		}
		next.overlay[r.Hub] = r.Payload
		next.pending += perHubOverheadBytes + int64(len(r.Payload))
	}
	return &next
}

// has reports whether the state holds a record of h.
func (st *storeState) has(h graph.NodeID) bool {
	_, ok := st.overlay[h]
	return ok || st.reader.Has(h)
}

// hubs returns the hubs of the state in ascending order.
func (st *storeState) hubs() []graph.NodeID {
	hubs := st.reader.Hubs()
	if st.added == 0 {
		return hubs
	}
	hubs = slices.Clip(hubs) // the base's own slice: appends must copy it
	//lint:ordered collect-then-sort: hubs are sorted by id below
	for h := range st.overlay {
		if !st.reader.Has(h) {
			hubs = append(hubs, h)
		}
	}
	slices.Sort(hubs)
	return hubs
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

// inMemory reports whether the store is an in-memory one: no file, no log.
func (s *Store) inMemory() bool { return s.path == "" }

// OpenStore opens an existing index file in read mode and replays its update
// log, bound to graph: every batch's mutation through replay, in commit order
// (the caller owns the graph and applies them), and its records into the
// overlay. A log bound to another graph fails the open with ErrGraphMismatch.
// A stale <path>.tmp from a crashed precompute or compaction, and a stale
// <log>.tmp from a crashed log rewrite, are removed: whatever they held
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

// PutEncoded implements Writer. In write mode the record goes to the index
// file, or to the records an in-memory base is built from (the last put of a
// hub wins). Once finalized, a disk store takes records only in an update
// batch (Commit), which the log replays as one epoch, and an in-memory store
// commits each as a batch of one.
func (s *Store) PutEncoded(h graph.NodeID, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed.Load():
		return ErrClosed
	case s.writer != nil:
		return s.writer.PutEncoded(h, payload)
	case s.inMemory() && s.state.Load() == nil:
		s.built = append(s.built, Record{Hub: h, Payload: payload})
		return nil
	case !s.inMemory():
		return fmt.Errorf("ppvindex: hub %d written to a finalized store; records reach it only in an update batch", h)
	}
	_, _, err := s.commitLocked(GraphMutation{}, []Record{{Hub: h, Payload: payload}})
	return err
}

// Commit implements Writer: a disk store writes m and records as one log
// frame and fsyncs it, so the batch is durable whole or not at all; then the
// state whose overlay adds records is published. Once the fold rule is due, a
// disk store compacts in the background, an in-memory one before it returns.
func (s *Store) Commit(m GraphMutation, records []Record) (Snapshot, error) {
	snap, compact, err := s.commit(m, records)
	if compact && !s.compacting.Load() {
		go func() {
			// Best effort: a failed or concurrent background compaction is
			// retried at the next commit past the threshold.
			_, _ = s.Compact()
		}()
	}
	return snap, err
}

// commit is Commit under mu; compact reports that a disk store's fold rule is
// due.
func (s *Store) commit(m GraphMutation, records []Record) (snap Snapshot, compact bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked(m, records)
}

func (s *Store) commitLocked(m GraphMutation, records []Record) (Snapshot, bool, error) {
	if err := s.ensureReaderLocked(); err != nil {
		return nil, false, err
	}
	if s.log != nil {
		if s.logWedged {
			return nil, false, fmt.Errorf("ppvindex: update log is out of sync with the rewritten base (a compaction failed after its rename); retry compaction or restart to recover")
		}
		for _, r := range records {
			s.log.AppendEncoded(r.Hub, r.Payload)
		}
		err := s.log.CommitBatch(m)
		s.mirrorLog()
		if err != nil {
			return nil, false, fmt.Errorf("ppvindex: committing the update log: %w", err)
		}
	}
	st := s.state.Load().with(records)
	s.state.Store(st)
	if !s.foldDue(st) {
		return st, false, nil
	}
	if !s.inMemory() {
		return st, true, nil
	}
	// Folding a heap image is a copy in memory: it runs now.
	if _, err := s.compactLocked(); err != nil {
		return nil, false, err
	}
	return s.state.Load(), false, nil
}

// foldDue reports whether the records committed since st's base are due to
// be folded into a new one: past the threshold (never, when it is negative),
// or with the in-memory store's threshold of 0, past an eighth of the base,
// so that an index built put by put grows geometrically. The graph mutations
// are not counted, as no compaction folds them away.
func (s *Store) foldDue(st *storeState) bool {
	if t := s.opts.CompactThresholdBytes; t != 0 {
		return t > 0 && st.pending >= t
	}
	return st.pending >= st.reader.SizeBytes()/8
}

// Snapshot implements Writer; a store still in write mode is finalized first.
func (s *Store) Snapshot() (Snapshot, error) {
	st, err := s.reading()
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Get decodes the record of h into a fresh map (Index's boundary helper; the
// engine reads through GetView).
func (s *Store) Get(h graph.NodeID) (sparse.Vector, bool, error) { return VectorOf(s, h) }

// GetView implements ViewGetter: the overlay's record when an incremental
// update rewrote the hub since the last compaction — a view of the stale
// base record must never win over a newer rewrite — and otherwise the base
// record as a zero-copy view of the mapping or of a cached payload.
func (s *Store) GetView(h graph.NodeID) (HubRecordView, bool, error) {
	st, err := s.reading()
	if err != nil {
		return HubRecordView{}, false, err
	}
	return st.read(h, false)
}

// GetViewUncached is GetView past the block cache (see
// storeState.GetViewUncached).
func (s *Store) GetViewUncached(h graph.NodeID) (HubRecordView, bool, error) {
	st, err := s.reading()
	if err != nil {
		return HubRecordView{}, false, err
	}
	return st.read(h, true)
}

// GetView reads the record of h in this state.
func (st *storeState) GetView(h graph.NodeID) (HubRecordView, bool, error) { return st.read(h, false) }

// GetViewUncached is GetView past the block cache: the bytes are the same,
// but no block is filled or evicted, so a maintenance scan over every hub (the
// affected-hub test of core.Engine.ApplyUpdate) leaves the blocks the queries
// are using in place.
func (st *storeState) GetViewUncached(h graph.NodeID) (HubRecordView, bool, error) {
	return st.read(h, true)
}

// read serves the record of h in this state: the overlay's, else the base
// record, or ErrClosed once the store is closed.
func (st *storeState) read(h graph.NodeID, uncached bool) (HubRecordView, bool, error) {
	if st.closed.Load() {
		return HubRecordView{}, false, ErrClosed
	}
	if rec, ok := st.overlay[h]; ok {
		return NewHubRecordView(rec), true, nil
	}
	if st.cache != nil && !uncached {
		return st.cache.GetView(h)
	}
	return st.reader.GetView(h)
}

// Has, Hubs (ascending), Len and SizeBytes answer from the published state,
// or an empty one once the store is closed. SizeBytes is the base file's size
// on disk, and in memory what the records take in the disk layout (8 bytes a
// hub plus the encoded payload), so in-memory and on-disk experiments
// compare.
func (s *Store) Has(h graph.NodeID) bool { return s.directory().has(h) }
func (s *Store) Hubs() []graph.NodeID    { return s.directory().hubs() }
func (s *Store) Len() int                { st := s.directory(); return st.reader.Len() + st.added }

func (s *Store) SizeBytes() int64 {
	st := s.directory()
	if !s.inMemory() {
		return st.reader.SizeBytes()
	}
	size := int64(len(st.reader.records))
	//lint:ordered a sum of integer sizes, the same in any order
	for h, rec := range st.overlay {
		size += perHubOverheadBytes + int64(len(rec))
		if view, ok, _ := st.reader.GetView(h); ok {
			size -= perHubOverheadBytes + int64(len(view.EntryBytes()))
		}
	}
	return size
}

// closedState is what a store that cannot be read answers directory
// questions from: an empty base.
var closedState = &storeState{reader: &DiskIndex{}}

func (s *Store) directory() *storeState {
	if st, err := s.reading(); err == nil {
		return st
	}
	return closedState
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
// the store is still in write mode (nothing finalized yet), once it is
// closed, and for an in-memory store, which keeps no log.
// Lock-free: the log counters come from mirrored atomics, so /v1/stats does
// not stall behind a running compaction (which holds mu for its rewrite).
func (s *Store) DurabilityStats() (DurabilityStats, bool) {
	st := s.state.Load()
	if st == nil || s.inMemory() {
		return DurabilityStats{}, false
	}
	return DurabilityStats{
		OverlayHubs: len(st.overlay),
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
	if s.closed.Load() {
		return ErrClosed
	}
	if s.state.Load() != nil {
		return nil
	}
	if s.inMemory() {
		// Newest first, so a stable sort by hub puts each hub's last put
		// first, and Compact keeps it.
		slices.Reverse(s.built)
		slices.SortStableFunc(s.built, func(a, b Record) int { return cmp.Compare(a.Hub, b.Hub) })
		r, err := openImage(slices.CompactFunc(s.built, func(a, b Record) bool { return a.Hub == b.Hub }))
		if err != nil {
			return err
		}
		s.built = nil
		s.state.Store(s.newState(r))
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
	r, err := OpenDisk(s.path)
	if err != nil {
		return err
	}
	var replayed []Record
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
		replayed = append(replayed, Record{Hub: h, Payload: bytes.Clone(payload)})
		return nil
	})
	if err != nil {
		return err
	}
	s.log = lg
	s.mirrorLog()
	s.state.Store(s.newState(r).with(replayed))
	return nil
}

// newState is the state of base r with nothing committed since, wiring the
// block cache when configured.
func (s *Store) newState(r *DiskIndex) *storeState {
	st := &storeState{reader: r, closed: &s.closed}
	if s.opts.BlockCacheBytes >= 0 {
		st.cache = NewBlockCache(r, s.opts.BlockCacheBytes, 0)
	}
	return st
}

// OnCompact sets fn to run after every Compact that succeeds, once mu is
// released: core.Engine publishes its next version from it, so no new query
// reads the old state, and the old base goes once the queries still holding
// it finish. A fold inside Commit returns its state itself and
// does not run fn.
func (s *Store) OnCompact(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compacted = fn
}

// Compact folds the logged records and overlay into a new base (see
// compactLocked). Queries are served throughout, while commits wait on mu.
// At most one compaction runs at a time.
func (s *Store) Compact() (CompactionResult, error) {
	if !s.compacting.CompareAndSwap(false, true) {
		return CompactionResult{}, ErrCompactionInProgress
	}
	defer s.compacting.Store(false)
	s.mu.Lock()
	res, err := s.compactLocked()
	compacted := s.compacted
	s.mu.Unlock()
	if err == nil && compacted != nil {
		compacted()
	}
	return res, err
}

// compactLocked writes every hub record in ascending hub order (the
// overlay's when present) into a new base and publishes a state over it with
// the same records. On disk the base is <path>.tmp, fsync'd and renamed over
// <path>, and the log is rewritten down to its mutations, which no file
// folds, bound to the new base (rewriteLog). In memory the base is a fresh
// heap image. Either way the old base lives on while a state or a view reads
// it. Callers hold mu.
func (s *Store) compactLocked() (CompactionResult, error) {
	var res CompactionResult
	start := time.Now()
	if err := s.ensureReaderLocked(); err != nil {
		return res, err
	}
	st := s.state.Load()
	old := st.reader
	hubs := st.hubs()
	res.TotalHubs = len(hubs)
	var logBytes, logRecords int64
	if s.log != nil {
		logBytes, logRecords = s.log.SizeBytes(), s.log.Records()
	}
	if len(st.overlay) == 0 && logRecords == 0 {
		// Nothing to fold in; report the current base size and return.
		res.IndexBytes = old.SizeBytes()
		res.DurationMS = float64(time.Since(start)) / 1e6
		return res, nil
	}

	// A disk base streams into <path>.tmp. An in-memory one is laid out from
	// the records, which alias the old image and the overlay.
	var records []Record
	put := func(h graph.NodeID, rec []byte) error {
		records = append(records, Record{Hub: h, Payload: rec})
		return nil
	}
	var w *DiskWriter
	if !s.inMemory() {
		var err error
		if w, err = CreateDisk(s.path); err != nil {
			return res, err
		}
		defer w.Abort() // discards <path>.tmp on an early return; a no-op after Close
		put = w.PutEncoded
	}
	for _, h := range hubs {
		// The base record straight from the reader, not through the block
		// cache: a full-index sweep would evict the hot set.
		view, inBase, err := old.GetView(h)
		if err != nil {
			return res, fmt.Errorf("ppvindex: compaction reading hub %d: %w", h, err)
		}
		rec, rewritten := st.overlay[h]
		switch {
		case rewritten:
			res.RewrittenHubs++
		case inBase:
			rec = view.EntryBytes()
		default:
			return res, fmt.Errorf("ppvindex: compaction: hub %d vanished from the base index", h)
		}
		// A file writer copies the record into its buffer before the view is
		// released.
		err = put(h, rec)
		view.Release()
		if err != nil {
			return res, fmt.Errorf("ppvindex: compaction writing hub %d: %w", h, err)
		}
	}
	r, err := s.openBase(w, records)
	if err != nil {
		return res, err
	}
	s.state.Store(s.newState(r))
	if w != nil {
		s.logWedged = false
		res.LogRecordsFolded = logRecords
		res.LogBytesFreed = logBytes - s.log.SizeBytes()
	}
	s.compactions.Add(1)
	res.IndexBytes = r.SizeBytes()
	res.DurationMS = float64(time.Since(start)) / 1e6
	return res, nil
}

// openBase opens the base a compaction built: a heap image of records, or
// the file w wrote, closed here, with the log rebound to it.
func (s *Store) openBase(w *DiskWriter, records []Record) (*DiskIndex, error) {
	if w == nil {
		return openImage(records)
	}
	// Close fsyncs the file and its directory, then atomically renames the
	// rewritten file over s.path. From here the base owns every logged
	// record; a crash before the log rewrite leaves a log bound to the old
	// base, which the next open rewrites itself.
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("ppvindex: compaction finalizing rewritten index: %w", err)
	}
	r, err := OpenDisk(s.path)
	if err != nil {
		// The old state keeps serving: its overlay still shadows the base
		// records the rewrite folded in, so answers stay correct, and the
		// rewritten file on disk already holds the merged data for recovery.
		// The log, however, is still bound to the replaced base — records
		// committed now would be skipped on restart — so wedge updates
		// until a retried compaction re-binds it.
		s.logWedged = true
		return nil, fmt.Errorf("ppvindex: compaction reopening rewritten index: %w", err)
	}
	if err := s.rebindLogLocked(r); err != nil {
		s.logWedged = true
		return nil, fmt.Errorf("ppvindex: compaction rewriting the update log: %w", err)
	}
	return r, nil
}

// rebindLogLocked rewrites the update log down to its mutations, bound to
// the base r, and switches to it. Callers must hold s.mu; nothing is staged
// outside commit.
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

// Close closes the log and clears the read state. Late reads, held snapshots
// included, fail with ErrClosed instead of serving stale overlay hits; the
// mapped base goes once the GC finds nothing reading it. A store still in
// write mode is finalized first (the index file is published, its log
// started fresh) — use Abort to discard instead.
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
	if s.closed.Load() {
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
	s.closed.Store(true)
	s.state.Store(nil)
	if s.log != nil {
		if err := s.log.Close(); firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Package querylog persists one compact binary record per completed query so
// the observed workload survives restarts. The log is the input that makes
// other subsystems adaptive instead of guessed: on startup the server replays
// it to warm the hub cache with the blocks the real workload actually needs
// (frequency-decayed top sources → their hub dependencies), and cmd/ppvlog
// aggregates or replays it offline.
//
// The file is a framed log (internal/frame), the mechanism of the PPV update
// log too: a 16-byte header (magic 'F','P','Q','1',
// version 1, 8 reserved bytes, no binding) followed by CRC-framed records. A
// crash can only tear the tail, which Open truncates away; a foreign or
// incompatible file is rejected rather than silently overwritten. What is
// specific to this log is its policy: appends are committed by a background
// flusher (batched fsync), so the per-query cost on the serving hot path is
// one short critical section and a small memcpy, and rotation by size keeps
// the log bounded — the active file is renamed to <path>.1 (replacing the
// previous generation) and a fresh one started, so replay sees at most two
// generations, oldest first.
package querylog

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"fastppv/internal/frame"
	"fastppv/internal/graph"
)

// Record is one completed query. The fixed-width fields are chosen so a
// record encodes in ~32 bytes plus the optional trace id and per-shard leg
// summaries; at that size a 64 MiB generation holds on the order of a million
// queries.
type Record struct {
	// Source is the query node.
	Source graph.NodeID
	// Top is the requested k (top-k result size).
	Top uint16
	// Eta is the requested accuracy level after the server's MaxEta clamp,
	// not the lower one a degraded answer was computed at; replay re-issues
	// it as given.
	Eta uint8
	// Mode is ModeEngine or ModeRouter.
	Mode uint8
	// Flags is a bitmask of the Flag* constants (degraded, cache outcome,
	// slow, traced).
	Flags uint8
	// Iterations is the number of frontier-expansion iterations the answer
	// ran (clamped to 255; cache hits repeat the computing query's value).
	Iterations uint8
	// Epoch is the index epoch the answer was computed against.
	Epoch uint64
	// LatencyUS is the observed request latency in microseconds (clamped).
	LatencyUS uint32
	// Bound is the exact L1 error bound of the answer.
	Bound float64
	// TraceID is set when the server retained a trace for this query (slow,
	// degraded, sampled, or explicitly traced); empty otherwise.
	TraceID string
	// Legs summarizes router-mode shard legs (aggregated per shard across
	// iterations). Empty in engine mode and on cache hits.
	Legs []LegSummary
}

// LegSummary aggregates one shard's contribution to a router-mode query.
type LegSummary struct {
	// Shard is the shard index in the partition.
	Shard uint16
	// Legs is the number of partial sub-requests sent to this shard.
	Legs uint16
	// DurationUS is the summed leg latency in microseconds (clamped).
	DurationUS uint32
}

// Mode values for Record.Mode.
const (
	// ModeEngine marks a query answered by a local engine.
	ModeEngine uint8 = 0
	// ModeRouter marks a query scatter-gathered across shards.
	ModeRouter uint8 = 1
)

// Flag bits for Record.Flags.
const (
	// FlagDegraded marks an answer served at reduced accuracy (admission
	// degrade, shard loss, or epoch divergence).
	FlagDegraded uint8 = 1 << iota
	// FlagCacheHit marks an answer served from the result cache.
	FlagCacheHit
	// FlagCoalesced marks an answer that piggybacked on an in-flight
	// identical computation.
	FlagCoalesced
	// FlagSlow marks a computation that exceeded the server's slow
	// threshold (its trace was retained unconditionally).
	FlagSlow
	// FlagTraced marks an explicitly traced request (?trace=1).
	FlagTraced
)

// ErrBadFormat reports a file that is not a query log (foreign magic) or a
// query log written by an incompatible version. The file is left untouched.
var ErrBadFormat = errors.New("querylog: not a query log (bad magic or version)")

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("querylog: closed")

const (
	logMagic   = uint32('F') | uint32('P')<<8 | uint32('Q')<<16 | uint32('1')<<24
	logVersion = 1
	// headerBytes is magic + version + reserved.
	headerBytes = 16
	// recordFixedBytes is the fixed-width prefix of an encoded record.
	recordFixedBytes = 32
	// maxRecordBytes bounds one frame payload; anything larger during replay
	// is treated as a torn/corrupt tail.
	maxRecordBytes = 64 << 10

	defaultMaxBytes      = 64 << 20
	defaultFlushInterval = 100 * time.Millisecond
	defaultHalfLife      = 8192
)

var logFormat = frame.Format{
	Name: "query log", Magic: logMagic, Version: logVersion,
	HeaderBytes: headerBytes, MaxPayload: maxRecordBytes, BadHeader: ErrBadFormat,
}

// Options tunes a Log. The zero value is a sensible serving default.
type Options struct {
	// MaxBytes rotates the active file when it would exceed this size;
	// zero means 64 MiB, negative disables rotation.
	MaxBytes int64
	// FlushInterval is the batched fsync period; zero means 100ms, negative
	// flushes and syncs on every append (tests, tools).
	FlushInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxBytes == 0 {
		o.MaxBytes = defaultMaxBytes
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = defaultFlushInterval
	}
	return o
}

// Stats is a point-in-time snapshot of a Log.
type Stats struct {
	// Replayed is the number of records recovered on Open (both
	// generations).
	Replayed int64 `json:"replayed"`
	// Appended is the number of records appended since Open.
	Appended int64 `json:"appended"`
	// ActiveBytes is the size of the active generation, including buffered
	// but not yet flushed frames.
	ActiveBytes int64 `json:"active_bytes"`
	// Rotations counts generation rollovers since Open.
	Rotations int64 `json:"rotations"`
	// TruncatedBytes is how much torn tail Open discarded.
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
}

// Log is an append-only query log. It is safe for concurrent use.
type Log struct {
	mu        sync.Mutex
	log       *frame.Log
	opts      Options
	replayed  int64
	appended  int64
	rotations int64
	closed    bool

	agg *SourceAggregator

	stop chan struct{}
	done chan struct{}

	encBuf []byte
}

// Open opens (creating if absent) the query log at path, replays the previous
// generation (<path>.1, if present) and then the active file — truncating a
// torn tail — and feeds every recovered record to replay (which may be nil)
// and to the internal source aggregator. A file whose header is not a
// compatible query log is rejected with ErrBadFormat.
func Open(path string, opts Options, replay func(Record) error) (*Log, error) {
	return open(frame.OS{}, path, opts, replay)
}

func open(fs frame.FS, path string, opts Options, replay func(Record) error) (*Log, error) {
	opts = opts.withDefaults()
	l := &Log{
		opts: opts,
		agg:  NewSourceAggregator(defaultHalfLife),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	feed := decodeInto(func(r Record) error {
		l.agg.Add(r.Source)
		l.replayed++
		if replay != nil {
			return replay(r)
		}
		return nil
	})
	// Previous generation: read-only; it was the active file once, so a torn
	// tail is tolerated (the scan stops at the tear).
	if _, err := frame.Scan(fs, path+".1", logFormat, feed); err != nil {
		return nil, err
	}
	log, err := frame.Open(fs, path, logFormat, nil, feed)
	if err != nil {
		return nil, err
	}
	l.log = log
	if opts.FlushInterval > 0 {
		go l.flushLoop()
	} else {
		close(l.done)
	}
	return l, nil
}

// decodeInto adapts a record callback to a frame payload callback; a payload
// that is not a record ends the replay as a torn tail.
func decodeInto(fn func(Record) error) func([]byte) error {
	return func(payload []byte) error {
		rec, ok := decodeRecord(payload)
		if !ok {
			return frame.ErrTorn
		}
		if fn == nil {
			return nil
		}
		return fn(rec)
	}
}

// encodeRecord appends the wire form of r to buf and returns it.
func encodeRecord(buf []byte, r Record) []byte {
	tid := r.TraceID
	if len(tid) > 255 {
		tid = tid[:255]
	}
	legs := r.Legs
	if len(legs) > 255 {
		legs = legs[:255]
	}
	var fixed [recordFixedBytes]byte
	binary.LittleEndian.PutUint32(fixed[0:4], uint32(r.Source))
	binary.LittleEndian.PutUint16(fixed[4:6], r.Top)
	fixed[6] = r.Eta
	fixed[7] = r.Mode
	fixed[8] = r.Flags
	fixed[9] = r.Iterations
	fixed[10] = uint8(len(tid))
	fixed[11] = uint8(len(legs))
	binary.LittleEndian.PutUint64(fixed[12:20], r.Epoch)
	binary.LittleEndian.PutUint32(fixed[20:24], r.LatencyUS)
	binary.LittleEndian.PutUint64(fixed[24:32], math.Float64bits(r.Bound))
	buf = append(buf, fixed[:]...)
	buf = append(buf, tid...)
	for _, leg := range legs {
		var lb [8]byte
		binary.LittleEndian.PutUint16(lb[0:2], leg.Shard)
		binary.LittleEndian.PutUint16(lb[2:4], leg.Legs)
		binary.LittleEndian.PutUint32(lb[4:8], leg.DurationUS)
		buf = append(buf, lb[:]...)
	}
	return buf
}

func decodeRecord(p []byte) (Record, bool) {
	if len(p) < recordFixedBytes {
		return Record{}, false
	}
	var r Record
	r.Source = graph.NodeID(int32(binary.LittleEndian.Uint32(p[0:4])))
	r.Top = binary.LittleEndian.Uint16(p[4:6])
	r.Eta = p[6]
	r.Mode = p[7]
	r.Flags = p[8]
	r.Iterations = p[9]
	tidLen := int(p[10])
	legCount := int(p[11])
	r.Epoch = binary.LittleEndian.Uint64(p[12:20])
	r.LatencyUS = binary.LittleEndian.Uint32(p[20:24])
	r.Bound = math.Float64frombits(binary.LittleEndian.Uint64(p[24:32]))
	rest := p[recordFixedBytes:]
	if len(rest) != tidLen+legCount*8 {
		return Record{}, false
	}
	if tidLen > 0 {
		r.TraceID = string(rest[:tidLen])
		rest = rest[tidLen:]
	}
	if legCount > 0 {
		r.Legs = make([]LegSummary, legCount)
		for i := range r.Legs {
			lb := rest[i*8:]
			r.Legs[i] = LegSummary{
				Shard:      binary.LittleEndian.Uint16(lb[0:2]),
				Legs:       binary.LittleEndian.Uint16(lb[2:4]),
				DurationUS: binary.LittleEndian.Uint32(lb[4:8]),
			}
		}
	}
	return r, true
}

// Append writes one record. The frame lands in the write buffer immediately;
// durability follows at the next batched flush (or synchronously when
// FlushInterval < 0). Append never blocks on disk in the batched mode unless
// the buffer fills. After a failed write or rotation every Append returns
// that first error.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.encBuf = encodeRecord(l.encBuf[:0], r)
	size := l.log.Size()
	if l.opts.MaxBytes > 0 && size+frame.Overhead+int64(len(l.encBuf)) > l.opts.MaxBytes && size > headerBytes {
		if err := l.log.Rotate(); err != nil {
			return err
		}
		l.rotations++
	}
	if err := l.log.Append(l.encBuf); err != nil {
		return err
	}
	l.appended++
	l.agg.Add(r.Source)
	if l.opts.FlushInterval < 0 {
		return l.log.Commit()
	}
	return nil
}

func (l *Log) flushLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				// A failure stays with the frame log, which hands it to the
				// next Append or Close.
				_ = l.log.Commit()
			}
			l.mu.Unlock()
		}
	}
}

// Close flushes, fsyncs and closes the log. Further appends fail with
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.log.Commit()
	if cerr := l.log.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	return err
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Replayed:       l.replayed,
		Appended:       l.appended,
		ActiveBytes:    l.log.Size(),
		Rotations:      l.rotations,
		TruncatedBytes: l.log.Truncated(),
	}
}

// Records returns the total records observed (replayed + appended).
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.replayed + l.appended
}

// TopSources returns up to k distinct query sources ordered by
// frequency-decayed weight (recent queries count more), ties broken by node
// id. It reflects both replayed and appended records.
func (l *Log) TopSources(k int) []graph.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.agg.TopSources(k)
}

// Replay scans the log at path offline — previous generation first, then the
// active file — feeding each intact record to fn. It tolerates a torn tail
// (scan stops at the tear) and never modifies the files; a foreign or
// incompatible header is ErrBadFormat. Missing files contribute zero records.
func Replay(path string, fn func(Record) error) (int64, error) {
	var total int64
	for _, p := range []string{path + ".1", path} {
		n, err := frame.Scan(frame.OS{}, p, logFormat, decodeInto(fn))
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// SourceAggregator accumulates exponentially decayed per-source query
// frequencies: each new record carries more weight than the one before it by
// a factor of 2^(1/halfLife), so a source's standing halves every halfLife
// records it goes unqueried. Weights are folded incrementally — nothing but
// the per-source totals is retained.
type SourceAggregator struct {
	w        map[graph.NodeID]float64
	halfLife float64
	// next is the weight the next Add contributes; it grows geometrically
	// and is renormalized (all totals scaled down) before it can overflow.
	next float64
}

// NewSourceAggregator returns an aggregator with the given half-life in
// records (<=0 means the default 8192).
func NewSourceAggregator(halfLife int) *SourceAggregator {
	if halfLife <= 0 {
		halfLife = defaultHalfLife
	}
	return &SourceAggregator{
		w:        make(map[graph.NodeID]float64),
		halfLife: float64(halfLife),
		next:     1,
	}
}

// Add records one query for src.
func (a *SourceAggregator) Add(src graph.NodeID) {
	a.w[src] += a.next
	a.next *= math.Exp2(1 / a.halfLife)
	if a.next > 1e300 {
		inv := 1 / a.next
		for k := range a.w {
			a.w[k] *= inv
		}
		a.next = 1
	}
}

// TopSources returns up to k sources by decayed weight (descending), ties
// broken by ascending node id for determinism.
func (a *SourceAggregator) TopSources(k int) []graph.NodeID {
	if k <= 0 || len(a.w) == 0 {
		return nil
	}
	type sw struct {
		id graph.NodeID
		w  float64
	}
	all := make([]sw, 0, len(a.w))
	for id, w := range a.w {
		all = append(all, sw{id, w})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].id < all[j].id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]graph.NodeID, k)
	for i := range out {
		out[i] = all[i].id
	}
	return out
}

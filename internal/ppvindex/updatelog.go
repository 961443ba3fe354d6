package ppvindex

import (
	"encoding/binary"
	"errors"

	"fastppv/internal/frame"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// Update-log layout: a framed log (internal/frame) whose header is
//
//	magic     uint32 'F','P','L','1'
//	version   uint32 (currently 1)
//	baseBytes uint64 size of the base index file this log belongs to
//	baseHubs  uint32 hub count of that base file
//	reserved  uint32
//
// and whose frame payload is one hub record: hub, count, count x { node,
// score }, the disk index's record layout.
//
// The log is the durability side-channel of a finalized disk index: every
// post-finalize Put (an incremental update recomputing a hub's prime PPV)
// appends one frame, and a batch of frames is committed with a single fsync.
// On open the frames are replayed in order; replay is idempotent — applying a
// frame whose record is already in the base index rewrites the same value —
// which is what makes the compaction commit protocol (rename the rewritten
// base first, reset the log second) crash-consistent at every point.
//
// The binding (size and hub count) ties the log to one specific base file:
// a log left behind by a crashed rebuild or an interrupted compaction is reset
// on open instead of replaying foreign records onto a base they do not belong
// to.
const (
	logMagic       = uint32('F') | uint32('P')<<8 | uint32('L')<<16 | uint32('1')<<24
	logVersion     = 1
	logHeaderBytes = 24
)

var updateLogFormat = frame.Format{
	Name: "update log", Magic: logMagic, Version: logVersion,
	HeaderBytes: logHeaderBytes, BadHeader: ErrBadIndexFormat,
}

// ErrCompactionInProgress reports that a compaction of a disk index is
// already running; at most one runs at a time.
var ErrCompactionInProgress = errors.New("ppvindex: compaction already in progress")

// ErrUpdateInFlight reports that a compaction was requested while an
// incremental-update batch had appended but not yet committed log frames;
// compacting mid-batch would make half the batch durable, so the caller
// should retry once the update commits.
var ErrUpdateInFlight = errors.New("ppvindex: update batch in flight, retry compaction after it commits")

// UpdateLog is an append-only, CRC-framed record log alongside a disk index.
// Append buffers frames; Commit flushes and fsyncs them as one batch. It is
// not safe for concurrent use; callers serialize access (the disk store's
// mutex).
type UpdateLog struct{ log *frame.Log }

// updateLogBinding encodes the identity of the base index file the logged
// records apply to.
func updateLogBinding(baseBytes int64, baseHubs int) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint64(b[0:], uint64(baseBytes))
	binary.LittleEndian.PutUint32(b[8:], uint32(baseHubs))
	return b
}

// OpenUpdateLog opens (or creates) the update log at path and replays every
// valid frame through replay, in append order. baseBytes and baseHubs
// identify the base index file being served: a log bound to a different base
// (a leftover from a crashed rebuild, or one whose compaction renamed the
// base but died before the log reset) is discarded — reset to empty — instead
// of replayed. A torn tail is truncated; a foreign or corrupt header fails
// with ErrBadIndexFormat. The returned log is positioned for appending.
//
// Frames are where records enter from outside the process, so each is
// validated here (parseRecord): a CRC-valid frame that is not a well-formed
// record ends the replay like any other bad frame. The entry payload handed
// to replay aliases the replay buffer; a callback that keeps it must copy it.
func OpenUpdateLog(path string, baseBytes int64, baseHubs int, replay func(h graph.NodeID, payload []byte) error) (*UpdateLog, error) {
	log, err := frame.Open(frame.OS{}, path, updateLogFormat, updateLogBinding(baseBytes, baseHubs), func(rec []byte) error {
		h, payload, err := parseRecord(rec)
		if err != nil {
			return frame.ErrTorn
		}
		if replay == nil {
			return nil
		}
		return replay(h, payload)
	})
	if err != nil {
		return nil, err
	}
	return &UpdateLog{log}, nil
}

// AppendEncoded buffers one update frame holding payload as the record of h.
// It does not hit the disk until Commit, and does not retain payload.
func (l *UpdateLog) AppendEncoded(h graph.NodeID, payload []byte) error {
	return l.log.Append(appendRecord(nil, h, payload))
}

// Append encodes ppv and buffers it (boundary helper, see encodeVector).
func (l *UpdateLog) Append(h graph.NodeID, ppv sparse.Vector) error {
	return l.AppendEncoded(h, encodeVector(ppv))
}

// Commit flushes every appended frame and fsyncs the file: one durable batch
// per incremental update, however many hubs it recomputed.
func (l *UpdateLog) Commit() error { return l.log.Commit() }

// Uncommitted reports whether frames have been appended since the last
// Commit (or Reset): an update batch is mid-flight and a compaction must not
// fold its already-appended half into the base.
func (l *UpdateLog) Uncommitted() bool { return l.log.Uncommitted() }

// Reset empties the log back to a bare header (fsync'd), re-bound to the
// given base file. Compaction calls it after the rewritten base index has
// been renamed into place: from that point the base owns every logged update,
// and an empty log bound to the new base is the durable record of that fact.
func (l *UpdateLog) Reset(baseBytes int64, baseHubs int) error {
	return l.log.Reset(updateLogBinding(baseBytes, baseHubs))
}

// SizeBytes returns the log size in bytes, including the header and any
// still-buffered frames.
func (l *UpdateLog) SizeBytes() int64 { return l.log.Size() }

// Records returns the number of frames in the log, including buffered ones.
func (l *UpdateLog) Records() int64 { return l.log.Frames() }

// Close discards any frames appended since the last Commit and closes the log
// file. Frames still uncommitted at Close belong to an update batch that
// never committed (ApplyUpdate reports failure exactly when the commit does
// not complete); persisting them would replay half a batch — hub PPVs of a
// graph change that officially never happened — so the tail rolls back to the
// last committed frame instead.
func (l *UpdateLog) Close() error { return l.log.Close() }

// DurabilityStats summarizes the durable-update machinery of a disk-backed
// index store: the in-memory overlay of rewritten hubs and the update log
// behind it. The serving layer's /v1/stats exposes these.
type DurabilityStats struct {
	// LogEnabled reports whether post-finalize Puts are persisted to an
	// update log (false means the overlay is volatile, the pre-durability
	// behaviour).
	LogEnabled bool `json:"log_enabled"`
	// OverlayHubs is the number of hubs whose current prime PPV lives in the
	// in-memory overlay rather than the base file.
	OverlayHubs int `json:"overlay_hubs"`
	// LogBytes and LogRecords size the update log (LogBytes includes the
	// 24-byte file header).
	LogBytes   int64 `json:"log_bytes"`
	LogRecords int64 `json:"log_records"`
	// GraphLogEnabled reports whether committed graph updates themselves are
	// persisted to a graph-mutation log (false means a restart reverts the
	// graph to the original -graph file even though the updated hub PPVs
	// replay from the update log).
	GraphLogEnabled bool `json:"graph_log_enabled"`
	// GraphLogBytes and GraphLogRecords size the graph-mutation log;
	// GraphLogRecords equals the index epoch the store would replay to.
	GraphLogBytes   int64 `json:"graph_log_bytes,omitempty"`
	GraphLogRecords int64 `json:"graph_log_records,omitempty"`
	// Compactions counts completed compactions since the store was opened.
	Compactions int64 `json:"compactions"`
}

// CompactionResult reports what one compaction did.
type CompactionResult struct {
	// TotalHubs is the number of hubs in the rewritten index; RewrittenHubs
	// of them took their record from the overlay (i.e. had pending updates).
	TotalHubs     int `json:"total_hubs"`
	RewrittenHubs int `json:"rewritten_hubs"`
	// LogRecordsFolded and LogBytesFreed describe the update log that the
	// rewrite absorbed.
	LogRecordsFolded int64 `json:"log_records_folded"`
	LogBytesFreed    int64 `json:"log_bytes_freed"`
	// IndexBytes is the size of the rewritten index file.
	IndexBytes int64 `json:"index_bytes"`
	// DurationMS is the wall time of the compaction.
	DurationMS float64 `json:"duration_ms"`
}

package ppvindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"fastppv/internal/frame"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// Update-log layout: the write-ahead log of a Store, a framed log
// (internal/frame) whose header is
//
//	magic     uint32 'F','P','L','1'
//	version   uint32 (currently 5)
//	baseBytes uint64 size of the base index file the records apply to
//	baseHubs  uint32 hub count of that base file
//	flags     uint32 bit 0: the base graph is directed
//	nodes     uint64 node count of the base graph the mutations apply to
//	edges     uint64 edge count of that base graph
//
// and whose frame payload is one committed update batch: its graph mutation,
// then the hub records it rewrote, in the disk index's record layout.
//
//	numNodes     uint32  GraphMutation.NumNodes (0 = unchanged)
//	addedCount   uint32
//	removedCount uint32
//	addedCount   x { from uint32, to uint32 }
//	removedCount x { from uint32, to uint32 }
//	records      zero or more { hub uint32, length uint32, length bytes of payload }
//
// each record in the disk index's record layout, its payload the entries of
// sparse.AppendEncoded (uvarint node-id gaps beside 16-bit score codes).
//
// One batch is one frame, so a batch torn by a crash, or never acknowledged,
// is a torn frame, which replay discards. Replaying the frames in order
// rebuilds the served graph (one epoch a frame) and the overlay.
//
// A log bound to another graph is refused on open (ErrGraphMismatch) and left
// as it is. One bound to the same graph but another base file is what a
// compaction leaves when it crashes between renaming the rewritten base into
// place and rewriting the log: its records already live in the new base and
// are skipped, its mutations still replay.
// Older versions are not migrated: opening one fails with ErrBadIndexFormat,
// naming its version, and leaves the file as it is. Version 1 held one frame
// per hub record, beside a separate graph-mutation log; version 2 held 12-byte
// (node uint32, score float64) entries and version 3 fixed 8-byte (node
// uint32, score float32) ones, both behind an entry count; version 4 held
// uvarint node-id gaps beside float32 scores.
const (
	logMagic            = uint32('F') | uint32('P')<<8 | uint32('L')<<16 | uint32('1')<<24
	logVersion          = 5
	logHeaderBytes      = 40
	graphBindingAt      = 12 // where the binding's graph half starts, after baseHubs
	mutationHeaderBytes = 12 // numNodes + addedCount + removedCount
	edgeBytes           = 8
)

var updateLogFormat = frame.Format{
	Name: "update log", Magic: logMagic, Version: logVersion,
	HeaderBytes: logHeaderBytes, BadHeader: ErrBadIndexFormat,
}

// ErrGraphMismatch reports an update log bound to another base graph than the
// one the store was opened with. The binding holds only the node and edge
// counts and directedness, so a graph with equal counts is not told apart.
var ErrGraphMismatch = errors.New("ppvindex: update log is bound to another base graph")

// ErrCompactionInProgress reports that a compaction of a disk index is
// already running; at most one runs at a time.
var ErrCompactionInProgress = errors.New("ppvindex: compaction already in progress")

// GraphMutation describes a batch of edge insertions and deletions applied to
// a graph: what core.ApplyUpdate takes (core.GraphUpdate is this type) and
// what the front of one update-log frame holds. Node identifiers must already
// exist; adding nodes is expressed by growing NumNodes (new isolated nodes
// become valid targets of added edges).
type GraphMutation struct {
	// AddedEdges are edges to insert (interpreted as logical edges: a single
	// entry on an undirected graph adds both orientations).
	AddedEdges []graph.Edge
	// RemovedEdges are edges to delete. On an undirected graph either
	// orientation identifies the edge.
	RemovedEdges []graph.Edge
	// NumNodes, when larger than the current node count, grows the node set.
	NumNodes int
}

// GraphBinding identifies the base graph the mutations of a Store's update
// log apply to: node and edge counts plus directedness, the cheap identity
// available without hashing the whole edge set.
type GraphBinding struct {
	Nodes    int
	Edges    int
	Directed bool
}

// logBinding encodes what an update-log header binds, the header bytes after
// magic and version: one base index file and one base graph.
func logBinding(baseBytes int64, baseHubs int, g GraphBinding) []byte {
	buf := make([]byte, logHeaderBytes-8)
	binary.LittleEndian.PutUint64(buf[0:], uint64(baseBytes))
	binary.LittleEndian.PutUint32(buf[8:], uint32(baseHubs))
	if g.Directed {
		buf[graphBindingAt] = 1
	}
	binary.LittleEndian.PutUint64(buf[16:], uint64(g.Nodes))
	binary.LittleEndian.PutUint64(buf[24:], uint64(g.Edges))
	return buf
}

// appendMutation appends the encoded batch mutation to dst.
func appendMutation(dst []byte, m GraphMutation) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.NumNodes))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.AddedEdges)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.RemovedEdges)))
	for _, lst := range [2][]graph.Edge{m.AddedEdges, m.RemovedEdges} {
		for _, ed := range lst {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(ed.From))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(ed.To))
		}
	}
	return dst
}

// decodeMutation parses the mutation at the front of buf and returns it and
// how many bytes it took.
func decodeMutation(buf []byte) (GraphMutation, int, error) {
	var m GraphMutation
	if len(buf) < mutationHeaderBytes {
		return m, 0, fmt.Errorf("%w: batch of %d bytes is shorter than its mutation header", ErrBadIndexFormat, len(buf))
	}
	m.NumNodes = int(binary.LittleEndian.Uint32(buf[0:]))
	added := int64(binary.LittleEndian.Uint32(buf[4:]))
	removed := int64(binary.LittleEndian.Uint32(buf[8:]))
	n := mutationHeaderBytes + (added+removed)*edgeBytes
	if n > int64(len(buf)) {
		return m, 0, fmt.Errorf("%w: graph mutation claims %d+%d edges in a %d-byte batch", ErrBadIndexFormat, added, removed, len(buf))
	}
	edges := make([]graph.Edge, added+removed)
	for i, at := 0, mutationHeaderBytes; i < len(edges); i, at = i+1, at+edgeBytes {
		from, to := binary.LittleEndian.Uint32(buf[at:]), binary.LittleEndian.Uint32(buf[at+4:])
		edges[i] = graph.Edge{From: graph.NodeID(from), To: graph.NodeID(to)}
	}
	if added > 0 {
		m.AddedEdges = edges[:added:added]
	}
	if removed > 0 {
		m.RemovedEdges = edges[added:]
	}
	return m, int(n), nil
}

// eachRecord validates the records packed back to back in buf (parseRecord)
// and hands each hub and entry payload, aliasing buf, to fn; a nil fn only
// validates.
func eachRecord(buf []byte, fn func(h graph.NodeID, payload []byte) error) error {
	for len(buf) > 0 {
		if len(buf) < perHubOverheadBytes {
			return fmt.Errorf("%w: %d trailing batch bytes are shorter than a record header", ErrBadIndexFormat, len(buf))
		}
		n := perHubOverheadBytes + int64(binary.LittleEndian.Uint32(buf[4:]))
		if n > int64(len(buf)) {
			return fmt.Errorf("%w: record claims %d bytes, %d left in the batch", ErrBadIndexFormat, n, len(buf))
		}
		h, payload, err := parseRecord(buf[:n])
		if err == nil && fn != nil {
			err = fn(h, payload)
		}
		if err != nil {
			return err
		}
		buf = buf[n:]
	}
	return nil
}

// decodeBatch splits a batch frame into its graph mutation and its records,
// validating every record first, so a frame with one bad record is rejected
// before any of it is applied.
func decodeBatch(buf []byte) (GraphMutation, []byte, error) {
	m, n, err := decodeMutation(buf)
	if err == nil {
		err = eachRecord(buf[n:], nil)
	}
	return m, buf[n:], err
}

// UpdateLog is the write-ahead log of a Store: records are staged in memory,
// and a batch becomes one frame, made durable by one fsync, when it commits.
// It is not safe for concurrent use; the Store's mutex serializes access.
type UpdateLog struct {
	log *frame.Log
	// staged holds the encoded records of the batch being built.
	staged        []byte
	stagedRecords int64
	// records counts the hub records in committed batches, what a
	// compaction folds into the base.
	records int64
}

// OpenUpdateLog opens (or creates) an update log that binds no graph, for
// callers that log hub records alone, and replays the records of every
// committed batch through replay, in commit order. It is the Store's log
// format and rules (see openUpdateLog) with an empty graph binding.
func OpenUpdateLog(path string, baseBytes int64, baseHubs int, replay func(h graph.NodeID, payload []byte) error) (*UpdateLog, error) {
	return openUpdateLog(path, logBinding(baseBytes, baseHubs, GraphBinding{}), nil, replay)
}

// openUpdateLog opens (or creates) the update log at path, bound to bind
// (logBinding), and replays every committed batch in commit order: its
// mutation through mutation, then its records through record (either may be
// nil; a kept payload must be copied). The header rules are the layout's; a
// torn tail is truncated. Each batch is validated whole (decodeBatch) before
// any of it replays, and a CRC-valid frame that is not a well-formed batch
// ends the replay like a torn one.
func openUpdateLog(path string, bind []byte, mutation func(GraphMutation) error, record func(h graph.NodeID, payload []byte) error) (*UpdateLog, error) {
	found, err := frame.ReadBinding(frame.OS{}, path, updateLogFormat)
	if err != nil {
		return nil, err
	}
	if found != nil && !bytes.Equal(found[graphBindingAt:], bind[graphBindingAt:]) {
		return nil, fmt.Errorf("%w: %s", ErrGraphMismatch, path)
	}
	if found != nil && !bytes.Equal(found[:graphBindingAt], bind[:graphBindingAt]) {
		if err := rewriteLog(path, bind); err != nil {
			return nil, err
		}
	}
	l := &UpdateLog{}
	l.log, err = frame.Open(frame.OS{}, path, updateLogFormat, bind, func(batch []byte) error {
		m, records, err := decodeBatch(batch)
		if err != nil {
			return frame.ErrTorn
		}
		if mutation != nil {
			if err := mutation(m); err != nil {
				return err
			}
		}
		return eachRecord(records, func(h graph.NodeID, payload []byte) error {
			l.records++
			if record == nil {
				return nil
			}
			return record(h, payload)
		})
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// rewriteLog replaces the log at path with one holding only the mutation of
// each of its committed batches, re-read from the file, bound to bind: the
// records live in the base bind names, the mutations in no base at all. It is
// built in <path>.tmp, fsync'd and renamed over path, and the directory is
// fsync'd, so a crash leaves either the old log or the new one.
func rewriteLog(path string, bind []byte) error {
	tmp := path + ".tmp"
	if err := os.Remove(tmp); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	out, err := frame.Open(frame.OS{}, tmp, updateLogFormat, bind, nil)
	if err != nil {
		return err
	}
	_, err = frame.Scan(frame.OS{}, path, updateLogFormat, func(batch []byte) error {
		_, records, err := decodeBatch(batch)
		if err != nil {
			return frame.ErrTorn
		}
		return out.Append(batch[:len(batch)-len(records)])
	})
	if err == nil {
		err = out.Commit()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return frame.SyncDir(filepath.Dir(path))
}

// AppendEncoded stages payload as the record of h in the batch being built.
// Nothing reaches the file before the batch commits; payload is copied.
func (l *UpdateLog) AppendEncoded(h graph.NodeID, payload []byte) {
	l.staged = appendRecord(l.staged, h, payload)
	l.stagedRecords++
}

// Append encodes ppv and stages it (boundary helper, see encodeVector).
// Staging cannot fail; write errors surface from Commit.
func (l *UpdateLog) Append(h graph.NodeID, ppv sparse.Vector) error {
	l.AppendEncoded(h, encodeVector(ppv))
	return nil
}

// CommitBatch appends m and the staged records as one frame and makes it
// durable: one write, one fsync. The staged records go with the batch either
// way; a failed batch's outcome on disk is unknown.
func (l *UpdateLog) CommitBatch(m GraphMutation) error {
	batch := append(appendMutation(make([]byte, 0, mutationHeaderBytes+len(l.staged)), m), l.staged...)
	records := l.stagedRecords
	l.staged, l.stagedRecords = l.staged[:0], 0
	if err := l.log.Append(batch); err != nil {
		return err
	}
	if err := l.log.Commit(); err != nil {
		return err
	}
	l.records += records
	return nil
}

// Commit commits the staged records as a batch with no graph mutation; with
// nothing staged it does nothing.
func (l *UpdateLog) Commit() error {
	if l.stagedRecords == 0 {
		return nil
	}
	return l.CommitBatch(GraphMutation{})
}

// SizeBytes returns the log file's size in bytes, header included.
func (l *UpdateLog) SizeBytes() int64 { return l.log.Size() }

// Records returns the number of hub records in the log, those staged for the
// next batch included.
func (l *UpdateLog) Records() int64 { return l.records + l.stagedRecords }

// Batches returns the number of committed batches in the log. After a clean
// open this equals the index epoch of the replayed state.
func (l *UpdateLog) Batches() int64 { return l.log.Frames() }

// Close closes the log file. Staged records belong to a batch that never
// committed; they never reached the file, so no half batch can replay.
func (l *UpdateLog) Close() error { return l.log.Close() }

// DurabilityStats summarizes the overlay of rewritten hubs and the update log
// behind it; the serving layer's /v1/stats exposes these.
type DurabilityStats struct {
	// OverlayHubs is the number of hubs whose current prime PPV lives in the
	// in-memory overlay rather than the base file.
	OverlayHubs int `json:"overlay_hubs"`
	// LogBytes sizes the update log file, header and graph mutations
	// included; LogRecords counts the hub records in it.
	LogBytes   int64 `json:"log_bytes"`
	LogRecords int64 `json:"log_records"`
	// LogBatches counts the committed batches: the epoch a replay reaches.
	LogBatches int64 `json:"log_batches"`
	// Compactions counts completed compactions since the store was opened.
	Compactions int64 `json:"compactions"`
}

// CompactionResult reports what one compaction did.
type CompactionResult struct {
	// TotalHubs is the number of hubs in the rewritten index; RewrittenHubs
	// of them took their record from the overlay (i.e. had pending updates).
	TotalHubs     int `json:"total_hubs"`
	RewrittenHubs int `json:"rewritten_hubs"`
	// LogRecordsFolded is how many hub records the rewrite absorbed, and
	// LogBytesFreed how much the update log shrank by.
	LogRecordsFolded int64 `json:"log_records_folded"`
	LogBytesFreed    int64 `json:"log_bytes_freed"`
	// IndexBytes is the size of the rewritten index file.
	IndexBytes int64 `json:"index_bytes"`
	// DurationMS is the wall time of the compaction.
	DurationMS float64 `json:"duration_ms"`
}

package ppvindex

import (
	"encoding/binary"
	"fmt"

	"fastppv/internal/frame"
	"fastppv/internal/graph"
)

// Graph-mutation log layout: a framed log (internal/frame) whose header is
//
//	magic    uint32 'F','P','G','1'
//	version  uint32 (currently 1)
//	nodes    uint64 node count of the base graph the mutations apply to
//	edges    uint64 edge count of that base graph
//	flags    uint32 bit 0: base graph is directed
//	reserved uint32
//
// and whose frame payload is one update batch:
//
//	numNodes     uint32  GraphMutation.NumNodes (0 = unchanged)
//	addedCount   uint32
//	removedCount uint32
//	addedCount   x { from uint32, to uint32 }
//	removedCount x { from uint32, to uint32 }
//
// The log is the durability side of incremental *graph* maintenance, the
// counterpart of the update log's durable PPVs: the update log persists the
// recomputed hub records of each batch, this log persists the batch itself.
// Without it a restart reloads the original graph file, so every answer that
// touches the graph on the fly (non-hub roots, freshly recomputed hubs'
// neighbours) silently reverts while the index still serves the updated PPVs.
// One frame is appended per committed GraphUpdate, in ApplyUpdate order, and
// replaying the frames on open reproduces the exact graph — and, because each
// frame is one epoch bump, the exact index epoch — the process served before
// it stopped.
//
// The binding is the base graph the log was started against (node and edge
// counts plus directedness, the cheap identity available without hashing the
// whole edge set): a log found next to a different graph is reset instead of
// replayed, so swapping the -graph file does not replay foreign mutations
// onto it. Unlike the update log, this log is never folded away by index
// compaction — the graph file on disk stays the original, so the mutations
// remain the only durable record of the current graph.
const (
	graphLogMagic       = uint32('F') | uint32('P')<<8 | uint32('G')<<16 | uint32('1')<<24
	graphLogVersion     = 1
	graphLogHeaderBytes = 32
	graphEdgeBytes      = 8
	graphFrameMinBytes  = 12 // numNodes + addedCount + removedCount
)

var graphLogFormat = frame.Format{
	Name: "graph log", Magic: graphLogMagic, Version: graphLogVersion,
	HeaderBytes: graphLogHeaderBytes, BadHeader: ErrBadIndexFormat,
}

// GraphMutation is one logged batch of graph changes, mirroring
// core.GraphUpdate without importing it (core depends on this package).
type GraphMutation struct {
	AddedEdges   []graph.Edge
	RemovedEdges []graph.Edge
	NumNodes     int
}

// GraphLogBinding identifies the base graph a mutation log belongs to.
type GraphLogBinding struct {
	Nodes    int
	Edges    int
	Directed bool
}

// encode serializes the binding as the header bytes after magic and version.
func (b GraphLogBinding) encode() []byte {
	buf := make([]byte, 20)
	binary.LittleEndian.PutUint64(buf[0:], uint64(b.Nodes))
	binary.LittleEndian.PutUint64(buf[8:], uint64(b.Edges))
	if b.Directed {
		buf[16] = 1
	}
	return buf
}

// GraphLog is an append-only, CRC-framed log of graph-update batches kept
// alongside a disk index. Append buffers frames; Commit flushes and fsyncs
// them. Like UpdateLog it is not safe for concurrent use; the disk store's
// mutex serializes access.
type GraphLog struct{ log *frame.Log }

// OpenGraphLog opens (or creates) the graph-mutation log at path and replays
// every valid frame through replay, in append order. bind identifies the base
// graph being served; a log bound to a different graph is reset to empty
// instead of replayed. A torn tail is truncated; a foreign or corrupt header
// fails with ErrBadIndexFormat. The returned log is positioned for appending.
func OpenGraphLog(path string, bind GraphLogBinding, replay func(GraphMutation) error) (*GraphLog, error) {
	log, err := frame.Open(frame.OS{}, path, graphLogFormat, bind.encode(), func(payload []byte) error {
		m, err := decodeMutation(payload)
		if err != nil {
			return frame.ErrTorn
		}
		if replay == nil {
			return nil
		}
		return replay(m)
	})
	if err != nil {
		return nil, err
	}
	return &GraphLog{log}, nil
}

// encodeMutation serializes one batch as a frame payload.
func encodeMutation(m GraphMutation) []byte {
	buf := make([]byte, graphFrameMinBytes+(len(m.AddedEdges)+len(m.RemovedEdges))*graphEdgeBytes)
	binary.LittleEndian.PutUint32(buf[0:], uint32(m.NumNodes))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(m.AddedEdges)))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(m.RemovedEdges)))
	at := graphFrameMinBytes
	for _, lst := range [2][]graph.Edge{m.AddedEdges, m.RemovedEdges} {
		for _, ed := range lst {
			binary.LittleEndian.PutUint32(buf[at:], uint32(ed.From))
			binary.LittleEndian.PutUint32(buf[at+4:], uint32(ed.To))
			at += graphEdgeBytes
		}
	}
	return buf
}

// decodeMutation parses a frame payload produced by encodeMutation. The
// declared edge counts must exactly cover the buffer.
func decodeMutation(buf []byte) (GraphMutation, error) {
	var m GraphMutation
	if len(buf) < graphFrameMinBytes {
		return m, fmt.Errorf("%w: graph mutation payload of %d bytes is shorter than its header", ErrBadIndexFormat, len(buf))
	}
	m.NumNodes = int(binary.LittleEndian.Uint32(buf[0:]))
	added := int(binary.LittleEndian.Uint32(buf[4:]))
	removed := int(binary.LittleEndian.Uint32(buf[8:]))
	if added < 0 || removed < 0 || graphFrameMinBytes+(added+removed)*graphEdgeBytes != len(buf) {
		return m, fmt.Errorf("%w: graph mutation claims %d+%d edges in a %d-byte payload", ErrBadIndexFormat, added, removed, len(buf))
	}
	decode := func(n int, at int) ([]graph.Edge, int) {
		if n == 0 {
			return nil, at
		}
		out := make([]graph.Edge, n)
		for i := range out {
			out[i] = graph.Edge{
				From: graph.NodeID(binary.LittleEndian.Uint32(buf[at:])),
				To:   graph.NodeID(binary.LittleEndian.Uint32(buf[at+4:])),
			}
			at += graphEdgeBytes
		}
		return out, at
	}
	at := graphFrameMinBytes
	m.AddedEdges, at = decode(added, at)
	m.RemovedEdges, _ = decode(removed, at)
	return m, nil
}

// Append buffers one mutation frame. It does not hit the disk until Commit.
func (l *GraphLog) Append(m GraphMutation) error { return l.log.Append(encodeMutation(m)) }

// Commit flushes every appended frame and fsyncs the file: one durable batch
// per graph update.
func (l *GraphLog) Commit() error { return l.log.Commit() }

// SizeBytes returns the log size in bytes, including the header and any
// still-buffered frames.
func (l *GraphLog) SizeBytes() int64 { return l.log.Size() }

// Records returns the number of frames in the log, including buffered ones.
// After a clean open this equals the index epoch of the replayed state.
func (l *GraphLog) Records() int64 { return l.log.Frames() }

// Close discards any frames appended since the last Commit and closes the log
// file. The discard matters: frames still buffered at Close belong to an
// update batch whose commit never completed (its failure is why the store is
// shutting down), and flushing them would hand the restarted replica a graph
// — and an epoch — whose PPV half was never made durable. That is the one
// mismatch direction the commit order exists to prevent (a replica claiming a
// newer epoch than its index), so the tail is rolled back to the last
// committed frame instead.
func (l *GraphLog) Close() error { return l.log.Close() }

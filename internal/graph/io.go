package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Edge-list text format:
//
//	# comment lines start with '#'
//	# the first non-comment line may be a header: "nodes <n> directed|undirected"
//	<from> <to>
//
// Node identifiers are non-negative integers. Without a header the node count
// is inferred as max id + 1 and the graph is treated as directed.

// WriteEdgeList writes g in the edge-list text format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	kind := "undirected"
	if g.Directed() {
		kind = "directed"
	}
	if _, err := fmt.Fprintf(bw, "nodes %d %s\n", g.NumNodes(), kind); err != nil {
		return err
	}
	var writeErr error
	seen := make(map[Edge]struct{})
	g.Edges(func(e Edge) bool {
		if !g.Directed() {
			key := e
			if key.From > key.To {
				key.From, key.To = key.To, key.From
			}
			if _, ok := seen[key]; ok {
				return true
			}
			seen[key] = struct{}{}
		}
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.From, e.To); err != nil {
			writeErr = err
			return false
		}
		return true
	})
	if writeErr != nil {
		return writeErr
	}
	return bw.Flush()
}

// ReadEdgeList parses the edge-list text format produced by WriteEdgeList. It
// also accepts headerless files (e.g. SNAP-style dumps) which are read as
// directed graphs.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)

	directed := true
	declaredNodes := -1
	var edges []Edge
	maxID := NodeID(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "nodes" {
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: malformed header %q", lineNo, line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", lineNo, fields[1])
			}
			declaredNodes = n
			switch fields[2] {
			case "directed":
				directed = true
			case "undirected":
				directed = false
			default:
				return nil, fmt.Errorf("graph: line %d: unknown graph kind %q", lineNo, fields[2])
			}
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected \"from to\", got %q", lineNo, line)
		}
		from, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q", lineNo, fields[0])
		}
		to, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q", lineNo, fields[1])
		}
		if from < 0 || to < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", lineNo)
		}
		e := Edge{From: NodeID(from), To: NodeID(to)}
		if e.From > maxID {
			maxID = e.From
		}
		if e.To > maxID {
			maxID = e.To
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	numNodes := int(maxID) + 1
	if declaredNodes >= 0 {
		if declaredNodes < numNodes {
			return nil, fmt.Errorf("graph: header declares %d nodes but edge references node %d", declaredNodes, maxID)
		}
		numNodes = declaredNodes
	}
	return FromEdges(numNodes, directed, edges)
}

// LoadEdgeListFile reads an edge-list file from disk.
func LoadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// SaveEdgeListFile writes g to an edge-list file on disk.
func SaveEdgeListFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Binary format (little endian):
//
//	magic   uint32  'F','P','G','1'
//	flags   uint32  bit0 = directed, bit1 = has labels
//	nodes   uint64
//	arcs    uint64
//	offsets [nodes+1]uint64
//	targets [arcs]uint32
//	labels  (if bit1) for each node: uint32 length + bytes
const (
	binaryMagic   = uint32('F') | uint32('P')<<8 | uint32('G')<<16 | uint32('1')<<24
	flagDirected  = 1 << 0
	flagHasLabels = 1 << 1
)

// ErrBadBinaryFormat reports a corrupt or foreign binary graph file.
var ErrBadBinaryFormat = errors.New("graph: bad binary format")

// WriteBinary writes g in the compact binary format. It is the preferred
// on-disk representation for the disk-based cluster files since it round-trips
// the CSR layout directly.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var flags uint32
	if g.directed {
		flags |= flagDirected
	}
	if g.HasLabels() {
		flags |= flagHasLabels
	}
	header := []uint64{uint64(binaryMagic), uint64(flags), uint64(g.NumNodes()), uint64(len(g.outTargets))}
	for i, v := range header {
		if i < 2 {
			if err := binary.Write(bw, binary.LittleEndian, uint32(v)); err != nil {
				return err
			}
			continue
		}
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, off := range g.outOffsets {
		if err := binary.Write(bw, binary.LittleEndian, uint64(off)); err != nil {
			return err
		}
	}
	for _, t := range g.outTargets {
		if err := binary.Write(bw, binary.LittleEndian, uint32(t)); err != nil {
			return err
		}
	}
	if g.HasLabels() {
		for _, l := range g.labels {
			if err := binary.Write(bw, binary.LittleEndian, uint32(len(l))); err != nil {
				return err
			}
			if _, err := bw.WriteString(l); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary format produced by WriteBinary and validates
// the resulting graph. The header is not trusted: a node count past
// math.MaxInt32 or an arc count past maxArcs fails with ErrBadBinaryFormat,
// and every array grows only as its data arrives, so a forged count costs no
// more memory than the bytes the file actually holds. A file that ends early
// fails with ErrBadBinaryFormat too.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var word [8]byte
	read := func(n int) ([]byte, error) {
		if _, err := io.ReadFull(br, word[:n]); err != nil {
			return nil, truncated(err)
		}
		return word[:n], nil
	}
	b, err := read(4)
	if err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(b) != binaryMagic {
		return nil, ErrBadBinaryFormat
	}
	if b, err = read(4); err != nil {
		return nil, err
	}
	flags := binary.LittleEndian.Uint32(b)
	if b, err = read(8); err != nil {
		return nil, err
	}
	nodes := binary.LittleEndian.Uint64(b)
	if b, err = read(8); err != nil {
		return nil, err
	}
	arcs := binary.LittleEndian.Uint64(b)
	if nodes > math.MaxInt32 || arcs > maxArcs {
		return nil, fmt.Errorf("%w: header declares %d nodes and %d arcs, past the limits of %d and %d",
			ErrBadBinaryFormat, nodes, arcs, math.MaxInt32, uint64(maxArcs))
	}
	offsets := make([]uint32, 0, min(nodes+1, readChunk))
	for i := uint64(0); i <= nodes; i++ {
		if b, err = read(8); err != nil {
			return nil, err
		}
		off := binary.LittleEndian.Uint64(b)
		if off > arcs {
			return nil, fmt.Errorf("%w: offset %d of node %d past the %d arcs", ErrBadBinaryFormat, off, i, arcs)
		}
		offsets = append(offsets, uint32(off))
	}
	targets := make([]NodeID, 0, min(arcs, readChunk))
	inDeg := make([]int32, nodes) // the nodes+1 offsets before it have arrived
	for i := uint64(0); i < arcs; i++ {
		if b, err = read(4); err != nil {
			return nil, err
		}
		t := binary.LittleEndian.Uint32(b)
		if uint64(t) >= nodes {
			return nil, fmt.Errorf("%w: target %d out of range", ErrBadBinaryFormat, t)
		}
		targets = append(targets, NodeID(t))
		inDeg[t]++
	}
	var labels []string
	if flags&flagHasLabels != 0 {
		labels = make([]string, 0, min(nodes, readChunk))
		for i := uint64(0); i < nodes; i++ {
			if b, err = read(4); err != nil {
				return nil, err
			}
			l, err := readString(br, binary.LittleEndian.Uint32(b))
			if err != nil {
				return nil, err
			}
			labels = append(labels, l)
		}
	}
	g := &Graph{
		directed:   flags&flagDirected != 0,
		outOffsets: offsets,
		outTargets: targets,
		inDegree:   inDeg,
		labels:     labels,
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBinaryFormat, err)
	}
	return g, nil
}

// readChunk caps what ReadBinary allocates for an array before its data
// arrives; past it the array grows by append.
const readChunk = 1 << 16

// readString reads an n-byte label. Up to readChunk bytes are read into one
// buffer; a longer label is read as it arrives.
func readString(r io.Reader, n uint32) (string, error) {
	if n <= readChunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", truncated(err)
		}
		return string(buf), nil
	}
	buf, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return "", err
	}
	if len(buf) < int(n) {
		return "", truncated(io.ErrUnexpectedEOF)
	}
	return string(buf), nil
}

// truncated reports a file that ends before its header says it should as
// ErrBadBinaryFormat; other read errors pass through.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: file ends early", ErrBadBinaryFormat)
	}
	return err
}

// SaveBinaryFile writes g to a binary graph file on disk.
func SaveBinaryFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBinaryFile reads a binary graph file from disk.
func LoadBinaryFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

package ppvindex

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"fastppv/internal/frame"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// Disk layout (little endian):
//
//	records (one per hub, written first, streamed in Put order):
//	  hub    uint32
//	  count  uint32
//	  count * { node uint32, score float64 }
//	directory (hubs entries, appended after the last record):
//	  hub    uint32
//	  offset uint64   byte offset of the hub's record from the file start
//	footer (the final 16 bytes of the file):
//	  magic    uint32 'F','P','I','1'
//	  hubs     uint32
//	  dirStart uint64  byte offset of the directory
//
// Records come first so that DiskWriter can stream an index larger than RAM
// in one pass, buffering only the 12-byte-per-hub directory; Close appends
// the directory and the footer. OpenDisk reads the footer, then the
// directory, and keeps the directory in memory; each Get performs a single
// positioned read of the record, which models the "one random access to the
// disk" per fetched hub of Sect. 6.3.1.
const diskMagic = uint32('F') | uint32('P')<<8 | uint32('I')<<16 | uint32('1')<<24

// ErrBadIndexFormat reports a corrupt or foreign index file.
var ErrBadIndexFormat = errors.New("ppvindex: bad index file format")

// ErrIndexClosed reports a record read against a DiskIndex whose Close has
// run. Readers that hold a retired index (one swapped out by a compaction)
// see it and retry against the current one.
var ErrIndexClosed = errors.New("ppvindex: disk index is closed")

// DiskWriter streams prime PPVs into an index file. It buffers only the
// directory in memory, so precomputing indexes much larger than RAM is
// possible. Records are written with PutEncoded and the writer must be closed
// to finalize the directory.
//
// The writer streams into <path>.tmp and Close atomically renames the
// finished file into place, so a crash mid-precompute can never leave a
// partial (or partially overwritten) file at the final path: readers either
// see the complete old index, the complete new one, or no file at all.
type DiskWriter struct {
	f       *os.File
	w       *bufio.Writer
	path    string // final path, populated by the Close rename
	tmpPath string // where records actually stream
	offset  uint64
	entries []dirEntry
	seen    map[graph.NodeID]struct{}
	rec     []byte // the record being written, reused from Put to Put
	closed  bool
}

type dirEntry struct {
	hub    graph.NodeID
	offset uint64
}

// CreateDisk creates an index file for writing. Records stream into
// <path>.tmp; the file appears at path only when Close succeeds.
func CreateDisk(path string) (*DiskWriter, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	return &DiskWriter{
		f:       f,
		w:       bufio.NewWriterSize(f, 1<<20),
		path:    path,
		tmpPath: tmp,
		seen:    make(map[graph.NodeID]struct{}),
	}, nil
}

// appendRecord appends one hub record in the shared binary layout (hub, count,
// payload) to dst. The disk index records and the update-log frames use the
// same encoding; payload is stored as handed in.
func appendRecord(dst []byte, h graph.NodeID, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)/entryBytes))
	return append(dst, payload...)
}

// parseRecord validates a record that arrives from outside the process (an
// update-log frame) and returns its hub and entry payload, which aliases buf.
// The count must exactly cover the buffer and node ids must strictly ascend:
// views are folded and binary-searched as they are, so this is the gate.
func parseRecord(buf []byte) (graph.NodeID, []byte, error) {
	if len(buf) < perHubOverheadBytes {
		return 0, nil, fmt.Errorf("%w: record payload of %d bytes is shorter than its header", ErrBadIndexFormat, len(buf))
	}
	h := graph.NodeID(binary.LittleEndian.Uint32(buf[0:]))
	count := int64(binary.LittleEndian.Uint32(buf[4:]))
	payload := buf[perHubOverheadBytes:]
	if count*entryBytes != int64(len(payload)) {
		return 0, nil, fmt.Errorf("%w: record of hub %d claims %d entries in a %d-byte payload", ErrBadIndexFormat, h, count, len(buf))
	}
	for i := 1; i < int(count); i++ {
		prev, _ := sparse.EncodedEntryAt(payload, i-1)
		if node, _ := sparse.EncodedEntryAt(payload, i); node <= prev {
			return 0, nil, fmt.Errorf("%w: record of hub %d is not in ascending node order (entry %d: node %d after %d)", ErrBadIndexFormat, h, i, node, prev)
		}
	}
	return h, payload, nil
}

// PutEncoded appends the record of hub h to the index file; payload is copied
// into the write buffer, not retained. A hub may be written only once: a duplicate would produce a file whose
// directory OpenDisk rejects as corrupt, so the mistake is reported here, at
// write time, instead.
func (d *DiskWriter) PutEncoded(h graph.NodeID, payload []byte) error {
	if d.closed {
		return errors.New("ppvindex: Put on closed DiskWriter")
	}
	if _, dup := d.seen[h]; dup {
		return fmt.Errorf("ppvindex: duplicate Put of hub %d (each hub may be written once)", h)
	}
	d.seen[h] = struct{}{}
	d.entries = append(d.entries, dirEntry{hub: h, offset: d.offset})

	d.rec = appendRecord(d.rec[:0], h, payload)
	if _, err := d.w.Write(d.rec); err != nil {
		return err
	}
	d.offset += uint64(len(d.rec))
	return nil
}

// Put encodes ppv and appends it (boundary helper, see encodeVector).
func (d *DiskWriter) Put(h graph.NodeID, ppv sparse.Vector) error {
	return d.PutEncoded(h, encodeVector(ppv))
}

// Close finalizes the index: it flushes the records, appends the directory
// and the footer, fsyncs, and atomically renames <path>.tmp into place. On
// error the temporary file is removed, so no partial index is ever published.
// The writer cannot be used afterwards.
func (d *DiskWriter) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	fail := func(err error) error {
		d.f.Close()
		os.Remove(d.tmpPath)
		return err
	}
	if err := d.w.Flush(); err != nil {
		return fail(err)
	}
	// Records were written from the start of the file; now append the
	// directory and finish with a footer pointing at it.
	dirStart := d.offset
	dirBuf := make([]byte, len(d.entries)*12)
	for i, e := range d.entries {
		binary.LittleEndian.PutUint32(dirBuf[i*12:], uint32(e.hub))
		binary.LittleEndian.PutUint64(dirBuf[i*12+4:], e.offset)
	}
	if _, err := d.f.Write(dirBuf); err != nil {
		return fail(err)
	}
	footer := make([]byte, 16)
	binary.LittleEndian.PutUint32(footer[0:], diskMagic)
	binary.LittleEndian.PutUint32(footer[4:], uint32(len(d.entries)))
	binary.LittleEndian.PutUint64(footer[8:], dirStart)
	if _, err := d.f.Write(footer); err != nil {
		return fail(err)
	}
	if err := d.f.Sync(); err != nil {
		return fail(err)
	}
	if err := d.f.Close(); err != nil {
		os.Remove(d.tmpPath)
		return err
	}
	if err := os.Rename(d.tmpPath, d.path); err != nil {
		os.Remove(d.tmpPath)
		return err
	}
	// Fsync the parent directory so the rename itself is durable before the
	// caller takes any dependent step (compaction resets the update log right
	// after this; a power loss must not surface the log reset without the
	// rename, or the folded updates would be lost with the old base).
	return frame.SyncDir(filepath.Dir(d.path))
}

// Abort discards the writer without publishing anything: the temporary file
// is removed and the final path is left untouched. Calling Abort after a
// successful Close is a no-op.
func (d *DiskWriter) Abort() error {
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.f.Close()
	if rmErr := os.Remove(d.tmpPath); err == nil {
		err = rmErr
	}
	return err
}

// DiskIndex is a read-only disk-backed PPV index. It is safe for concurrent
// use: the directory is immutable after OpenDisk and reads use positioned I/O
// on a shared file descriptor, or direct slicing of the mapping in mmap mode.
type DiskIndex struct {
	f         *os.File
	directory map[graph.NodeID]uint64
	hubs      []graph.NodeID
	size      int64
	// data is the read-only memory mapping of the whole file when the index
	// was opened with DiskOptions.Mmap and the platform supports it; nil in
	// pread mode. With a mapping, GetView returns record views aliasing it
	// with zero copies.
	data []byte
	// recordsEnd is the first byte past the record region (the directory
	// start); every record, header and payload, must fit below it.
	recordsEnd int64
	// reads counts the number of record fetches, modelling random disk
	// accesses during online query processing. Atomic: Get is the hot path
	// of every cache-missing hub expansion and must not serialize on a lock.
	reads atomic.Int64
	// closed flips when Close runs; inflight counts record reads (and
	// outstanding mmap views) in progress, which Close drains before
	// releasing the descriptor and mapping, so no positioned read or view
	// dereference ever races the close. Both are only touched on the
	// record-read path, never on directory-only lookups.
	closed   atomic.Bool
	inflight atomic.Int64
	// release is unpin bound once at open: handing a method value to every
	// mmap view would allocate a fresh closure per GetView on the hot path.
	release func()
}

// DiskOptions configures how an index file is opened for reading.
type DiskOptions struct {
	// Mmap memory-maps the index file and serves records as zero-copy views
	// over the mapping. When the platform or the mapping call does not
	// cooperate, the index silently falls back to positioned reads; check
	// MmapActive to see which mode is live.
	Mmap bool
}

// OpenDisk opens an index file written by DiskWriter in positioned-read mode.
func OpenDisk(path string) (*DiskIndex, error) {
	return OpenDiskWithOptions(path, DiskOptions{})
}

// OpenDiskWithOptions opens an index file written by DiskWriter.
func OpenDiskWithOptions(path string, opts DiskOptions) (*DiskIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < 16 {
		f.Close()
		return nil, ErrBadIndexFormat
	}
	footer := make([]byte, 16)
	if _, err := f.ReadAt(footer, st.Size()-16); err != nil {
		f.Close()
		return nil, err
	}
	if binary.LittleEndian.Uint32(footer[0:]) != diskMagic {
		f.Close()
		return nil, ErrBadIndexFormat
	}
	hubCount := int(binary.LittleEndian.Uint32(footer[4:]))
	dirStart := int64(binary.LittleEndian.Uint64(footer[8:]))
	// Bounds-check with subtraction, not addition: dirStart comes from the
	// file and dirStart+hubCount*12 could wrap past MaxInt64, slipping a
	// crafted footer past the check and into a huge directory allocation.
	if dirStart < 0 || dirStart > st.Size()-16 || int64(hubCount)*12 > st.Size()-16-dirStart {
		f.Close()
		return nil, ErrBadIndexFormat
	}
	dirBuf := make([]byte, hubCount*12)
	if _, err := f.ReadAt(dirBuf, dirStart); err != nil {
		f.Close()
		return nil, err
	}
	idx := &DiskIndex{
		f:          f,
		directory:  make(map[graph.NodeID]uint64, hubCount),
		hubs:       make([]graph.NodeID, 0, hubCount),
		size:       st.Size(),
		recordsEnd: dirStart,
	}
	for i := 0; i < hubCount; i++ {
		h := graph.NodeID(binary.LittleEndian.Uint32(dirBuf[i*12:]))
		off := binary.LittleEndian.Uint64(dirBuf[i*12+4:])
		// Every record header must lie fully inside the record region; an
		// offset pointing past it (or wrapping negative) means the directory
		// is corrupt, and accepting it would turn Get into reads of the
		// directory/footer bytes reinterpreted as record data.
		if int64(off) < 0 || int64(off)+8 > dirStart {
			f.Close()
			return nil, fmt.Errorf("%w: directory offset %d of hub %d outside record region [0,%d)", ErrBadIndexFormat, off, h, dirStart)
		}
		if _, dup := idx.directory[h]; dup {
			f.Close()
			return nil, fmt.Errorf("%w: duplicate directory entry for hub %d", ErrBadIndexFormat, h)
		}
		idx.directory[h] = off
		idx.hubs = append(idx.hubs, h)
	}
	sort.Slice(idx.hubs, func(i, j int) bool { return idx.hubs[i] < idx.hubs[j] })
	if opts.Mmap {
		// Graceful fallback: a platform without mmap support (or a mapping
		// failure, e.g. vm limits) leaves a fully functional pread index.
		if data, merr := mmapFile(f, st.Size()); merr == nil {
			idx.data = data
			idx.release = idx.unpin
		}
	}
	return idx, nil
}

// MmapActive reports whether the index serves records from a memory mapping
// (false when opened without DiskOptions.Mmap or after mmap fallback).
func (d *DiskIndex) MmapActive() bool { return d.data != nil }

// Close releases the underlying file (and mapping, in mmap mode) after
// draining in-flight record reads and outstanding views: a Get or GetView
// that raised inflight before closed flipped completes against the still-open
// descriptor; one that observes closed afterwards backs off with
// ErrIndexClosed. Compaction relies on this drain to remap safely: the
// retired generation's mapping is only torn down once every view into it has
// been released. Closing twice is a no-op.
func (d *DiskIndex) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	for d.inflight.Load() > 0 {
		time.Sleep(50 * time.Microsecond)
	}
	if d.data != nil {
		data := d.data
		d.data = nil
		if err := munmapFile(data); err != nil {
			d.f.Close()
			return err
		}
	}
	return d.f.Close()
}

// pin registers a record read (or a handed-out mmap view) against Close's
// drain. It fails once the index is closed; a successful pin must be paired
// with exactly one unpin.
func (d *DiskIndex) pin() bool {
	d.inflight.Add(1)
	if d.closed.Load() {
		d.inflight.Add(-1)
		return false
	}
	return true
}

func (d *DiskIndex) unpin() { d.inflight.Add(-1) }

// recordBounds validates the directory offset's record header for hub h and
// returns the payload offset and length. checkedHeader is the 8-byte header
// already read from offset off.
func (d *DiskIndex) recordBounds(h graph.NodeID, off uint64, header []byte) (int64, int, error) {
	if len(header) < 8 {
		return 0, 0, fmt.Errorf("%w: truncated record header for hub %d at offset %d", ErrBadIndexFormat, h, off)
	}
	storedHub := graph.NodeID(binary.LittleEndian.Uint32(header[0:]))
	count := int(binary.LittleEndian.Uint32(header[4:]))
	if storedHub != h {
		return 0, 0, fmt.Errorf("%w: record at offset %d is for hub %d, expected %d", ErrBadIndexFormat, off, storedHub, h)
	}
	if count < 0 || int64(off)+8+int64(count)*entryBytes > d.recordsEnd {
		return 0, 0, fmt.Errorf("%w: record of hub %d claims %d entries, overrunning the record region", ErrBadIndexFormat, h, count)
	}
	return int64(off) + 8, count * entryBytes, nil
}

// GetView returns a zero-copy view of the stored record of h. In mmap mode
// the view aliases the mapping and pins this index generation until Release;
// in pread mode the entries are read into a freshly owned buffer (callers
// that want pooling across reads should layer a BlockCache on top, which
// retains these buffers). A record that does not fit inside the file's
// record region — a truncated file, or a corrupt count that would drive a
// huge allocation — fails with ErrBadIndexFormat rather than yielding an
// out-of-bounds or zero-filled view.
func (d *DiskIndex) GetView(h graph.NodeID) (HubRecordView, bool, error) {
	off, ok := d.directory[h]
	if !ok {
		return HubRecordView{}, false, nil
	}
	if !d.pin() {
		return HubRecordView{}, false, ErrIndexClosed
	}
	if d.data != nil {
		payloadOff, payloadLen, err := d.recordBounds(h, off, d.data[off:off+8])
		if err != nil {
			d.unpin()
			return HubRecordView{}, false, err
		}
		d.reads.Add(1)
		// The pin transfers to the view; Release returns it.
		return NewHubRecordView(h, d.data[payloadOff:payloadOff+int64(payloadLen)], d.release), true, nil
	}
	defer d.unpin()
	var header [8]byte
	if _, err := d.f.ReadAt(header[:], int64(off)); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return HubRecordView{}, false, fmt.Errorf("%w: truncated record header of hub %d at offset %d", ErrBadIndexFormat, h, off)
		}
		return HubRecordView{}, false, err
	}
	payloadOff, payloadLen, err := d.recordBounds(h, off, header[:])
	if err != nil {
		return HubRecordView{}, false, err
	}
	buf := make([]byte, payloadLen)
	if _, err := d.f.ReadAt(buf, payloadOff); err != nil {
		// ReadAt returns a non-nil error on every short read; after the
		// bounds check above, any EOF here means the file shrank under us.
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return HubRecordView{}, false, fmt.Errorf("%w: truncated record of hub %d at offset %d", ErrBadIndexFormat, h, off)
		}
		return HubRecordView{}, false, err
	}
	d.reads.Add(1)
	return NewHubRecordView(h, buf, nil), true, nil
}

// Get reads the record of h and decodes it into a fresh map.
func (d *DiskIndex) Get(h graph.NodeID) (sparse.Vector, bool, error) { return VectorOf(d, h) }

// Has reports whether h is indexed.
func (d *DiskIndex) Has(h graph.NodeID) bool {
	_, ok := d.directory[h]
	return ok
}

// Hubs returns the indexed hubs in ascending order.
func (d *DiskIndex) Hubs() []graph.NodeID { return d.hubs }

// Len returns the number of indexed hubs.
func (d *DiskIndex) Len() int { return len(d.hubs) }

// SizeBytes returns the index file size.
func (d *DiskIndex) SizeBytes() int64 { return d.size }

// Reads returns the number of record fetches performed so far.
func (d *DiskIndex) Reads() int64 { return d.reads.Load() }

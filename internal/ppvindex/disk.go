package ppvindex

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"

	"fastppv/internal/frame"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// Disk layout (little endian):
//
//	records (one per hub, written first, streamed in Put order):
//	  hub      uint32
//	  length   uint32  payload bytes
//	  payload  entries in ascending node order (sparse.AppendEncoded):
//	           { gap uvarint (node − previous node − 1), score uint16 code }
//	directory (hubs entries in ascending hub order, after the last record):
//	  hub    uint32
//	  offset uint64   byte offset of the hub's record from the file start
//	footer (the final 16 bytes of the file):
//	  magic    uint32 'F','P','I','4'
//	  hubs     uint32
//	  dirStart uint64  byte offset of the directory
//
// Records come first so that DiskWriter can stream an index larger than RAM
// in one pass, buffering only the 12-byte-per-hub directory; Close appends
// the directory and the footer. OpenDisk maps the file read-only (on a
// platform without mmap it reads it into one heap buffer), closes the
// descriptor and leaves the unmap to the GC: a cleanup on the DiskIndex, run
// once neither a state nor a view reaches it. It reads the footer, then the
// directory, checks every record once in one sequential pass (checkRecords),
// and keeps the directory's hubs (4 bytes a hub) to bisect. Each GetView is then one read of the mapping at
// the offset in the record's directory entry, which models the "one random
// access to the disk" per fetched hub of Sect. 6.3.1. Close sorts the
// directory by hub, whatever order the records came in, and a directory out
// of hub order is refused as corrupt. Precompute and compaction write records
// in ascending hub order too, so the file is byte-reproducible. The same
// layout in one heap buffer (openImage) is the base of a MemIndex.
//
// The store never rewrites a published file in place: it writes <path>.tmp
// and renames it, so an open mapping keeps the old inode. A file truncated
// under an open index is outside that contract: reads of the lost tail see
// zeros in the last page or fault past it.
//
// Older layouts are not migrated: opening one fails with ErrBadIndexFormat,
// naming it, and leaves the file as it is. FPI1 stored 12-byte (node uint32,
// score float64) entries; FPI2 stored 8-byte (node uint32, score float32)
// entries behind an entry count; FPI3 stored uvarint gaps beside float32
// scores.
const diskMagic = uint32('F') | uint32('P')<<8 | uint32('I')<<16 | uint32('4')<<24

// oldLayouts names the refused layouts by magic.
var oldLayouts = map[uint32]string{
	uint32('F') | uint32('P')<<8 | uint32('I')<<16 | uint32('1')<<24: "FPI1 index (12-byte entries)",
	uint32('F') | uint32('P')<<8 | uint32('I')<<16 | uint32('2')<<24: "FPI2 index (fixed 8-byte entries)",
	uint32('F') | uint32('P')<<8 | uint32('I')<<16 | uint32('3')<<24: "FPI3 index (float32 scores)",
}

// ErrBadIndexFormat reports a corrupt or foreign index file.
var ErrBadIndexFormat = errors.New("ppvindex: bad index file format")

// ErrIndexClosed reports a record read against a DiskIndex whose Close has
// run. A Store never closes the generations it serves: its own closed flag
// answers its reads.
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

// dirEntryBytes and footerBytes are the sizes of a directory entry and of
// the footer.
const (
	dirEntryBytes = 12
	footerBytes   = 16
)

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

// appendRecord appends one hub record in the shared binary layout (hub,
// payload length, payload) to dst. The disk index records and the update-log
// frames use the same encoding; payload is stored as handed in.
func appendRecord(dst []byte, h graph.NodeID, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// parseRecord validates a record that arrives from outside the process (an
// update-log frame) and returns its hub and entry payload, which aliases buf.
// The header's length must exactly cover the buffer, and the payload must
// pass checkPayload.
func parseRecord(buf []byte) (graph.NodeID, []byte, error) {
	if len(buf) < perHubOverheadBytes {
		return 0, nil, fmt.Errorf("%w: record payload of %d bytes is shorter than its header", ErrBadIndexFormat, len(buf))
	}
	h := graph.NodeID(binary.LittleEndian.Uint32(buf[0:]))
	if n := perHubOverheadBytes + int64(binary.LittleEndian.Uint32(buf[4:])); n != int64(len(buf)) {
		return 0, nil, fmt.Errorf("%w: record of hub %d claims %d bytes in a %d-byte buffer", ErrBadIndexFormat, h, n, len(buf))
	}
	payload := buf[perHubOverheadBytes:]
	if err := checkPayload(h, payload); err != nil {
		return 0, nil, err
	}
	return h, payload, nil
}

// checkPayload is the gate every record read from a file passes once (an
// update-log frame on replay, a disk index's records when it opens): the
// payload must decode whole (every gap well formed, every id below 2³¹, no
// bytes left over; the gaps make ids strictly ascend) and no score may exceed
// 1, the largest score a code stands for. A code decodes to a finite positive
// score, and codes sort like their scores, so that one comparison is the
// whole score check.
func checkPayload(h graph.NodeID, payload []byte) error {
	r := sparse.NewEncodedReader(payload)
	i := 0
	for node, score, ok := r.Next(); ok; node, score, ok = r.Next() {
		if score > 1 {
			return fmt.Errorf("%w: record of hub %d holds score %v at node %d (entry %d)", ErrBadIndexFormat, h, score, node, i)
		}
		i++
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: record of hub %d, entry %d: %w", ErrBadIndexFormat, h, i, err)
	}
	return nil
}

// PutEncoded appends the record of hub h to the index file; payload is copied
// into the write buffer, not retained. A hub may be written only once: a
// duplicate would produce a file whose directory OpenDisk rejects as corrupt,
// so the mistake is reported here, at write time, instead.
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
	// Records were written from the start of the file; the directory, in hub
	// order, and the footer follow them.
	slices.SortFunc(d.entries, func(a, b dirEntry) int { return cmp.Compare(a.hub, b.hub) })
	if _, err := d.f.Write(appendTail(nil, d.entries, d.offset)); err != nil {
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

// appendTail appends the directory of entries and the footer to dst, for
// records that end at dirStart.
func appendTail(dst []byte, entries []dirEntry, dirStart uint64) []byte {
	for _, e := range entries {
		dst = appendDirEntry(dst, e)
	}
	dst = binary.LittleEndian.AppendUint32(dst, diskMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(entries)))
	return binary.LittleEndian.AppendUint64(dst, dirStart)
}

func appendDirEntry(dst []byte, e dirEntry) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.hub))
	return binary.LittleEndian.AppendUint64(dst, e.offset)
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

// DiskIndex is a read-only disk-backed PPV index. It holds the whole index
// file as one byte slice — a read-only mapping on unix, one heap buffer
// elsewhere (fileBytes), or the heap image of an in-memory index — and every
// record read slices a view out of it. It is safe for concurrent use: the
// directory and the bytes never change after the open. The bytes live as long
// as the DiskIndex: the GC frees a heap buffer, and unmaps a mapping (unmap),
// once no state or view reaches the index.
type DiskIndex struct {
	// hubs is the directory's hubs in ascending order, and dir its entries in
	// the same order, the file's own bytes. The record of hubs[i] starts at
	// the offset of dir's entry i.
	hubs []graph.NodeID
	dir  []byte
	size int64
	// data is the whole file; views alias it with zero copies.
	data []byte
	// mapped is fixed at open: data is a mapping, not a heap buffer.
	mapped bool
	// records is the record region, data up to the directory start: every
	// record, header and payload, must lie inside it.
	records []byte
	// reads counts the number of record fetches, modelling random disk
	// accesses during online query processing. Atomic: GetView is the hot
	// path of every cache-missing hub expansion and must not serialize on a
	// lock.
	reads atomic.Int64
	// closed flips when Close runs; only record reads check it, never
	// directory-only lookups.
	closed atomic.Bool
}

// DiskOptions is what OpenDiskWithOptions takes; nothing in it changes how an
// index is opened.
type DiskOptions struct {
	// Mmap is ignored: every index is served from a mapping of its file,
	// or from one heap copy where the platform cannot map. The field
	// survives only because the frozen benchmark harness sets it.
	Mmap bool
}

// OpenDisk opens an index file written by DiskWriter. The file's bytes are
// held (fileBytes) and its descriptor closed before the index is built over
// them (openBytes).
func OpenDisk(path string) (*DiskIndex, error) {
	data, mapped, err := readIndexFile(path)
	if err != nil {
		return nil, err
	}
	idx, err := openBytes(path, data, mapped)
	if err != nil && mapped {
		_ = munmapFile(data)
	}
	return idx, err
}

// OpenDiskWithOptions is OpenDisk; opts is ignored. It survives only because
// the frozen benchmark harness calls it.
func OpenDiskWithOptions(path string, opts DiskOptions) (*DiskIndex, error) { return OpenDisk(path) }

// readIndexFile holds the whole file at path and closes its descriptor: a
// mapping stays valid after the close.
func readIndexFile(path string) (data []byte, mapped bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	if st.Size() < 16 || st.Size() > math.MaxInt {
		return nil, false, ErrBadIndexFormat
	}
	return fileBytes(f, int(st.Size()))
}

// openBytes builds an index over data, the whole bytes of the index file at
// path (which only names it in errors); mapped says they are a mapping, which
// the GC unmaps once the index is unreachable. It reads the footer and the
// directory and checks every record once (checkRecords). On error the caller
// still owns data.
func openBytes(path string, data []byte, mapped bool) (*DiskIndex, error) {
	d, entries, err := parseIndex(path, data)
	if err != nil {
		return nil, err
	}
	if err := d.checkRecords(entries); err != nil {
		return nil, err
	}
	if d.mapped = mapped; mapped {
		runtime.AddCleanup(d, unmap, data)
	}
	return d, nil
}

// unmapped counts the mappings unmap has released (a test hook: a retired
// generation is unmapped once nothing reads it).
var unmapped atomic.Int64

// unmap releases the mapping of a DiskIndex the GC found unreachable.
func unmap(data []byte) {
	_ = munmapFile(data)
	unmapped.Add(1)
}

// openImage serves records, in ascending hub order, from a heap image: the
// disk layout in one exact-size buffer, the base of an in-memory index. Its
// records were never outside the process, so they are not checked again.
func openImage(records []Record) (*DiskIndex, error) {
	size := footerBytes
	for _, r := range records {
		size += perHubOverheadBytes + len(r.Payload) + dirEntryBytes
	}
	image := make([]byte, 0, size)
	entries := make([]dirEntry, len(records))
	for i, r := range records {
		entries[i] = dirEntry{hub: r.Hub, offset: uint64(len(image))}
		image = appendRecord(image, r.Hub, r.Payload)
	}
	d, _, err := parseIndex("the heap image", appendTail(image, entries, uint64(len(image))))
	return d, err
}

// parseIndex reads the footer and the directory of data, and returns the
// directory's entries, which must be in strictly ascending hub order.
func parseIndex(path string, data []byte) (*DiskIndex, []dirEntry, error) {
	size := int64(len(data))
	if size < footerBytes {
		return nil, nil, ErrBadIndexFormat
	}
	footer := data[size-footerBytes:]
	if magic := binary.LittleEndian.Uint32(footer[0:]); magic != diskMagic {
		if old, ok := oldLayouts[magic]; ok {
			return nil, nil, fmt.Errorf("%w: %s is an %s, which this build no longer reads; rebuild it as FPI4", ErrBadIndexFormat, path, old)
		}
		return nil, nil, ErrBadIndexFormat
	}
	hubCount := int64(binary.LittleEndian.Uint32(footer[4:]))
	dirStart := int64(binary.LittleEndian.Uint64(footer[8:]))
	// Bounds-check with subtraction, not addition: dirStart comes from the
	// file and dirStart+hubCount*12 could wrap past MaxInt64, slipping a
	// crafted footer past the check.
	if dirStart < 0 || dirStart > size-footerBytes || hubCount*dirEntryBytes > size-footerBytes-dirStart {
		return nil, nil, ErrBadIndexFormat
	}
	dir := data[dirStart : dirStart+hubCount*dirEntryBytes]
	entries := make([]dirEntry, hubCount)
	for i := range entries {
		entries[i] = dirEntry{
			hub:    graph.NodeID(binary.LittleEndian.Uint32(dir[i*dirEntryBytes:])),
			offset: binary.LittleEndian.Uint64(dir[i*dirEntryBytes+4:]),
		}
	}
	d := &DiskIndex{hubs: make([]graph.NodeID, hubCount), dir: dir, size: size, data: data, records: data[:dirStart]}
	for i, e := range entries {
		if i > 0 && e.hub <= entries[i-1].hub {
			return nil, nil, fmt.Errorf("%w: directory entry %d (hub %d) is not above hub %d: out of hub order or a duplicate", ErrBadIndexFormat, i, e.hub, entries[i-1].hub)
		}
		d.hubs[i] = e.hub
	}
	return d, entries, nil
}

// checkRecords checks every record the directory entries point at once, in
// file order: the record must not overlap the one before it and must pass the
// checks of record, and its payload must pass checkPayload. Reads of a
// checked file need not check the scores again. entries is sorted by offset
// in place.
func (d *DiskIndex) checkRecords(entries []dirEntry) error {
	slices.SortFunc(entries, func(a, b dirEntry) int { return cmp.Compare(a.offset, b.offset) })
	var pos int64 // first byte past the last checked record
	for _, e := range entries {
		if int64(e.offset) < pos {
			return fmt.Errorf("%w: record of hub %d at offset %d overlaps the record before it", ErrBadIndexFormat, e.hub, e.offset)
		}
		payload, err := d.record(e.hub, e.offset)
		if err != nil {
			return err
		}
		if err := checkPayload(e.hub, payload); err != nil {
			return err
		}
		pos = int64(e.offset) + perHubOverheadBytes + int64(len(payload))
	}
	return nil
}

// record returns the payload of hub h's record at directory offset off, a
// slice of the held bytes: the header must lie inside the record region and
// name h, and its length must keep the payload inside the region too. The
// open checked every record; the check runs on every read again, so a hub or
// length rewritten under an open mapping fails with ErrBadIndexFormat instead
// of slicing past the region.
func (d *DiskIndex) record(h graph.NodeID, off uint64) ([]byte, error) {
	region := d.records
	// An offset past the region (or wrapping negative) would turn reads of
	// the directory and footer bytes into record data.
	if int64(off) < 0 || int64(off) > int64(len(region))-perHubOverheadBytes {
		return nil, fmt.Errorf("%w: directory offset %d of hub %d outside record region [0,%d)", ErrBadIndexFormat, off, h, len(region))
	}
	header := region[off : off+perHubOverheadBytes]
	if stored := graph.NodeID(binary.LittleEndian.Uint32(header[0:])); stored != h {
		return nil, fmt.Errorf("%w: record at offset %d is for hub %d, expected %d", ErrBadIndexFormat, off, stored, h)
	}
	start := int64(off) + perHubOverheadBytes
	n := int64(binary.LittleEndian.Uint32(header[4:]))
	if n > int64(len(region))-start {
		return nil, fmt.Errorf("%w: record of hub %d claims %d payload bytes, overrunning the record region", ErrBadIndexFormat, h, n)
	}
	return region[start : start+n], nil
}

// MmapActive reports whether the index serves records from a memory mapping:
// true where the platform maps files (unix), false on the heap copy. It is
// fixed at open. Nothing outside the frozen benchmark harness calls it.
func (d *DiskIndex) MmapActive() bool { return d.mapped }

// Close marks the index closed: a later GetView fails with ErrIndexClosed.
// It never waits and never unmaps; views taken before it read on, and the GC
// releases the bytes once nothing reaches the index. Closing twice is a no-op.
func (d *DiskIndex) Close() error {
	d.closed.Store(true)
	return nil
}

// GetView returns a zero-copy view of the stored record of h, sliced out of
// the held file bytes; the view holds d, so the bytes outlive it. A record
// whose hub or length was rewritten under the open index fails with
// ErrBadIndexFormat (see record).
func (d *DiskIndex) GetView(h graph.NodeID) (HubRecordView, bool, error) {
	i, ok := slices.BinarySearch(d.hubs, h)
	if !ok || (i+1)*dirEntryBytes > len(d.dir) {
		return HubRecordView{}, false, nil
	}
	if d.closed.Load() {
		return HubRecordView{}, false, ErrIndexClosed
	}
	payload, err := d.record(h, binary.LittleEndian.Uint64(d.dir[i*dirEntryBytes+4:]))
	if err != nil {
		return HubRecordView{}, false, err
	}
	d.reads.Add(1)
	return HubRecordView{data: payload, idx: d}, true, nil
}

// Get reads the record of h and decodes it into a fresh map.
func (d *DiskIndex) Get(h graph.NodeID) (sparse.Vector, bool, error) { return VectorOf(d, h) }

// Has reports whether h is indexed.
func (d *DiskIndex) Has(h graph.NodeID) bool {
	_, ok := slices.BinarySearch(d.hubs, h)
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

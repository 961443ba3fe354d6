// Package frame is the one framed-log mechanism under the update WAL (FPL1),
// the graph-mutation log (FPG1) and the query log (FPQ1). A log file is
//
//	header (Format.HeaderBytes, little endian):
//	  magic    uint32
//	  version  uint32
//	  binding  opaque caller bytes identifying what the frames apply to
//	  zeros    reserved padding up to HeaderBytes, ignored when read
//	frames (zero or more, in append order):
//	  payloadLen uint32
//	  crc        uint32  CRC-32 (IEEE) of the payload
//	  payload
//
// and the rules every such log shares live here once: a file shorter than its
// header gets a fresh one; a foreign magic or version is an error that leaves
// the file untouched; a header bound to something else resets the log instead
// of replaying it; replay stops at the first short, oversized, CRC-bad or
// undecodable frame and the torn tail is truncated, so nothing after an
// invalid frame is ever trusted; appends are buffered and become durable in
// batches (Commit: one write, one fsync); Close rolls back to the last
// Commit; creating or renaming a file fsyncs its directory before the
// operation is reported done. What a payload means, how large one may be and
// who serializes access stay with the caller. A Log is not safe for
// concurrent use.
package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"
)

// Overhead is the size of a frame header: payloadLen + crc.
const Overhead = 8

// flushBytes is how much appended data a Log buffers before writing it out
// ahead of Commit.
const flushBytes = 1 << 16

// ErrTorn is what a decode callback returns for a payload it cannot decode:
// the frame is treated like a CRC mismatch, ending replay and truncating the
// file there. Any other error from the callback aborts the replay.
var ErrTorn = errors.New("frame: undecodable payload")

var errClosed = errors.New("frame: log is closed")

// Format describes one log format.
type Format struct {
	// Name ("update log") prefixes header error messages.
	Name           string
	Magic, Version uint32
	// HeaderBytes is the full header size: magic, version, the binding and
	// reserved zero padding.
	HeaderBytes int
	// MaxPayload bounds one frame's payload; a larger length found during
	// replay is a torn tail. Zero means bounded by the file size only.
	MaxPayload int64
	// BadHeader is wrapped by the error reporting a foreign magic or version.
	BadHeader error
}

func (ft Format) maxPayload() int64 {
	if ft.MaxPayload > 0 {
		return ft.MaxPayload
	}
	return math.MaxUint32
}

// File is what a Log needs of its backing file; tests substitute one that
// fails or tears chosen operations.
type File interface {
	io.ReaderAt
	io.WriterAt
	Size() (int64, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FS is the slice of the file system a Log touches.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	// SyncDir makes creations and renames inside dir durable.
	SyncDir(dir string) error
}

// OS is the real file system.
type OS struct{}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) SyncDir(dir string) error { return SyncDir(dir) }

// SyncDir fsyncs a directory, making previously performed creations and
// renames in it durable. Filesystems that cannot sync a directory handle are
// ignored.
func SyncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	if err := df.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}

// Log is an append-only framed log open for writing.
type Log struct {
	fs      FS
	path    string
	format  Format
	binding []byte
	f       File   // nil once closed, or when a failed Rotate lost the file
	buf     []byte // whole frames appended but not yet written
	// size/frames include buffered frames; the committed pair trails them
	// until Commit, and the gap is what Close rolls back.
	size, frames                   int64
	committedSize, committedFrames int64
	truncated                      int64
	// err is the first failed write, sync, truncate or rename. The file may
	// then hold anything past committedSize, so every later Append, Commit
	// and Rotate reports it; only a successful Reset clears it.
	err error
}

// Open opens (or creates) the log at path and streams every valid frame's
// payload through decode, in append order. The payload slice is reused
// between calls. A header whose binding differs from binding resets the log
// to empty instead of replaying it; a torn tail is truncated. The returned
// log is positioned for appending.
func Open(fs FS, path string, format Format, binding []byte, decode func(payload []byte) error) (*Log, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{fs: fs, path: path, format: format, binding: bytes.Clone(binding), f: f}
	if err := l.recover(decode); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

func (l *Log) recover(decode func([]byte) error) error {
	size, err := l.f.Size()
	if err != nil {
		return err
	}
	if size < int64(l.format.HeaderBytes) {
		// A new file, or a crash tore the header before any frame could have
		// been committed. Either way the directory entry may not be durable
		// yet, and the first Commit must not be acknowledged on a file a power
		// loss can still unlink.
		if err := l.writeHeader(); err != nil {
			return err
		}
		return l.fs.SyncDir(filepath.Dir(l.path))
	}
	bound, err := l.format.readHeader(l.f, l.path)
	if err != nil {
		return err
	}
	if !bytes.Equal(bound[:len(l.binding)], l.binding) {
		return l.writeHeader()
	}
	end, frames, err := l.format.scan(l.f, size, decode)
	if err != nil {
		return err
	}
	if end < size {
		// Not fsync'd here: the next Commit's fsync covers the new length, and
		// a crash before it only brings the same torn tail back.
		if err := l.f.Truncate(end); err != nil {
			return err
		}
		l.truncated = size - end
	}
	l.size, l.frames = end, frames
	l.committedSize, l.committedFrames = end, frames
	return nil
}

// readHeader validates magic and version and returns the header bytes after
// them (binding, then padding).
func (ft Format) readHeader(f File, path string) ([]byte, error) {
	hdr := make([]byte, ft.HeaderBytes)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != ft.Magic {
		return nil, fmt.Errorf("%w: %s %s has a foreign magic %#x", ft.BadHeader, ft.Name, path, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != ft.Version {
		return nil, fmt.Errorf("%w: %s %s has unsupported version %d", ft.BadHeader, ft.Name, path, v)
	}
	return hdr[8:], nil
}

// scan streams the frames between the header and size through decode and
// returns the offset just past the last valid one and how many there were.
func (ft Format) scan(f File, size int64, decode func([]byte) error) (end, frames int64, err error) {
	end = int64(ft.HeaderBytes)
	br := bufio.NewReaderSize(io.NewSectionReader(f, end, size-end), int(min(size-end, flushBytes)))
	var head [Overhead]byte
	var payload []byte
	for end+Overhead <= size {
		if _, err := io.ReadFull(br, head[:]); err != nil {
			return end, frames, err
		}
		n := int64(binary.LittleEndian.Uint32(head[0:]))
		if n == 0 || n > ft.maxPayload() || end+Overhead+n > size {
			break
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return end, frames, err
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(head[4:]) {
			break
		}
		if decode != nil {
			if err := decode(payload); errors.Is(err, ErrTorn) {
				break
			} else if err != nil {
				return end, frames, err
			}
		}
		end += Overhead + n
		frames++
	}
	return end, frames, nil
}

// Scan streams the frames of the log at path through decode without modifying
// the file, stopping at a torn tail, and returns how many it delivered. A
// missing file, or one shorter than its header, holds zero frames.
func Scan(fs FS, path string, format Format, decode func(payload []byte) error) (int64, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil || size < int64(format.HeaderBytes) {
		return 0, err
	}
	if _, err := format.readHeader(f, path); err != nil {
		return 0, err
	}
	_, frames, err := format.scan(f, size, decode)
	return frames, err
}

// writeHeader empties the file and writes a fresh fsync'd header carrying the
// current binding. The counters drop to zero before the first write so that a
// failure part-way leaves Close nothing to "roll back" onto the new content.
func (l *Log) writeHeader() error {
	l.buf = l.buf[:0]
	l.size, l.frames, l.committedSize, l.committedFrames = 0, 0, 0, 0
	hdr := make([]byte, l.format.HeaderBytes)
	binary.LittleEndian.PutUint32(hdr[0:], l.format.Magic)
	binary.LittleEndian.PutUint32(hdr[4:], l.format.Version)
	copy(hdr[8:], l.binding)
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.WriteAt(hdr, 0); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.size, l.committedSize = int64(len(hdr)), int64(len(hdr))
	return nil
}

func (l *Log) fail(err error) error {
	if err != nil && l.err == nil {
		l.err = err
	}
	return err
}

// Append buffers one frame. It reaches the file at the next Commit, or
// earlier once 64 KiB are pending, and is durable only after Commit.
func (l *Log) Append(payload []byte) error {
	if l.err != nil {
		return l.err
	}
	if n := int64(len(payload)); n == 0 || n > l.format.maxPayload() {
		return fmt.Errorf("frame: %s payload of %d bytes could not be replayed (limit %d)", l.format.Name, n, l.format.maxPayload())
	}
	at := len(l.buf)
	l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	l.buf = append(l.buf, payload...)
	binary.LittleEndian.PutUint32(l.buf[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[at+4:], crc32.ChecksumIEEE(payload))
	l.size += Overhead + int64(len(payload))
	l.frames++
	if len(l.buf) >= flushBytes {
		return l.flush()
	}
	return nil
}

func (l *Log) flush() error {
	if len(l.buf) == 0 {
		return nil
	}
	_, err := l.f.WriteAt(l.buf, l.size-int64(len(l.buf)))
	l.buf = l.buf[:0]
	return l.fail(err)
}

// Commit makes every appended frame durable as one batch: one write of what
// is still buffered and one fsync. With nothing appended since the last
// Commit it does nothing.
func (l *Log) Commit() error {
	if l.err != nil {
		return l.err
	}
	if !l.Uncommitted() {
		return nil
	}
	if err := l.flush(); err != nil {
		return err
	}
	if err := l.fail(l.f.Sync()); err != nil {
		return err
	}
	l.committedSize, l.committedFrames = l.size, l.frames
	return nil
}

// Uncommitted reports whether frames have been appended since the last
// Commit, Reset or Rotate.
func (l *Log) Uncommitted() bool { return l.size != l.committedSize }

// Reset drops everything, committed or not, and leaves a bare fsync'd header
// carrying the new binding.
func (l *Log) Reset(binding []byte) error {
	if l.f == nil {
		return l.err
	}
	l.binding = bytes.Clone(binding)
	l.err = nil
	return l.fail(l.writeHeader())
}

// Rotate commits, renames the file to <path>.1 (replacing what was there) and
// continues in a fresh file with the same binding. On failure the log is
// unusable and Append, Commit and Close keep reporting the error.
func (l *Log) Rotate() error {
	if err := l.Commit(); err != nil {
		return err
	}
	return l.fail(l.rotate())
}

func (l *Log) rotate() error {
	old := l.f
	l.f = nil
	if err := old.Close(); err != nil {
		return err
	}
	if err := l.fs.Rename(l.path, l.path+".1"); err != nil {
		return err
	}
	f, err := l.fs.OpenFile(l.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	if err := l.writeHeader(); err != nil {
		return err
	}
	return l.fs.SyncDir(filepath.Dir(l.path))
}

// Size is the log size in bytes, header and still-buffered frames included.
func (l *Log) Size() int64 { return l.size }

// Frames is the number of frames in the log, buffered ones included.
func (l *Log) Frames() int64 { return l.frames }

// Truncated is how many bytes of torn tail Open cut off.
func (l *Log) Truncated() int64 { return l.truncated }

// Close rolls the file back to the last Commit — frames appended since belong
// to a batch that was never acknowledged — and closes it. It returns the
// log's first error, if it had one.
func (l *Log) Close() error {
	f := l.f
	if f == nil {
		return l.err
	}
	l.f, l.buf = nil, nil
	err := l.err
	if l.Uncommitted() {
		// Part of the batch may already have been flushed out of the buffer.
		if terr := f.Truncate(l.committedSize); err == nil {
			err = terr
		}
		if serr := f.Sync(); err == nil {
			err = serr
		}
		l.size, l.frames = l.committedSize, l.committedFrames
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	l.fail(errClosed)
	return err
}

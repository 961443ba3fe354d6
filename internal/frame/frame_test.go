package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var (
	errBadHeader = errors.New("test: bad header")
	errInjected  = errors.New("test: injected fault")
	errCrashed   = errors.New("test: process is dead")
)

var testFormat = Format{
	Name: "test log", Magic: 0x31545046, Version: 1,
	HeaderBytes: 16, MaxPayload: 1 << 10, BadHeader: errBadHeader,
}

const testPath = "dir/test.log"

// memFS is an in-memory FS that records the operations a Log issues, can make
// the armed-th write/sync/truncate/rename/syncdir fail or tear, and keeps
// what a power loss would leave behind apart from what a running process
// sees: file content is durable up to its last Sync, a directory entry up to
// the last SyncDir.
type memFS struct {
	files   map[string]*memFile
	durable map[string]*memFile
	ops     []string

	// The armed-th counted operation is hit. With tear unset it has no effect
	// and returns errInjected. With tear set it takes effect (a write only for
	// the first half of its bytes) and the process dies before seeing the
	// result: that call and every later one return an error and change
	// nothing.
	armed int
	tear  bool
	hit   bool
	dead  bool
}

type memFile struct{ data, synced []byte }

type memHandle struct {
	fs *memFS
	f  *memFile
}

func newMemFS() *memFS {
	return &memFS{files: map[string]*memFile{}, durable: map[string]*memFile{}}
}

// step counts one operation and reports whether it should take effect and
// what it returns.
func (m *memFS) step(op string) (apply bool, err error) {
	if m.dead {
		return false, errCrashed
	}
	m.ops = append(m.ops, op)
	if len(m.ops) != m.armed {
		return true, nil
	}
	m.hit = true
	m.dead = m.tear
	return m.tear, errInjected
}

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (File, error) {
	if m.dead {
		return nil, errCrashed
	}
	f, ok := m.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		f = &memFile{}
		m.files[name] = f
	}
	if flag&os.O_TRUNC != 0 {
		f.data = nil
	}
	return &memHandle{m, f}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	apply, err := m.step("rename")
	if apply {
		m.files[newpath] = m.files[oldpath]
		delete(m.files, oldpath)
	}
	return err
}

func (m *memFS) SyncDir(string) error {
	apply, err := m.step("syncdir")
	if apply {
		m.durable = map[string]*memFile{}
		for name, f := range m.files {
			m.durable[name] = f
		}
	}
	return err
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(h.f.data).ReadAt(p, off)
}

func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	apply, err := h.fs.step("write")
	if !apply {
		return 0, err
	}
	if err != nil {
		p = p[:len(p)/2]
	}
	if grow := int(off) + len(p) - len(h.f.data); grow > 0 {
		h.f.data = append(h.f.data, make([]byte, grow)...)
	}
	copy(h.f.data[off:], p)
	return len(p), err
}

func (h *memHandle) Size() (int64, error) { return int64(len(h.f.data)), nil }

func (h *memHandle) Truncate(size int64) error {
	apply, err := h.fs.step("truncate")
	if apply {
		if grow := int(size) - len(h.f.data); grow > 0 {
			h.f.data = append(h.f.data, make([]byte, grow)...)
		}
		h.f.data = h.f.data[:size]
	}
	return err
}

func (h *memHandle) Sync() error {
	apply, err := h.fs.step("sync")
	if apply {
		h.f.synced = bytes.Clone(h.f.data)
	}
	return err
}

func (h *memHandle) Close() error {
	if h.fs.dead {
		return errCrashed
	}
	return nil
}

// restart returns the file system a fresh process finds: after a process
// crash everything written, after a power loss only what was made durable.
func (m *memFS) restart(powerLoss bool) *memFS {
	out := newMemFS()
	names := m.files
	if powerLoss {
		names = m.durable
	}
	for name, f := range names {
		data := f.data
		if powerLoss {
			data = f.synced
		}
		nf := &memFile{data: bytes.Clone(data), synced: bytes.Clone(data)}
		out.files[name], out.durable[name] = nf, nf
	}
	return out
}

func payload(i int) []byte { return []byte(fmt.Sprintf("payload-%02d-%s", i, "xxxxxxxxxxxx"[:i%12])) }

// isPrefix reports whether got is the first len(got) payloads of want.
func isPrefix(got, want [][]byte) bool {
	if len(got) > len(want) {
		return false
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return false
		}
	}
	return true
}

func collect(dst *[][]byte) func([]byte) error {
	return func(p []byte) error {
		*dst = append(*dst, bytes.Clone(p))
		return nil
	}
}

// crashModel is what the scripted run below promises about a later replay:
// the frames found are a prefix of appended that covers at least the first
// committed of them, under the binding the log was last given.
type crashModel struct {
	binding   []byte
	appended  [][]byte
	committed int
	// closedClean is set when Close returned nil: nothing past committed may
	// then be replayed at all.
	closedClean bool
}

// runCrashScript drives Open, Append x3, Commit, Append x3, Commit, Rotate,
// Append, Commit, Append, Close against fs, carrying on past errors the way a
// caller that only logs them would.
func runCrashScript(fs FS) crashModel {
	m := crashModel{binding: []byte("bind-one")}
	l, err := Open(fs, testPath, testFormat, m.binding, nil)
	if err != nil {
		return m
	}
	next := 0
	add := func(n int) {
		for i := 0; i < n; i++ {
			m.appended = append(m.appended, payload(next))
			l.Append(payload(next))
			next++
		}
	}
	commit := func() {
		if l.Commit() == nil {
			m.committed = len(m.appended)
		}
	}
	add(3)
	commit()
	add(3)
	commit()
	if l.Rotate() == nil {
		m.committed = len(m.appended)
	}
	add(1)
	commit()
	add(1)
	m.closedClean = l.Close() == nil
	return m
}

// check reopens the log the way a restarted process would — previous
// generation, then the active file — and holds the replay to the model.
func (m crashModel) check(t *testing.T, fs *memFS, world string) {
	t.Helper()
	var got [][]byte
	if _, err := Scan(fs, testPath+".1", testFormat, collect(&got)); err != nil {
		t.Fatalf("%s: scanning the previous generation: %v", world, err)
	}
	l, err := Open(fs, testPath, testFormat, m.binding, collect(&got))
	if err != nil {
		t.Fatalf("%s: reopening: %v", world, err)
	}
	defer l.Close()
	if len(got) < m.committed || !isPrefix(got, m.appended) {
		t.Fatalf("%s: replayed %q, want a prefix of %q holding at least the %d committed", world, got, m.appended, m.committed)
	}
	if m.closedClean && len(got) != m.committed {
		t.Fatalf("%s: a clean Close left %d frames, only %d were committed", world, len(got), m.committed)
	}
}

// TestFrameCrashPoints fails, and separately tears, every write, sync,
// truncate, rename and directory sync of the scripted run, then restarts
// after a process crash and after a power loss.
func TestFrameCrashPoints(t *testing.T) {
	clean := newMemFS()
	model := runCrashScript(clean)
	if !model.closedClean || model.committed != 7 || len(model.appended) != 8 {
		t.Fatalf("fault-free run: %+v", model)
	}
	model.check(t, clean.restart(false), "fault-free, process restart")
	model.check(t, clean.restart(true), "fault-free, power loss")

	boundaries := len(clean.ops)
	for k := 1; k <= boundaries; k++ {
		for _, tear := range []bool{false, true} {
			fs := newMemFS()
			fs.armed, fs.tear = k, tear
			model := runCrashScript(fs)
			world := fmt.Sprintf("%s #%d fails", clean.ops[k-1], k)
			if tear {
				world = fmt.Sprintf("%s #%d tears", clean.ops[k-1], k)
			}
			if !fs.hit {
				t.Fatalf("%s: the fault was never reached", world)
			}
			model.check(t, fs.restart(false), world+", process restart")
			model.check(t, fs.restart(true), world+", power loss")
		}
	}
	t.Logf("%d boundaries (%v), each failed and torn, each restarted two ways; none skipped", boundaries, clean.ops)
}

// threeFrameFile returns the bytes of a committed three-frame log and the
// payloads in it.
func threeFrameFile(t *testing.T, binding []byte) ([]byte, [][]byte) {
	t.Helper()
	fs := newMemFS()
	l, err := Open(fs, testPath, testFormat, binding, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 3; i++ {
		want = append(want, payload(i))
		if err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return fs.files[testPath].data, want
}

// TestFrameEveryTruncationAndBitFlip opens a three-frame file cut at every
// byte offset and with a bit flipped in every byte: Open returns the
// format's structured error or ErrBindingMismatch (a flip in the binding)
// with the file untouched, or a valid prefix, and a second Open finds nothing
// left to repair.
func TestFrameEveryTruncationAndBitFlip(t *testing.T) {
	binding := []byte("bind-one")
	valid, want := threeFrameFile(t, binding)
	var cases [][]byte
	for cut := 0; cut <= len(valid); cut++ {
		cases = append(cases, valid[:cut])
	}
	for i := range valid {
		flipped := bytes.Clone(valid)
		flipped[i] ^= 1 << (i % 8)
		cases = append(cases, flipped)
	}
	for i, data := range cases {
		name := fmt.Sprintf("cut at %d", i)
		if i > len(valid) {
			name = fmt.Sprintf("bit flip in byte %d", i-len(valid)-1)
		}
		fs := newMemFS()
		fs.files[testPath] = &memFile{data: bytes.Clone(data)}
		var got [][]byte
		l, err := Open(fs, testPath, testFormat, binding, collect(&got))
		if err != nil {
			if !errors.Is(err, errBadHeader) && !errors.Is(err, ErrBindingMismatch) {
				t.Fatalf("%s: unstructured error %v", name, err)
			}
			if !bytes.Equal(fs.files[testPath].data, data) {
				t.Fatalf("%s: rejected file was modified", name)
			}
			continue
		}
		if !isPrefix(got, want) {
			t.Fatalf("%s: replayed %q, not a prefix of %q", name, got, want)
		}
		if l.Frames() != int64(len(got)) || l.Size() != int64(len(fs.files[testPath].data)) {
			t.Fatalf("%s: log reports %d frames / %d bytes, replayed %d / file holds %d", name, l.Frames(), l.Size(), len(got), len(fs.files[testPath].data))
		}
		if err := l.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		repaired := bytes.Clone(fs.files[testPath].data)
		var again [][]byte
		l, err = Open(fs, testPath, testFormat, binding, collect(&again))
		if err != nil {
			t.Fatalf("%s: second Open: %v", name, err)
		}
		if len(again) != len(got) || !isPrefix(again, got) || l.Truncated() != 0 || !bytes.Equal(fs.files[testPath].data, repaired) {
			t.Fatalf("%s: second Open was not a no-op: replayed %d then %d frames, truncated %d more bytes", name, len(got), len(again), l.Truncated())
		}
		l.Close()
	}
}

// TestFrameOperationCounts pins the syscalls behind each operation: creating
// a log fsyncs the file and then its directory, reopening one touches
// nothing, and a batch below the buffer size commits with one write and one
// fsync, never a directory sync.
func TestFrameOperationCounts(t *testing.T) {
	fs := newMemFS()
	since := func() []string {
		ops := fs.ops
		fs.ops = nil
		return ops
	}
	l, err := Open(fs, testPath, testFormat, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := since(), []string{"truncate", "write", "sync", "syncdir"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Open on a missing path issued %v, want %v", got, want)
	}
	for batch := 0; batch < 2; batch++ {
		for i := 0; i < 5; i++ {
			if err := l.Append(payload(i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := since(); got != nil {
			t.Fatalf("buffered Appends issued %v", got)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		if got, want := since(), []string{"write", "sync"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Commit issued %v, want %v", got, want)
		}
	}
	if err := l.Commit(); err != nil || since() != nil {
		t.Fatalf("Commit with nothing appended: err %v, touched the file", err)
	}
	if err := l.Close(); err != nil || since() != nil {
		t.Fatalf("Close with nothing to roll back: err %v, touched the file", err)
	}
	if l, err = Open(fs, testPath, testFormat, nil, nil); err != nil || l.Frames() != 10 {
		t.Fatalf("reopen: %v", err)
	}
	if got := since(); got != nil {
		t.Fatalf("reopening an intact log issued %v", got)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if got, want := since(), []string{"rename", "truncate", "write", "sync", "syncdir"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Rotate issued %v, want %v", got, want)
	}
}

// TestFrameRotateFailureIsSticky loses the file half-way through a rotation:
// every later call, Close included, reports that first error.
func TestFrameRotateFailureIsSticky(t *testing.T) {
	fs := newMemFS()
	l, err := Open(fs, testPath, testFormat, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(payload(0)); err != nil {
		t.Fatal(err)
	}
	fs.armed = len(fs.ops) + 3 // write, sync, then the rename
	if err := l.Rotate(); !errors.Is(err, errInjected) {
		t.Fatalf("Rotate = %v, want the injected rename failure", err)
	}
	for name, err := range map[string]error{
		"Append": l.Append(payload(1)), "Commit": l.Commit(), "Rotate": l.Rotate(),
		"Close": l.Close(), "second Close": l.Close(),
	} {
		if !errors.Is(err, errInjected) {
			t.Errorf("%s after the failed rotation = %v, want the rename failure", name, err)
		}
	}
}

// TestFrameOnDisk runs the real file system through create, commit, a torn
// tail, rotation and a read-only scan.
func TestFrameOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.log")
	l, err := Open(OS{}, path, testFormat, []byte("bind-one"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(payload(3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // rolls payload 3 back
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 0, 0, 0, 1, 2}); err != nil { // a frame header cut short
		t.Fatal(err)
	}
	f.Close()

	var got [][]byte
	l, err = Open(OS{}, path, testFormat, []byte("bind-one"), collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || l.Truncated() != 6 {
		t.Fatalf("replayed %d frames and truncated %d bytes, want 3 and 6", len(got), l.Truncated())
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(payload(4)); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for p, want := range map[string]int64{path + ".1": 3, path: 1, path + ".missing": 0} {
		if n, err := Scan(OS{}, p, testFormat, nil); err != nil || n != want {
			t.Errorf("Scan(%s) = %d, %v, want %d frames", filepath.Base(p), n, err, want)
		}
	}
	if b, err := ReadBinding(OS{}, path, testFormat); err != nil || !bytes.HasPrefix(b, []byte("bind-one")) || len(b) != testFormat.HeaderBytes-8 {
		t.Errorf("ReadBinding = %q, %v, want bind-one and its padding", b, err)
	}
	if b, err := ReadBinding(OS{}, path+".missing", testFormat); b != nil || err != nil {
		t.Errorf("ReadBinding of a missing log = %q, %v, want nothing", b, err)
	}
	foreign := Format{Name: "other log", Magic: 1, Version: 1, HeaderBytes: 16, BadHeader: errBadHeader}
	if _, err := Open(OS{}, path, foreign, nil, nil); !errors.Is(err, errBadHeader) {
		t.Fatalf("opening under a foreign format = %v, want the format's bad-header error", err)
	}
	if _, err := ReadBinding(OS{}, path, foreign); !errors.Is(err, errBadHeader) {
		t.Fatalf("reading the binding under a foreign format = %v, want the format's bad-header error", err)
	}
}

// TestFrameAppendRejectsUnreplayable: a payload replay would discard as a
// torn tail is refused up front.
func TestFrameAppendRejectsUnreplayable(t *testing.T) {
	l, err := Open(newMemFS(), testPath, testFormat, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Append(nil) == nil || l.Append(make([]byte, testFormat.MaxPayload+1)) == nil {
		t.Fatal("Append accepted a payload replay would reject")
	}
	if l.uncommitted() {
		t.Fatal("a rejected payload was buffered")
	}
}

// TestFrameShortForeignFile: a file shorter than the header is a torn header
// only when it starts like one. Another version's shorter header, or any other
// short file, is rejected and left as it is.
func TestFrameShortForeignFile(t *testing.T) {
	older := make([]byte, testFormat.HeaderBytes-4)
	binary.LittleEndian.PutUint32(older[0:], testFormat.Magic)
	binary.LittleEndian.PutUint32(older[4:], testFormat.Version+1)
	for name, data := range map[string][]byte{"other version": older, "text": []byte("not a log")} {
		fs := newMemFS()
		fs.files[testPath] = &memFile{data: bytes.Clone(data)}
		if _, err := Open(fs, testPath, testFormat, nil, nil); !errors.Is(err, errBadHeader) {
			t.Errorf("%s: Open = %v, want the format's bad-header error", name, err)
		}
		if !bytes.Equal(fs.files[testPath].data, data) {
			t.Errorf("%s: the rejected file was modified", name)
		}
	}
}

// TestFrameRefusesAnotherBinding: a log bound to something else is refused
// and left byte for byte as it was, so reopening it under its own binding
// still replays every committed frame.
func TestFrameRefusesAnotherBinding(t *testing.T) {
	fs := newMemFS()
	bindA, bindB := []byte("bind-one"), []byte("bind-two")
	l, err := Open(fs, testPath, testFormat, bindA, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 5; i++ {
		want = append(want, payload(i))
		if err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before := bytes.Clone(fs.files[testPath].data)

	if _, err := Open(fs, testPath, testFormat, bindB, nil); !errors.Is(err, ErrBindingMismatch) {
		t.Fatalf("Open under another binding = %v, want ErrBindingMismatch", err)
	}
	if !bytes.Equal(fs.files[testPath].data, before) {
		t.Fatal("the refused log was modified")
	}

	var got [][]byte
	l, err = Open(fs, testPath, testFormat, bindA, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(got) != len(want) || !isPrefix(got, want) {
		t.Fatalf("reopened under its own binding, replayed %d frames, want all %d", len(got), len(want))
	}
}

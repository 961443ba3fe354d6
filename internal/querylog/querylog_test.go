package querylog

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fastppv/internal/frame"
	"fastppv/internal/graph"
)

func testRecord(src graph.NodeID, i int) Record {
	return Record{
		Source:     src,
		Top:        10,
		Eta:        3,
		Mode:       ModeEngine,
		Flags:      FlagCacheHit,
		Iterations: uint8(i % 7),
		Epoch:      uint64(i),
		LatencyUS:  uint32(100 + i),
		Bound:      0.01 * float64(i%5),
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.qlog")
	l, err := Open(path, Options{FlushInterval: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		testRecord(4, 1),
		{Source: 9, Top: 5, Eta: 2, Mode: ModeRouter, Flags: FlagDegraded | FlagSlow,
			Iterations: 3, Epoch: 42, LatencyUS: 51234, Bound: 0.125,
			TraceID: "0a1b2c3d4e5f-17",
			Legs: []LegSummary{
				{Shard: 0, Legs: 3, DurationUS: 900},
				{Shard: 1, Legs: 3, DurationUS: 1400},
			}},
		testRecord(4, 3),
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	l2, err := Open(path, Options{}, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Source != g.Source || w.Top != g.Top || w.Eta != g.Eta ||
			w.Mode != g.Mode || w.Flags != g.Flags || w.Iterations != g.Iterations ||
			w.Epoch != g.Epoch || w.LatencyUS != g.LatencyUS || w.Bound != g.Bound ||
			w.TraceID != g.TraceID || len(w.Legs) != len(g.Legs) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, g, w)
		}
		for j := range w.Legs {
			if w.Legs[j] != g.Legs[j] {
				t.Fatalf("record %d leg %d mismatch: got %+v want %+v", i, j, g.Legs[j], w.Legs[j])
			}
		}
	}
	if st := l2.Stats(); st.Replayed != 3 {
		t.Fatalf("Replayed = %d, want 3", st.Replayed)
	}
}

// TestTornTailTruncation corrupts the log mid-frame and verifies Open
// recovers every record before the tear, truncates the garbage, and appends
// resume cleanly — the same contract as the PPV WAL, asserted through the
// public API only.
func TestTornTailTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.qlog")
	l, err := Open(path, Options{FlushInterval: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(testRecord(graph.NodeID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the last 5 bytes (mid-frame), then append garbage
	// in a second variant below.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	var n int
	l, err = Open(path, Options{FlushInterval: -1}, func(Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("replayed %d records after torn tail, want 9", n)
	}
	if l.Stats().TruncatedBytes == 0 {
		t.Fatal("expected TruncatedBytes > 0")
	}
	// Appends resume after the truncated tail.
	if err := l.Append(testRecord(99, 99)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n = 0
	l, err = Open(path, Options{}, func(Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n != 10 {
		t.Fatalf("replayed %d records after recovery append, want 10", n)
	}
}

func TestCRCCorruptionStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.qlog")
	l, err := Open(path, Options{FlushInterval: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(testRecord(graph.NodeID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the last frame.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var n int
	l, err = Open(path, Options{}, func(Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n != 4 {
		t.Fatalf("replayed %d records past CRC corruption, want 4", n)
	}
}

// TestForeignHeaderRejected verifies that a file that is not a query log is
// rejected with ErrBadFormat and left unmodified, rather than truncated.
func TestForeignHeaderRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notalog")
	foreign := []byte("PNG\x89 definitely not a query log, long enough to pass the header read")
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}, nil); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Open on foreign file: err = %v, want ErrBadFormat", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(foreign) {
		t.Fatal("foreign file was modified by rejected Open")
	}
	// Version mismatch is rejected the same way.
	vpath := filepath.Join(t.TempDir(), "v99.qlog")
	hdr := make([]byte, headerBytes)
	binary.LittleEndian.PutUint32(hdr[0:4], logMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], 99)
	if err := os.WriteFile(vpath, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(vpath, Options{}, nil); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Open on future-version file: err = %v, want ErrBadFormat", err)
	}
	if _, err := Replay(path, nil); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Replay on foreign file: err = %v, want ErrBadFormat", err)
	}
}

func TestRotationAndTwoGenerationReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.qlog")
	// Records are ~40 bytes framed; cap the generation small enough to force
	// several rotations across 100 appends.
	l, err := Open(path, Options{FlushInterval: -1, MaxBytes: 1 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := l.Append(testRecord(graph.NodeID(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Rotations == 0 {
		t.Fatal("expected at least one rotation")
	}
	if st.ActiveBytes > 1<<10 {
		t.Fatalf("active generation %d bytes exceeds MaxBytes", st.ActiveBytes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("previous generation missing: %v", err)
	}

	// Replay sees the last two generations, oldest first, contiguously.
	var ids []int
	l, err = Open(path, Options{}, func(r Record) error {
		ids = append(ids, int(r.Source))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(ids) == 0 || len(ids) >= 100 {
		t.Fatalf("replayed %d records, want a bounded suffix of the 100 appended", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("replay out of order at %d: %v", i, ids[i-3:i+1])
		}
	}
	if ids[len(ids)-1] != 99 {
		t.Fatalf("replay ends at %d, want 99", ids[len(ids)-1])
	}
}

func TestBatchedFlushDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.qlog")
	l, err := Open(path, Options{FlushInterval: 5 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(7, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() > headerBytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batched flush never landed on disk")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSourceAggregatorDecay(t *testing.T) {
	a := NewSourceAggregator(4)
	// Source 1 queried heavily early, source 2 lightly but recently: with a
	// 4-record half-life the recent source must dominate.
	for i := 0; i < 20; i++ {
		a.Add(1)
	}
	for i := 0; i < 8; i++ {
		a.Add(2)
	}
	top := a.TopSources(2)
	if len(top) != 2 || top[0] != 2 || top[1] != 1 {
		t.Fatalf("TopSources = %v, want [2 1]", top)
	}
	if a.Records() != 28 {
		t.Fatalf("Records = %d, want 28", a.Records())
	}
	// k beyond distinct sources clamps; k<=0 is empty.
	if got := a.TopSources(10); len(got) != 2 {
		t.Fatalf("TopSources(10) returned %d sources, want 2", len(got))
	}
	if got := a.TopSources(0); got != nil {
		t.Fatalf("TopSources(0) = %v, want nil", got)
	}
}

func TestAggregatorRenormalization(t *testing.T) {
	a := NewSourceAggregator(1) // doubles every record: overflows fast without renormalization
	for i := 0; i < 5000; i++ {
		a.Add(graph.NodeID(i % 3))
	}
	top := a.TopSources(3)
	if len(top) != 3 {
		t.Fatalf("TopSources = %v, want 3 sources", top)
	}
	// The most recent add (i=4999 → source 1) must rank first.
	if top[0] != 1 {
		t.Fatalf("TopSources[0] = %d, want 1 (most recent)", top[0])
	}
}

func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.qlog")
	l, err := Open(path, Options{FlushInterval: time.Millisecond, MaxBytes: 8 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 200
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				if err := l.Append(testRecord(graph.NodeID(w), i)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Stats().Appended; got != workers*per {
		t.Fatalf("Appended = %d, want %d", got, workers*per)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Whatever survives rotation must replay cleanly.
	if _, err := Replay(path, nil); err != nil {
		t.Fatal(err)
	}
}

// renameFails is the real file system with a rename that always fails.
type renameFails struct{ frame.OS }

var errRename = errors.New("injected rename failure")

func (renameFails) Rename(string, string) error { return errRename }

// TestRotationFailureIsSticky: when the rename of a rotation fails the active
// file is already closed; every later Append, and Close, must report that
// rename error rather than "file already closed".
func TestRotationFailureIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.qlog")
	l, err := open(renameFails{}, path, Options{FlushInterval: -1, MaxBytes: 200}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var first error
	for i := 0; first == nil; i++ {
		if i > 10 {
			t.Fatal("no rotation attempted within 10 appends of ~40 bytes")
		}
		first = l.Append(testRecord(1, i))
	}
	if !errors.Is(first, errRename) {
		t.Fatalf("Append at the rotation point = %v, want the rename failure", first)
	}
	if err := l.Append(testRecord(1, 99)); !errors.Is(err, errRename) {
		t.Fatalf("Append after the failed rotation = %v, want the rename failure", err)
	}
	if err := l.Close(); !errors.Is(err, errRename) {
		t.Fatalf("Close after the failed rotation = %v, want the rename failure", err)
	}
	// Everything appended before the rotation was committed by it.
	if n, err := Replay(path, nil); err != nil || n == 0 {
		t.Fatalf("Replay after the failed rotation = %d, %v", n, err)
	}
}

// TestAppendSteadyStateAllocs: in batched mode an Append on a source seen
// before encodes into the log's reused buffers and touches no file.
func TestAppendSteadyStateAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.qlog")
	l, err := Open(path, Options{FlushInterval: time.Hour, MaxBytes: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := testRecord(7, 1)
	for i := 0; i < 4096; i++ { // past the first 64 KiB flush: the buffers have their final size
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() { l.Append(rec) }); allocs != 0 {
		t.Fatalf("steady-state Append allocates %v objects per call, want 0", allocs)
	}
}

package server

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastppv/internal/lru"
)

// noRetain is a compute stand-in: it ends its flight without retaining, as
// every computation does when the result cache is disabled.
func noRetain(ans *cachedAnswer) func(func(*cachedAnswer, int64, bool)) (*cachedAnswer, error) {
	return func(end func(*cachedAnswer, int64, bool)) (*cachedAnswer, error) {
		end(ans, ans.sizeBytes(), true)
		return ans, nil
	}
}

// TestFlightGroupCoalesces verifies that concurrent identical requests share
// one in-flight computation even with the result cache disabled. The leader
// blocks inside its load on a gate while the followers arrive; every caller
// that joined the flight must observe the leader's answer, and executions +
// coalesced must account for every caller.
func TestFlightGroupCoalesces(t *testing.T) {
	c := NewCache(-1, cacheShards)
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	var executions atomic.Int64

	want := fakeAnswer()
	// Both the leader and any follower that (unluckily) becomes its own
	// leader run the same gated load, so results are identical either way
	// and the accounting identity below is exact.
	blockingFn := func(signal chan<- struct{}) func(func(*cachedAnswer, int64, bool)) (*cachedAnswer, error) {
		return func(end func(*cachedAnswer, int64, bool)) (*cachedAnswer, error) {
			executions.Add(1)
			if signal != nil {
				close(signal)
			}
			<-gate
			return noRetain(want)(end)
		}
	}

	const callers = 17
	var wg sync.WaitGroup
	var sharedCount atomic.Int64

	wg.Add(1)
	go func() {
		defer wg.Done()
		ans, _, err := c.Do(key(1), nil, blockingFn(leaderIn))
		if err != nil || ans != want {
			t.Errorf("leader: ans=%v err=%v", ans, err)
		}
	}()
	<-leaderIn // the computation is provably in flight

	entered := make(chan struct{}, callers-1)
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entered <- struct{}{}
			ans, outcome, err := c.Do(key(1), nil, blockingFn(nil))
			if err != nil || ans != want {
				t.Errorf("follower %d: ans=%v err=%v", i, ans, err)
			}
			if outcome == lru.Shared {
				sharedCount.Add(1)
			}
		}(i)
	}
	for i := 1; i < callers; i++ {
		<-entered
	}
	// Give the followers a moment to reach the flight before opening the
	// gate; any straggler simply runs the same gated load and is counted by
	// the executions/coalesced identity.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got, want := executions.Load()+sharedCount.Load(), int64(callers); got != want {
		t.Fatalf("executions %d + shared %d = %d, want %d callers",
			executions.Load(), sharedCount.Load(), got, want)
	}
	if sharedCount.Load() == 0 {
		t.Fatal("no request was coalesced despite a gated in-flight leader")
	}
	st := c.Stats()
	if st.Coalesced != sharedCount.Load() {
		t.Fatalf("Coalesced = %d, want %d", st.Coalesced, sharedCount.Load())
	}
	if st.Entries != 0 || st.Puts != 0 {
		t.Fatalf("a disabled cache retained answers: %+v", st)
	}
}

// TestFlightGroupDistinctKeys verifies independent keys do not serialize or
// cross answers.
func TestFlightGroupDistinctKeys(t *testing.T) {
	c := NewCache(-1, cacheShards)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fakeAnswer()
			ans, outcome, err := c.Do(key(i), nil, noRetain(want))
			if err != nil || outcome != lru.Loaded {
				t.Errorf("key %d: err=%v outcome=%v", i, err, outcome)
			}
			if ans != want {
				t.Errorf("key %d: got answer for another key", i)
			}
		}(i)
	}
	wg.Wait()
	if st := c.Stats(); st.Coalesced != 0 {
		t.Errorf("Coalesced = %d, want 0", st.Coalesced)
	}
}

// TestServerDisabledCacheCoalesces checks the serving path with the result
// cache off: concurrent identical queries share one computation, and every
// one of them is reported as a cache bypass. Holding the leader's first
// record read keeps its computation in flight until every follower has
// joined.
func TestServerDisabledCacheCoalesces(t *testing.T) {
	engine, idx := hookEngine(t, socialGraph(t, 300), 30)
	srv, err := New(engine, Config{CacheBytes: -1, MaxConcurrent: 64, QueueWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	states := make([]cacheState, callers)
	gate := make(chan struct{})
	idx.readGate.Store(&gate)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ans, state, err := srv.answer(queryRequest{node: 42, eta: 2, top: 10})
			if err != nil || ans == nil {
				t.Errorf("caller %d: ans=%v err=%v", i, ans, err)
			}
			states[i] = state
		}(i)
	}
	for srv.cache.Stats().Coalesced < callers-1 {
		runtime.Gosched()
	}
	idx.readGate.Store(nil)
	close(gate)
	wg.Wait()

	for i, st := range states {
		if st != cacheBypass {
			t.Errorf("caller %d: cache state %q, want bypass", i, st)
		}
	}
	if adm := srv.adm.stats(); adm.Admitted != 1 {
		t.Errorf("%d computations for %d identical queries, want 1", adm.Admitted, callers)
	}
}

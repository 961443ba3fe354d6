package lru

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// identity puts key k on shard k mod n, so tests control placement.
func identity(k int) uint64 { return uint64(k) }

// value is the only value ever stored for key k.
func value(k int) int { return 10 * k }

// retaining is a load that retains value(k) at size.
func retaining(k int, size int64) func(func(int, int64, bool)) (int, error) {
	return func(end func(int, int64, bool)) (int, error) {
		end(value(k), size, true)
		return value(k), nil
	}
}

func mustGet(t *testing.T, c *Cache[int, int], k int, want bool) {
	t.Helper()
	v, ok := c.Get(k)
	if ok != want || (ok && v != value(k)) {
		t.Errorf("Get(%d) = %d, %v; want present=%v", k, v, ok, want)
	}
}

func mustDo(t *testing.T, c *Cache[int, int], k int, load func(func(int, int64, bool)) (int, error), want Outcome) {
	t.Helper()
	v, got, err := c.Do(k, nil, load)
	if err != nil || v != value(k) || got != want {
		t.Errorf("Do(%d) = %d, %v, %v; want %d, %v", k, v, got, err, value(k), want)
	}
}

// TestCache runs the behaviour both cache users rely on against one shard
// (so LRU order is global) and checks the counters after each case.
func TestCache(t *testing.T) {
	cases := []struct {
		name   string
		budget int64
		run    func(t *testing.T, c *Cache[int, int])
		want   Stats
	}{{
		name:   "least recently used is evicted first",
		budget: 250,
		run: func(t *testing.T, c *Cache[int, int]) {
			c.Put(1, value(1), 100)
			c.Put(2, value(2), 100)
			mustGet(t, c, 1, true)
			c.Put(3, value(3), 100) // 2 is now least recently used
			mustGet(t, c, 2, false)
			mustGet(t, c, 1, true)
			mustGet(t, c, 3, true)
		},
		want: Stats{Hits: 3, Misses: 1, Puts: 3, Evictions: 1, Entries: 2, Bytes: 200},
	}, {
		name:   "bytes follow puts, replacements and evictions",
		budget: 1000,
		run: func(t *testing.T, c *Cache[int, int]) {
			c.Put(1, value(1), 300)
			c.Put(2, value(2), 400)
			c.Put(1, value(1), 500) // replaces: 900 bytes, not 1200
			if st := c.Stats(); st.Bytes != 900 {
				t.Errorf("bytes after replace = %d, want 900", st.Bytes)
			}
			c.Put(3, value(3), 600) // evicts 2, then 1
			mustGet(t, c, 3, true)
		},
		want: Stats{Hits: 1, Puts: 4, Evictions: 2, Entries: 1, Bytes: 600},
	}, {
		name:   "a value larger than the shard budget is served, not retained",
		budget: 100,
		run: func(t *testing.T, c *Cache[int, int]) {
			c.Put(1, value(1), 1000)
			mustGet(t, c, 1, false)
			mustDo(t, c, 2, retaining(2, 101), Loaded)
			mustGet(t, c, 2, false)
		},
		want: Stats{Misses: 3, Loads: 1},
	}, {
		name:   "a replacement counts as a put",
		budget: 1 << 20,
		run: func(t *testing.T, c *Cache[int, int]) {
			c.Put(1, value(1), 100)
			c.Put(1, value(1), 120)
			c.Put(2, value(2), 100)
		},
		want: Stats{Puts: 3, Entries: 2, Bytes: 220},
	}, {
		name:   "invalidation by key",
		budget: 1 << 20,
		run: func(t *testing.T, c *Cache[int, int]) {
			c.Put(1, value(1), 100)
			c.Put(2, value(2), 100)
			if !c.Invalidate(1) || c.Invalidate(3) {
				t.Error("Invalidate reported the wrong keys as dropped")
			}
			mustGet(t, c, 1, false)
			mustGet(t, c, 2, true)
		},
		want: Stats{Hits: 1, Misses: 1, Puts: 2, Invalidations: 1, Entries: 1, Bytes: 100},
	}, {
		name:   "invalidation by predicate",
		budget: 1 << 20,
		run: func(t *testing.T, c *Cache[int, int]) {
			for k := 1; k <= 4; k++ {
				c.Put(k, value(k), 100)
			}
			if n := c.InvalidateFunc(func(k, v int) bool { return k%2 == 0 && v == value(k) }); n != 2 {
				t.Errorf("InvalidateFunc dropped %d, want 2", n)
			}
			mustGet(t, c, 2, false)
			mustGet(t, c, 3, true)
		},
		want: Stats{Hits: 1, Misses: 1, Puts: 4, Invalidations: 2, Entries: 2, Bytes: 200},
	}, {
		name:   "a load invalidated in flight is not retained",
		budget: 1 << 20,
		run: func(t *testing.T, c *Cache[int, int]) {
			mustDo(t, c, 1, func(end func(int, int64, bool)) (int, error) {
				c.Invalidate(1) // an update lands while the load reads
				return retaining(1, 100)(end)
			}, Loaded)
			mustGet(t, c, 1, false)
		},
		want: Stats{Misses: 2, Loads: 1},
	}, {
		name:   "an ended flight is not joined",
		budget: 1 << 20,
		run: func(t *testing.T, c *Cache[int, int]) {
			// After end, a Do of the same key does not wait for this load:
			// it hits what end retained, or runs a load of its own.
			mustDo(t, c, 1, func(end func(int, int64, bool)) (int, error) {
				end(value(1), 100, true)
				mustDo(t, c, 1, nil, Hit)
				return value(1), nil
			}, Loaded)
			mustDo(t, c, 2, func(end func(int, int64, bool)) (int, error) {
				end(value(2), 100, false)
				mustDo(t, c, 2, retaining(2, 100), Loaded)
				return value(2), nil
			}, Loaded)
		},
		want: Stats{Hits: 1, Misses: 3, Loads: 3, Puts: 2, Entries: 2, Bytes: 200},
	}, {
		name:   "a failed load is not retained",
		budget: 1 << 20,
		run: func(t *testing.T, c *Cache[int, int]) {
			boom := errors.New("boom")
			for i := 0; i < 2; i++ {
				if _, _, err := c.Do(1, nil, func(func(int, int64, bool)) (int, error) { return 0, boom }); err != boom {
					t.Errorf("Do err = %v, want boom", err)
				}
			}
		},
		want: Stats{Misses: 2, Loads: 2},
	}, {
		name:   "concurrent misses share one load",
		budget: 1 << 20,
		run: func(t *testing.T, c *Cache[int, int]) {
			const callers = 16
			gate := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if v, _, err := c.Do(7, nil, func(end func(int, int64, bool)) (int, error) {
						<-gate
						return retaining(7, 100)(end)
					}); err != nil || v != value(7) {
						t.Errorf("Do(7) = %d, %v", v, err)
					}
				}()
			}
			for c.Stats().Coalesced < callers-1 {
				runtime.Gosched()
			}
			close(gate)
			wg.Wait()
		},
		want: Stats{Misses: 16, Coalesced: 15, Loads: 1, Puts: 1, Entries: 1, Bytes: 100},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[int, int](tc.budget, 1, identity)
			tc.run(t, c)
			tc.want.BudgetBytes = tc.budget
			if got := c.Stats(); got != tc.want {
				t.Errorf("stats = %+v\n         want %+v", got, tc.want)
			}
		})
	}
}

// TestCacheShardsSplitBudget checks that each shard holds its own share of
// the budget and its own LRU order.
func TestCacheShardsSplitBudget(t *testing.T) {
	c := New[int, int](400, 2, identity) // 200 bytes a shard
	for k := 0; k < 6; k++ {
		c.Put(k, value(k), 100)
	}
	// Shard 0 kept 2 and 4, shard 1 kept 3 and 5.
	for k := 0; k < 6; k++ {
		mustGet(t, c, k, k >= 2)
	}
	if st := c.Stats(); st.Evictions != 2 || st.Bytes != 400 {
		t.Errorf("stats = %+v, want 2 evictions and 400 bytes", st)
	}
}

// TestDoPanickingLoad checks that a load that panics does not wedge its key:
// the panic reaches the caller that ran the load, a caller sharing the flight
// gets ErrLoadPanicked, and the next Do of the key runs a load of its own.
func TestDoPanickingLoad(t *testing.T) {
	c := New[int, int](1<<20, 1, identity)
	follower := make(chan error, 1)
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		c.Do(1, nil, func(func(int, int64, bool)) (int, error) {
			go func() {
				_, _, err := c.Do(1, nil, retaining(1, 100))
				follower <- err
			}()
			for c.Stats().Coalesced == 0 {
				runtime.Gosched()
			}
			panic("load failed")
		})
	}()
	second := make(chan Outcome, 1)
	go func() {
		if got := <-leader; got != "load failed" {
			t.Errorf("leader recovered %v, want the load's panic", got)
		}
		_, out, _ := c.Do(1, nil, retaining(1, 100))
		second <- out
	}()
	timeout := time.After(10 * time.Second)
	select {
	case err := <-follower:
		if err != ErrLoadPanicked {
			t.Errorf("follower err = %v, want ErrLoadPanicked", err)
		}
	case <-timeout:
		t.Fatal("a caller sharing a panicked load never returned")
	}
	select {
	case out := <-second:
		if out != Loaded {
			t.Errorf("Do after the panic: outcome %v, want a fresh load", out)
		}
	case <-timeout:
		t.Fatal("Do of a key whose load panicked never returned")
	}
}

// TestDoStale checks Do's freshness test: a retained value that fails it is
// dropped and the lookup is a miss, not a hit, and a caller that shared a
// flight whose value fails it loads again instead of returning that value.
func TestDoStale(t *testing.T) {
	c := New[int, int](1<<20, 1, identity)
	never := func(int) bool { return false }
	c.Put(1, value(1), 100)
	if v, out, err := c.Do(1, never, retaining(1, 100)); err != nil || v != value(1) || out != Loaded {
		t.Errorf("Do of a stale retained value = %d, %v, %v; want a load", v, out, err)
	}
	want := Stats{Misses: 1, Loads: 1, Puts: 2, Invalidations: 1, Entries: 1, Bytes: 100, BudgetBytes: 1 << 20}
	if st := c.Stats(); st != want {
		t.Errorf("stats after a stale lookup = %+v\n                           want %+v", st, want)
	}

	gate := make(chan struct{})
	led := make(chan struct{})
	go func() {
		defer close(led)
		c.Do(2, nil, func(func(int, int64, bool)) (int, error) {
			<-gate
			return value(2), nil // served, not retained
		})
	}()
	for c.Stats().Loads < 2 {
		runtime.Gosched()
	}
	follower := make(chan Outcome, 1)
	calls := 0
	go func() {
		_, out, _ := c.Do(2, func(int) bool { calls++; return calls > 1 }, retaining(2, 100))
		follower <- out
	}()
	for c.Stats().Coalesced == 0 {
		runtime.Gosched()
	}
	close(gate)
	<-led
	if out := <-follower; out != Loaded {
		t.Errorf("a caller sharing a stale flight: outcome %v, want its own load", out)
	}
	if st := c.Stats(); st.Misses != 3 || st.Coalesced != 1 || st.Loads != 3 || st.Hits != 0 {
		t.Errorf("stats after a stale shared flight = %+v, want 3 misses, 1 coalesced, 3 loads, no hit", st)
	}
}

// TestCacheConcurrentAccounting drives Get, Put, Do and both invalidations on
// overlapping keys from 8 goroutines (run it under -race); afterwards the
// byte count must equal the sizes of the values still retained.
func TestCacheConcurrentAccounting(t *testing.T) {
	const keys = 32
	size := func(k int) int64 { return int64(50 + k) }
	c := New[int, int](1200, 4, identity) // room for about 16 of 32 keys
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				k := rng.Intn(keys)
				switch op := rng.Intn(20); {
				case op < 8:
					if v, ok := c.Get(k); ok && v != value(k) {
						t.Errorf("Get(%d) = %d", k, v)
					}
				case op < 16:
					// A quarter of the values Do is handed, retained or
					// shared, fail its freshness test.
					fresh := func(int) bool { return rng.Intn(4) != 0 }
					if v, _, err := c.Do(k, fresh, retaining(k, size(k))); err != nil || v != value(k) {
						t.Errorf("Do(%d) = %d, %v", k, v, err)
					}
				case op < 18:
					c.Put(k, value(k), size(k))
				case op < 19:
					c.Invalidate(k)
				default:
					c.InvalidateFunc(func(key, _ int) bool { return key%7 == g%7 })
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	var retained int64
	entries := 0
	for k := 0; k < keys; k++ {
		if _, ok := c.Get(k); ok {
			retained += size(k)
			entries++
		}
	}
	if st.Bytes != retained || st.Entries != entries {
		t.Fatalf("accounted %d bytes in %d entries, retained %d bytes in %d", st.Bytes, st.Entries, retained, entries)
	}
	if st.Bytes > st.BudgetBytes {
		t.Fatalf("%d bytes retained over a %d budget", st.Bytes, st.BudgetBytes)
	}
}

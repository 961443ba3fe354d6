// Package prime implements prime PPVs (Definition 2 of the paper). The prime
// PPV of a node v is the reachability from v to every node through hub-free
// tours only: tours whose interior traverses no hub. Prime PPVs of hub nodes
// are the precomputed building blocks of FastPPV's offline phase, and the
// prime PPV of the query node is iteration 0 of the online phase.
//
// Rather than first materializing the prime subgraph and then running power
// iteration on it, the package runs an equivalent localized forward push that
// expands tours outward from the source, backtracking at hub nodes (border
// hubs of the prime subgraph) and at "faraway" nodes whose reachability falls
// below the Epsilon threshold, exactly as the depth-first search of Sect. 5.1
// prescribes. Transition probabilities always use the out-degree of the full
// graph, so the resulting scores are reachabilities in the sense of Eq. 2.
//
// There is one kernel, Scratch.Push: it runs the push over a reusable dense
// per-node scratch and emits the result as []sparse.Entry sorted by node id —
// the same flat form the index record, the query accumulator and the wire
// use — so neither precompute nor iteration 0 builds a map or sorts. The
// engine calls it directly; ComputePPV is a convenience wrapper for callers
// that want a map.
package prime

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"fastppv/internal/graph"
	"fastppv/internal/hub"
	"fastppv/internal/pagerank"
	"fastppv/internal/sparse"
)

// Adjacency is the minimal read-only graph view needed to grow a prime
// subgraph. *graph.Graph satisfies it; the disk-resident cluster view in
// internal/diskgraph satisfies it too, which is how cluster faults are
// charged to prime-subgraph identification.
type Adjacency interface {
	NumNodes() int
	OutDegree(graph.NodeID) int
	OutNeighbors(graph.NodeID) []graph.NodeID
}

// DefaultEpsilon is the faraway-node reachability threshold of Sect. 5.1.
const DefaultEpsilon = 1e-8

// Options configure prime PPV computation.
type Options struct {
	// Alpha is the teleporting probability; zero means pagerank.DefaultAlpha.
	Alpha float64
	// Epsilon is the faraway threshold: tours are not extended past a node
	// whose accumulated reachability is below Epsilon. Zero means
	// DefaultEpsilon.
	Epsilon float64
	// MaxPushes caps the number of node expansions as a safety valve on
	// pathological graphs; zero means 50 million.
	MaxPushes int
}

func (o Options) withDefaults() (Options, error) {
	if o.Alpha == 0 {
		o.Alpha = pagerank.DefaultAlpha
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return o, fmt.Errorf("prime: alpha %v outside (0,1)", o.Alpha)
	}
	if o.Epsilon == 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.Epsilon < 0 {
		return o, errors.New("prime: negative epsilon")
	}
	if o.MaxPushes == 0 {
		o.MaxPushes = 50_000_000
	}
	if o.MaxPushes < 0 {
		return o, errors.New("prime: negative MaxPushes")
	}
	return o, nil
}

// Stats describes the work done to compute one prime PPV; the offline and
// online complexity analyses of Sect. 5 are validated against these counters.
type Stats struct {
	// Pushes is the number of node expansions performed.
	Pushes int
	// NodesTouched is the number of distinct nodes that received mass, i.e.
	// the size of the prime subgraph (including border hubs).
	NodesTouched int
	// BorderHubs is the number of distinct hub nodes reached, |H'(v)|.
	BorderHubs int
	// Truncated reports whether MaxPushes stopped the expansion early.
	Truncated bool
	// Clipped is the number of entries the storage clip dropped at emit.
	Clipped int
}

// cell is the per-node push state. One node's settled mass, pending mass,
// epoch stamp and in-queue flag share a 24-byte cell so a touch is one cache
// line; a cell whose stamp differs from the scratch's epoch is logically zero.
type cell struct {
	// reach accumulates the settled reachability mass of hub-free tours from
	// the source (without the trailing alpha stop factor).
	reach float64
	// residual holds mass that still has to be either settled or expanded.
	residual float64
	epoch    uint32
	inQueue  bool
}

// Scratch is the reusable working set of the push: a dense cell per node, a
// touched-node bitmap and the FIFO worklist. It costs 24 B + 1 bit per node
// of the largest graph it has served and is reset in O(touched) — the epoch
// stamp invalidates the cells, emit clears the bitmap — so a warmed scratch
// pushes without allocating. The zero value is ready to use; a Scratch may be
// reused across graphs of any size but not concurrently.
type Scratch struct {
	cells   []cell
	touched []uint64 // bit v set: cells[v] carries this push's epoch
	queue   []graph.NodeID
	out     []sparse.Entry
	epoch   uint32
	// dirty is set while a push is between its first touch and the end of
	// emit; a push that finds it set (its predecessor panicked, e.g. on an
	// adjacency that returned an out-of-range neighbour) clears the bitmap.
	dirty bool
}

// begin sizes the scratch for n nodes and opens a new epoch.
func (s *Scratch) begin(n int) {
	if len(s.cells) < n {
		s.cells = make([]cell, n)
		s.touched = make([]uint64, (n+63)/64)
	} else if s.dirty {
		clear(s.touched)
	}
	s.dirty = true
	s.queue = s.queue[:0]
	if s.epoch == math.MaxUint32 {
		// Stamp wraparound: stale cells could alias the restarted counter.
		clear(s.cells)
		s.epoch = 0
	}
	s.epoch++
}

// spread adds share to the residual of every neighbour, enqueueing the ones
// not already waiting.
func (s *Scratch) spread(neighbors []graph.NodeID, share float64) {
	cells, epoch, queue := s.cells, s.epoch, s.queue
	for _, v := range neighbors {
		c := &cells[v]
		if c.epoch != epoch {
			*c = cell{epoch: epoch}
			s.touched[v>>6] |= 1 << (uint(v) & 63)
		}
		c.residual += share
		if !c.inQueue {
			c.inQueue = true
			queue = append(queue, v)
		}
	}
	s.queue = queue
}

// Push computes the prime PPV of src with respect to the hub set and returns
// it as entries sorted by strictly ascending node id. The result includes the
// src self-entry contributed by the empty tour (score alpha), plus the
// reachability of every node on hub-free tours from src; entries at hub nodes
// are the "border hub" entries used to extend tours in later FastPPV
// iterations. Entries scoring below clip are dropped (and counted in
// Stats.Clipped); pass 0 to keep everything.
//
// The returned entries alias the scratch and are invalid after its next Push:
// fold or copy them first.
func (s *Scratch) Push(g Adjacency, src graph.NodeID, hubs *hub.Set, opts Options, clip float64) ([]sparse.Entry, Stats, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, Stats{}, err
	}
	n := g.NumNodes()
	if src < 0 || int(src) >= n {
		return nil, Stats{}, fmt.Errorf("prime: %w: source %d", graph.ErrNodeOutOfRange, src)
	}
	s.begin(n)
	cells := s.cells
	var stats Stats

	// The walk starts at src: the empty tour contributes mass 1 at src, and
	// the first step fans out over src's out-edges. This initial expansion is
	// done outside the loop because only the *starting* occurrence of src is
	// exempt from hub blocking — if src is itself a hub and a tour later
	// returns to it, that interior occurrence counts towards hub length and
	// must not be expanded further (Definition 1 excludes only the start and
	// end positions, not every occurrence of the start node).
	cells[src] = cell{reach: 1, epoch: s.epoch}
	s.touched[src>>6] |= 1 << (uint(src) & 63)
	stats.Pushes++
	if deg := g.OutDegree(src); deg > 0 {
		s.spread(g.OutNeighbors(src), (1-opts.Alpha)/float64(deg))
	}

	// The worklist is processed in FIFO order: breadth-first processing keeps
	// the residual arriving at a node batched into few expansions, so the
	// number of pushes stays near (prime-subgraph size) x (decay rounds) even
	// for very small Epsilon. Depth-first order would degenerate into
	// enumerating individual tours. The order is also what fixes each node's
	// floating-point addition sequence, i.e. the answer bits.
	for head := 0; head < len(s.queue); head++ {
		if stats.Pushes >= opts.MaxPushes {
			stats.Truncated = true
			break
		}
		if head > 1<<16 && head*2 > len(s.queue) {
			// Reclaim the consumed prefix of the worklist.
			s.queue = append(s.queue[:0], s.queue[head:]...)
			head = 0
		}
		u := s.queue[head]
		c := &cells[u]
		c.inQueue = false
		r := c.residual
		if r == 0 {
			continue
		}
		c.residual = 0
		c.reach += r
		stats.Pushes++

		// Tours may not be extended through an interior hub.
		if hubs.Contains(u) {
			continue
		}
		// Faraway node: keep its mass but stop extending tours through it.
		if r < opts.Epsilon {
			continue
		}
		deg := g.OutDegree(u)
		if deg == 0 {
			continue // dangling: the walk is absorbed
		}
		s.spread(g.OutNeighbors(u), r*(1-opts.Alpha)/float64(deg))
	}

	// Emit in ascending node order by scanning the bitmap, clearing it on the
	// way. Whatever residual is left (nodes reached below the expansion
	// threshold, or left over after truncation) is settled here.
	out := s.out[:0]
	for w, word := range s.touched[:(n+63)/64] {
		if word == 0 {
			continue
		}
		s.touched[w] = 0
		for ; word != 0; word &= word - 1 {
			u := graph.NodeID(w<<6 | bits.TrailingZeros64(word))
			c := &cells[u]
			stats.NodesTouched++
			if u != src && hubs.Contains(u) {
				stats.BorderHubs++
			}
			if score := opts.Alpha * (c.reach + c.residual); score < clip {
				stats.Clipped++
			} else {
				out = append(out, sparse.Entry{Node: u, Score: score})
			}
		}
	}
	s.out = out
	s.dirty = false
	return out, stats, nil
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// ComputePPV is Push on a pooled scratch, copied into a right-sized map. The
// serving engine does not use it — it keeps the flat entries — but tests, the
// experiments and the benchmark's layer ledger want a sparse.Vector.
func ComputePPV(g Adjacency, src graph.NodeID, hubs *hub.Set, opts Options) (sparse.Vector, Stats, error) {
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	entries, stats, err := s.Push(g, src, hubs, opts, 0)
	if err != nil {
		return nil, Stats{}, err
	}
	return sparse.FromEntries(entries), stats, nil
}

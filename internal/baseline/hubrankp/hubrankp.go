// Package hubrankp implements the HubRankP baseline of the paper's evaluation
// (Sect. 6, Baselines): bookmark-coloring style push computation of an
// approximate PPV (Berkhin's BCA), accelerated by a precomputed index of hub
// PPVs chosen by a benefit model. Whenever the push frontier reaches an
// indexed hub, the hub's precomputed PPV is spliced in instead of continuing
// the push below it.
//
// The benefit model of Chakrabarti et al. estimates how much online work an
// indexed hub saves for the expected query workload. Following the paper's
// experimental setup ("we assume a uniformly distributed query log"), the
// benefit of a node is its probability of being touched by a push from a
// uniformly random query, which is proportional to its global PageRank; hubs
// are therefore the top-PageRank nodes weighted by their out-degree fan-out
// cost. The same dangling-node absorption convention as the rest of the
// repository is used, so all methods approximate the same exact PPV.
package hubrankp

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"fastppv/internal/graph"
	"fastppv/internal/pagerank"
	"fastppv/internal/sparse"
)

// Options configure a HubRankP instance.
type Options struct {
	// Alpha is the teleporting probability; zero means pagerank.DefaultAlpha.
	Alpha float64
	// NumHubs is the number of hub PPVs precomputed offline.
	NumHubs int
	// Push is the online residual threshold (the paper's `push` parameter):
	// push processing stops when no node holds residual above Push. Smaller
	// is more accurate and slower. Zero means 1e-4.
	Push float64
	// OfflinePush is the residual threshold used when precomputing hub PPVs;
	// zero means Push/10.
	OfflinePush float64
	// Clip discards stored hub PPV entries below this score; zero means 1e-4,
	// negative disables clipping.
	Clip float64
	// PageRank optionally supplies precomputed global PageRank scores for the
	// benefit model.
	PageRank []float64
	// MaxPushes caps the number of push operations per PPV computation as a
	// safety valve. Zero means 50 million.
	MaxPushes int
}

func (o Options) withDefaults() (Options, error) {
	if o.Alpha == 0 {
		o.Alpha = pagerank.DefaultAlpha
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return o, fmt.Errorf("hubrankp: alpha %v outside (0,1)", o.Alpha)
	}
	if o.Push == 0 {
		o.Push = 1e-4
	}
	if o.Push < 0 {
		return o, errors.New("hubrankp: negative Push threshold")
	}
	if o.OfflinePush == 0 {
		o.OfflinePush = o.Push / 10
	}
	if o.Clip == 0 {
		o.Clip = 1e-4
	}
	if o.Clip < 0 {
		o.Clip = 0
	}
	if o.NumHubs < 0 {
		return o, errors.New("hubrankp: negative NumHubs")
	}
	if o.MaxPushes == 0 {
		o.MaxPushes = 50_000_000
	}
	return o, nil
}

// OfflineStats reports the cost of Precompute. IndexBytes charges the hub
// PPVs in FastPPV's record layout (an 8-byte hub header, then the payload of
// sparse.AppendEncoded), so that the offline-space figures (13-15) compare
// the algorithms, not two encodings.
type OfflineStats struct {
	Hubs         int
	Total        time.Duration
	IndexBytes   int64
	IndexEntries int64
}

// Ranker is a HubRankP instance bound to a graph. Create it with New, call
// Precompute once, then Query for each query node. It is safe for concurrent
// queries after Precompute.
type Ranker struct {
	g       *graph.Graph
	opts    Options
	hubPPVs map[graph.NodeID]sparse.Vector
	offline OfflineStats
}

// New creates a HubRankP ranker over g.
func New(g *graph.Graph, opts Options) (*Ranker, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if g == nil || g.NumNodes() == 0 {
		return nil, errors.New("hubrankp: empty graph")
	}
	return &Ranker{g: g, opts: opts, hubPPVs: make(map[graph.NodeID]sparse.Vector)}, nil
}

// OfflineStats returns the statistics of the last Precompute run.
func (r *Ranker) OfflineStats() OfflineStats { return r.offline }

// Hubs returns the indexed hub nodes.
func (r *Ranker) Hubs() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(r.hubPPVs))
	for h := range r.hubPPVs {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Precompute selects hubs by the benefit model and precomputes their PPVs
// with the offline push threshold. Hubs are processed in descending benefit
// order so that later hubs can splice in the PPVs of earlier ones, which is
// what makes HubRankP's offline phase cheaper than independent pushes (but
// still substantially more expensive than FastPPV's prime PPVs, since each
// hub PPV spans its whole reachable neighbourhood).
func (r *Ranker) Precompute() error {
	start := time.Now()
	pr := r.opts.PageRank
	if pr == nil {
		var err error
		pr, err = pagerank.Global(r.g, pagerank.Options{Alpha: r.opts.Alpha})
		if err != nil {
			return err
		}
	}
	n := r.g.NumNodes()
	if len(pr) != n {
		return fmt.Errorf("hubrankp: PageRank vector has %d entries for %d nodes", len(pr), n)
	}
	numHubs := r.opts.NumHubs
	if numHubs > n {
		numHubs = n
	}
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	// Benefit of indexing v under a uniform query log: how often pushes touch
	// v (PageRank) times the fan-out work saved when they do (out-degree).
	benefit := func(v graph.NodeID) float64 {
		return pr[v] * float64(1+r.g.OutDegree(v))
	}
	sort.Slice(order, func(i, j int) bool {
		bi, bj := benefit(order[i]), benefit(order[j])
		if bi != bj {
			return bi > bj
		}
		return order[i] < order[j]
	})

	r.hubPPVs = make(map[graph.NodeID]sparse.Vector, numHubs)
	for _, h := range order[:numHubs] {
		ppv := r.push(h, r.opts.OfflinePush)
		if r.opts.Clip > 0 {
			ppv.Clip(r.opts.Clip)
		}
		r.hubPPVs[h] = ppv
	}
	r.offline = OfflineStats{
		Hubs:  numHubs,
		Total: time.Since(start),
	}
	for _, v := range r.hubPPVs {
		r.offline.IndexEntries += int64(v.NonZeros())
		r.offline.IndexBytes += 8 + int64(len(sparse.AppendEncoded(nil, v.AppendSorted(nil))))
	}
	return nil
}

// Result is the outcome of one online query.
type Result struct {
	Estimate sparse.Vector
	// Pushes is the number of push operations performed online.
	Pushes int
	// HubHits is the number of times a precomputed hub PPV was spliced in.
	HubHits int
	// EntriesMerged is the number of hub-PPV entries those splices added
	// into the estimate.
	EntriesMerged int
	Duration      time.Duration
}

// Query computes an approximate PPV for q using bookmark-coloring push with
// hub reuse at the online threshold.
func (r *Ranker) Query(q graph.NodeID) (*Result, error) {
	if !r.g.Valid(q) {
		return nil, fmt.Errorf("hubrankp: %w: query %d", graph.ErrNodeOutOfRange, q)
	}
	start := time.Now()
	res := &Result{}
	res.Estimate = r.pushWithStats(q, r.opts.Push, res)
	res.Duration = time.Since(start)
	return res, nil
}

// push runs the bookmark-coloring algorithm from src down to the given
// residual threshold. Indexed hub PPVs are spliced in whenever the push
// frontier reaches a hub other than src; during offline precomputation the
// hubs indexed so far (higher-benefit ones) are spliced in the same way.
func (r *Ranker) push(src graph.NodeID, threshold float64) sparse.Vector {
	return r.pushWithStats(src, threshold, nil)
}

func (r *Ranker) pushWithStats(src graph.NodeID, threshold float64, stats *Result) sparse.Vector {
	alpha := r.opts.Alpha
	estimate := sparse.New(64)
	residual := map[graph.NodeID]float64{src: 1}
	queue := []graph.NodeID{src}
	inQueue := map[graph.NodeID]bool{src: true}
	pushes := 0

	// FIFO processing keeps residual batched, bounding the number of pushes
	// even for small thresholds.
	for head := 0; head < len(queue) && pushes < r.opts.MaxPushes; head++ {
		u := queue[head]
		inQueue[u] = false
		mass := residual[u]
		if mass < threshold {
			continue // below the push threshold; keep as residual
		}
		delete(residual, u)
		pushes++

		if u != src {
			if hubPPV, ok := r.hubPPVs[u]; ok {
				// Splice in the hub's precomputed PPV for the whole walk
				// continuing from u.
				estimate.AddScaled(hubPPV, mass)
				if stats != nil {
					stats.HubHits++
					stats.EntriesMerged += len(hubPPV)
				}
				continue
			}
		}
		estimate.Add(u, alpha*mass)
		deg := r.g.OutDegree(u)
		if deg == 0 {
			continue // absorbed at dangling node
		}
		share := (1 - alpha) * mass / float64(deg)
		for _, v := range r.g.OutNeighbors(u) {
			residual[v] += share
			if !inQueue[v] && residual[v] >= threshold {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
	}
	// Unpushed residual mass is settled locally: the walk is at u and stops
	// there with probability alpha; the continuation is dropped, which is the
	// approximation error of the method.
	for u, mass := range residual {
		estimate.Add(u, alpha*mass)
	}
	if stats != nil {
		stats.Pushes = pushes
	}
	return estimate
}

// Package montecarlo implements the MonteCarlo baseline of the paper's
// evaluation (Sect. 6, Baselines), based on the fingerprint method of Fogaras
// et al.: the PPV of a query node is estimated by simulating N random walks
// ("fingerprints") from the query and recording where they terminate. To
// reduce online work, fingerprints are precomputed offline for a set of hub
// nodes (the top global-PageRank nodes); an online walk that reaches a hub is
// finished by sampling one of the hub's precomputed endpoints instead of
// walking on.
package montecarlo

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fastppv/internal/graph"
	"fastppv/internal/pagerank"
	"fastppv/internal/sparse"
)

// Options configure a MonteCarlo estimator.
type Options struct {
	// Alpha is the teleporting probability; zero means pagerank.DefaultAlpha.
	Alpha float64
	// SamplesPerQuery is N, the number of random walks per online query; zero
	// means 10000.
	SamplesPerQuery int
	// NumHubs is the number of hub nodes whose fingerprints are precomputed
	// offline.
	NumHubs int
	// SamplesPerHub is the number of offline fingerprints per hub; zero means
	// SamplesPerQuery.
	SamplesPerHub int
	// PageRank optionally supplies precomputed global PageRank scores for hub
	// selection.
	PageRank []float64
	// Seed seeds the random number generator used both offline and online.
	Seed int64
	// MaxWalkLength truncates pathological walks; zero means 1000 steps.
	MaxWalkLength int
}

func (o Options) withDefaults() (Options, error) {
	if o.Alpha == 0 {
		o.Alpha = pagerank.DefaultAlpha
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return o, fmt.Errorf("montecarlo: alpha %v outside (0,1)", o.Alpha)
	}
	if o.SamplesPerQuery == 0 {
		o.SamplesPerQuery = 10_000
	}
	if o.SamplesPerQuery < 0 {
		return o, errors.New("montecarlo: negative SamplesPerQuery")
	}
	if o.SamplesPerHub == 0 {
		o.SamplesPerHub = o.SamplesPerQuery
	}
	if o.NumHubs < 0 {
		return o, errors.New("montecarlo: negative NumHubs")
	}
	if o.MaxWalkLength == 0 {
		o.MaxWalkLength = 1000
	}
	return o, nil
}

// OfflineStats reports the cost of Precompute.
type OfflineStats struct {
	Hubs         int
	Total        time.Duration
	IndexBytes   int64
	IndexEntries int64
}

// Estimator is a MonteCarlo PPV estimator bound to a graph.
type Estimator struct {
	g    *graph.Graph
	opts Options
	// fingerprints maps a hub to the multiset of endpoints of its offline
	// walks; sampling one uniformly continues an online walk that hits the
	// hub. The sentinel graph.InvalidNode records walks absorbed at dangling
	// nodes.
	fingerprints map[graph.NodeID][]graph.NodeID
	offline      OfflineStats
}

// New creates an estimator over g.
func New(g *graph.Graph, opts Options) (*Estimator, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if g == nil || g.NumNodes() == 0 {
		return nil, errors.New("montecarlo: empty graph")
	}
	return &Estimator{g: g, opts: opts, fingerprints: make(map[graph.NodeID][]graph.NodeID)}, nil
}

// OfflineStats returns the statistics of the last Precompute run.
func (e *Estimator) OfflineStats() OfflineStats { return e.offline }

// Hubs returns the hubs with precomputed fingerprints.
func (e *Estimator) Hubs() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(e.fingerprints))
	for h := range e.fingerprints {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Precompute samples fingerprints for the top-PageRank hub nodes.
func (e *Estimator) Precompute() error {
	start := time.Now()
	pr := e.opts.PageRank
	if pr == nil {
		var err error
		pr, err = pagerank.Global(e.g, pagerank.Options{Alpha: e.opts.Alpha})
		if err != nil {
			return err
		}
	}
	n := e.g.NumNodes()
	if len(pr) != n {
		return fmt.Errorf("montecarlo: PageRank vector has %d entries for %d nodes", len(pr), n)
	}
	numHubs := e.opts.NumHubs
	if numHubs > n {
		numHubs = n
	}
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		if pr[order[i]] != pr[order[j]] {
			return pr[order[i]] > pr[order[j]]
		}
		return order[i] < order[j]
	})

	rng := rand.New(rand.NewSource(e.opts.Seed))
	e.fingerprints = make(map[graph.NodeID][]graph.NodeID, numHubs)
	for _, h := range order[:numHubs] {
		endpoints := make([]graph.NodeID, e.opts.SamplesPerHub)
		for i := range endpoints {
			endpoints[i] = e.walk(h, rng, nil)
		}
		e.fingerprints[h] = endpoints
	}
	e.offline = OfflineStats{Hubs: numHubs, Total: time.Since(start)}
	for _, fp := range e.fingerprints {
		e.offline.IndexEntries += int64(len(fp))
		e.offline.IndexBytes += 8 + int64(len(fp))*4
	}
	return nil
}

// Result is the outcome of one online query.
type Result struct {
	Estimate sparse.Vector
	// Walks is the number of online random walks simulated.
	Walks int
	// Steps is the number of edges the online walks took.
	Steps int
	// HubHits counts walks finished by sampling a precomputed hub fingerprint.
	HubHits  int
	Duration time.Duration
}

// Query estimates the PPV of q from SamplesPerQuery random walks. Queries are
// deterministic for a fixed Options.Seed and query node.
func (e *Estimator) Query(q graph.NodeID) (*Result, error) {
	if !e.g.Valid(q) {
		return nil, fmt.Errorf("montecarlo: %w: query %d", graph.ErrNodeOutOfRange, q)
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(e.opts.Seed ^ (int64(q)+1)*0x5851f42d4c957f2d))
	counts := make(map[graph.NodeID]int)
	res := &Result{Walks: e.opts.SamplesPerQuery}
	for i := 0; i < e.opts.SamplesPerQuery; i++ {
		end := e.walk(q, rng, res)
		if end != graph.InvalidNode {
			counts[end]++
		}
	}
	est := sparse.New(len(counts))
	for node, c := range counts {
		est[node] = float64(c) / float64(e.opts.SamplesPerQuery)
	}
	res.Estimate = est
	res.Duration = time.Since(start)
	return res, nil
}

// walk simulates one decaying random walk from src and returns its endpoint,
// or graph.InvalidNode when the walk is absorbed at a dangling node. When the
// walk moves onto a hub with precomputed fingerprints (other than src), it is
// finished by sampling one of the hub's endpoints.
func (e *Estimator) walk(src graph.NodeID, rng *rand.Rand, stats *Result) graph.NodeID {
	cur := src
	for step := 0; step < e.opts.MaxWalkLength; step++ {
		if rng.Float64() < e.opts.Alpha {
			return cur
		}
		deg := e.g.OutDegree(cur)
		if deg == 0 {
			return graph.InvalidNode // absorbed
		}
		next := e.g.OutNeighbors(cur)[rng.Intn(deg)]
		if stats != nil {
			stats.Steps++
		}
		if next != src {
			if fp, ok := e.fingerprints[next]; ok && len(fp) > 0 {
				if stats != nil {
					stats.HubHits++
				}
				return fp[rng.Intn(len(fp))]
			}
		}
		cur = next
	}
	return cur
}

package experiments

import (
	"fmt"
	"strings"
	"time"

	"fastppv/internal/accuracy"
	"fastppv/internal/baseline/hubrankp"
	"fastppv/internal/baseline/montecarlo"
	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
	"fastppv/internal/prime"
	"fastppv/internal/sparse"
)

// MethodResult aggregates one method's behaviour over a query workload: the
// average accuracy against exact PPVs, the average online query time and
// work, and the offline precomputation cost. It is the unit every figure's
// table is built from.
type MethodResult struct {
	Method       string
	Accuracy     accuracy.Report
	AvgQueryTime time.Duration
	// Work is the method's online work per query, one count per unit.
	Work         []Work
	OfflineTime  time.Duration
	OfflineBytes int64
}

// Work is one mean count of a method's online work per query, in a unit that
// does not depend on the host: a push, a record read, an entry folded or
// merged, a walk step. Unlike the query time, it is the same on every run.
type Work struct {
	Unit     string
	PerQuery float64
}

// workString renders work as the figures' "work/query" cell.
func workString(work []Work) string {
	cells := make([]string, len(work))
	for i, w := range work {
		cells[i] = fmt.Sprintf("%s=%.1f", w.Unit, w.PerQuery)
	}
	return strings.Join(cells, " ")
}

// ms is d in milliseconds, to the nanosecond: the figures' "ms/query"
// columns.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// method is one method's online phase as evaluate runs it.
type method struct {
	name string
	// query computes an approximate PPV for one query node in the method's
	// own form: a map (the baselines) or sorted entries (FastPPV). Only
	// query is timed.
	query func(q graph.NodeID) (sparse.Vector, []sparse.Entry, error)
	// units names the method's work counters; work counts them for the
	// query just answered, after the clock stops.
	units []string
	work  func(q graph.NodeID) ([]int64, error)
}

// evaluate runs m over the dataset's query workload and scores it against
// the exact PPVs. Only m.query is timed: the map the accuracy metrics read is
// built from entries, and the work is counted, after the clock stops, so no
// method is charged for a change of representation or for its own
// accounting.
func evaluate(d *Dataset, m method) (MethodResult, error) {
	res := MethodResult{Method: m.name}
	if len(d.Queries) == 0 {
		return res, fmt.Errorf("experiments: dataset %s has no queries", d.Name)
	}
	reports := make([]accuracy.Report, 0, len(d.Queries))
	var total time.Duration
	work := make([]int64, len(m.units))
	for _, q := range d.Queries {
		start := time.Now()
		approx, entries, err := m.query(q)
		total += time.Since(start)
		if err != nil {
			return res, fmt.Errorf("experiments: %s query %d: %w", m.name, q, err)
		}
		counts, err := m.work(q)
		if err != nil {
			return res, fmt.Errorf("experiments: %s work of query %d: %w", m.name, q, err)
		}
		for i, c := range counts {
			work[i] += c
		}
		if approx == nil {
			approx = sparse.FromEntries(entries)
		}
		exact, err := d.ExactPPV(q)
		if err != nil {
			return res, fmt.Errorf("experiments: exact PPV of %d: %w", q, err)
		}
		reports = append(reports, accuracy.Evaluate(exact, approx, accuracy.DefaultTopK))
	}
	res.Accuracy = accuracy.Average(reports)
	res.AvgQueryTime = total / time.Duration(len(d.Queries))
	res.Work = perQuery(m.units, work, len(d.Queries))
	return res, nil
}

// perQuery divides each work total by the number of queries.
func perQuery(units []string, totals []int64, queries int) []Work {
	out := make([]Work, len(units))
	for i, u := range units {
		out[i] = Work{Unit: u, PerQuery: float64(totals[i]) / float64(queries)}
	}
	return out
}

// FastPPVConfig is the per-experiment FastPPV parameterization.
type FastPPVConfig struct {
	NumHubs    int
	Iterations int
	Options    core.Options
}

// fastEngine is a precomputed FastPPV engine whose queries can be replayed to
// count their work.
type fastEngine struct {
	*core.Engine
	reads *readCount
}

// fastUnits are FastPPV's work units: the pushes of the query node's prime
// PPV (zero for a hub, whose record is read instead), the hub records read
// and the entries those records hold, each folded into the estimate.
var fastUnits = []string{"prime_pushes", "records_read", "entries_folded"}

// buildFastPPV precomputes a FastPPV engine for the dataset, over an index
// that counts record reads when asked to.
func buildFastPPV(d *Dataset, cfg FastPPVConfig) (fastEngine, error) {
	opts := cfg.Options
	opts.NumHubs = cfg.NumHubs
	if opts.PageRank == nil {
		opts.PageRank = d.PageRank
	}
	reads := &readCount{}
	engine, err := core.NewEngine(d.Graph, countingIndex{ppvindex.NewMemIndex(), reads}, opts)
	if err != nil {
		return fastEngine{}, err
	}
	if err := engine.Precompute(); err != nil {
		return fastEngine{}, err
	}
	return fastEngine{engine, reads}, nil
}

// method is FastPPV's online phase under stop, as evaluate runs it. When
// bounds is not nil, each query adds its reported L1 bound to it.
func (e fastEngine) method(stop core.StopCondition, bounds *float64) method {
	return method{
		name: "FastPPV",
		query: func(q graph.NodeID) (sparse.Vector, []sparse.Entry, error) {
			r, err := e.QueryOn(nil, q, stop)
			if err != nil {
				return nil, nil, err
			}
			if bounds != nil {
				*bounds += r.L1ErrorBound
			}
			return nil, r.Entries, nil
		},
		units: fastUnits,
		work:  func(q graph.NodeID) ([]int64, error) { return e.work(q, stop) },
	}
}

// work replays the query of q under stop with the record count on and returns
// its fastUnits. The replay reads what the timed query read, since answers
// are deterministic.
func (e fastEngine) work(q graph.NodeID, stop core.StopCondition) ([]int64, error) {
	*e.reads = readCount{on: true}
	defer func() { e.reads.on = false }()
	r, err := e.QueryOn(nil, q, stop)
	if err != nil {
		return nil, err
	}
	var pushes int64
	if r.QueryPPVComputed {
		o := e.Options()
		var sc prime.Scratch
		_, st, err := sc.Push(e.Graph(), q, e.Hubs(), prime.Options{Alpha: o.Alpha, Epsilon: o.Epsilon, MaxPushes: o.MaxPushes}, 0)
		if err != nil {
			return nil, err
		}
		pushes = int64(st.Pushes)
	}
	return []int64{pushes, e.reads.records, e.reads.entries}, nil
}

// readCount counts the hub records a query reads and their entries, while on.
type readCount struct {
	on               bool
	records, entries int64
}

// countingIndex is an in-memory index whose published snapshots count their
// record reads into c.
type countingIndex struct {
	*ppvindex.MemIndex
	c *readCount
}

func (ci countingIndex) Snapshot() (ppvindex.Snapshot, error) {
	s, err := ci.MemIndex.Snapshot()
	if err != nil {
		return nil, err
	}
	return countingSnapshot{s, ci.c}, nil
}

type countingSnapshot struct {
	ppvindex.Snapshot
	c *readCount
}

func (cs countingSnapshot) GetView(h graph.NodeID) (ppvindex.HubRecordView, bool, error) {
	v, ok, err := cs.Snapshot.GetView(h)
	if ok && err == nil && cs.c.on {
		cs.c.records++
		cs.c.entries += int64(v.Len())
	}
	return v, ok, err
}

// runFastPPV precomputes and evaluates FastPPV under cfg.
func runFastPPV(d *Dataset, cfg FastPPVConfig) (MethodResult, error) {
	engine, err := buildFastPPV(d, cfg)
	if err != nil {
		return MethodResult{}, err
	}
	res, err := evaluate(d, engine.method(core.StopCondition{MaxIterations: cfg.Iterations}, nil))
	if err != nil {
		return res, err
	}
	off := engine.OfflineStats()
	res.OfflineTime = off.Total
	res.OfflineBytes = off.IndexBytes
	return res, nil
}

// HubRankPConfig is the per-experiment HubRankP parameterization.
type HubRankPConfig struct {
	NumHubs int
	Push    float64
}

// runHubRankP precomputes and evaluates the HubRankP baseline.
func runHubRankP(d *Dataset, cfg HubRankPConfig) (MethodResult, error) {
	ranker, err := hubrankp.New(d.Graph, hubrankp.Options{
		NumHubs:  cfg.NumHubs,
		Push:     cfg.Push,
		PageRank: d.PageRank,
	})
	if err != nil {
		return MethodResult{}, err
	}
	if err := ranker.Precompute(); err != nil {
		return MethodResult{}, err
	}
	var last *hubrankp.Result
	res, err := evaluate(d, method{
		name: "HubRankP",
		query: func(q graph.NodeID) (sparse.Vector, []sparse.Entry, error) {
			r, err := ranker.Query(q)
			if err != nil {
				return nil, nil, err
			}
			last = r
			return r.Estimate, nil, nil
		},
		// Pushes of the bookmark-coloring push, and the hub-PPV entries
		// spliced into the estimate where it reached a hub.
		units: []string{"pushes", "entries_merged"},
		work: func(graph.NodeID) ([]int64, error) {
			return []int64{int64(last.Pushes), int64(last.EntriesMerged)}, nil
		},
	})
	if err != nil {
		return res, err
	}
	off := ranker.OfflineStats()
	res.OfflineTime = off.Total
	res.OfflineBytes = off.IndexBytes
	return res, nil
}

// MonteCarloConfig is the per-experiment MonteCarlo parameterization.
type MonteCarloConfig struct {
	NumHubs         int
	SamplesPerQuery int
}

// runMonteCarlo precomputes and evaluates the MonteCarlo baseline.
func runMonteCarlo(d *Dataset, cfg MonteCarloConfig) (MethodResult, error) {
	est, err := montecarlo.New(d.Graph, montecarlo.Options{
		NumHubs:         cfg.NumHubs,
		SamplesPerQuery: cfg.SamplesPerQuery,
		PageRank:        d.PageRank,
		Seed:            17,
	})
	if err != nil {
		return MethodResult{}, err
	}
	if err := est.Precompute(); err != nil {
		return MethodResult{}, err
	}
	var last *montecarlo.Result
	res, err := evaluate(d, method{
		name: "MonteCarlo",
		query: func(q graph.NodeID) (sparse.Vector, []sparse.Entry, error) {
			r, err := est.Query(q)
			if err != nil {
				return nil, nil, err
			}
			last = r
			return r.Estimate, nil, nil
		},
		// Steps of the online walks, and the hub fingerprint entries that
		// finished a walk (one sampled endpoint a hit).
		units: []string{"walk_steps", "fingerprint_entries"},
		work: func(graph.NodeID) ([]int64, error) {
			return []int64{int64(last.Steps), int64(last.HubHits)}, nil
		},
	})
	if err != nil {
		return res, err
	}
	off := est.OfflineStats()
	res.OfflineTime = off.Total
	res.OfflineBytes = off.IndexBytes
	return res, nil
}

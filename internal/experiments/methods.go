package experiments

import (
	"fmt"
	"time"

	"fastppv/internal/accuracy"
	"fastppv/internal/baseline/hubrankp"
	"fastppv/internal/baseline/montecarlo"
	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// MethodResult aggregates one method's behaviour over a query workload: the
// average accuracy against exact PPVs, the average online query time, and the
// offline precomputation cost. It is the unit every figure's table is built
// from.
type MethodResult struct {
	Method       string
	Accuracy     accuracy.Report
	AvgQueryTime time.Duration
	OfflineTime  time.Duration
	OfflineBytes int64
}

// ms is d in milliseconds, to the nanosecond: the figures' "ms/query"
// columns.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// queryFunc computes an approximate PPV for one query node in the method's
// own form: a map (the baselines) or sorted entries (FastPPV).
type queryFunc func(q graph.NodeID) (sparse.Vector, []sparse.Entry, error)

// evaluate runs fn over the dataset's query workload and scores it against
// the exact PPVs. Only fn is timed: the map the accuracy metrics read is
// built from entries after the clock stops, so no method is charged for a
// change of representation.
func evaluate(d *Dataset, method string, fn queryFunc) (MethodResult, error) {
	res := MethodResult{Method: method}
	if len(d.Queries) == 0 {
		return res, fmt.Errorf("experiments: dataset %s has no queries", d.Name)
	}
	reports := make([]accuracy.Report, 0, len(d.Queries))
	var total time.Duration
	for _, q := range d.Queries {
		start := time.Now()
		approx, entries, err := fn(q)
		total += time.Since(start)
		if err != nil {
			return res, fmt.Errorf("experiments: %s query %d: %w", method, q, err)
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
	return res, nil
}

// FastPPVConfig is the per-experiment FastPPV parameterization.
type FastPPVConfig struct {
	NumHubs    int
	Iterations int
	Options    core.Options
}

// buildFastPPV precomputes a FastPPV engine for the dataset.
func buildFastPPV(d *Dataset, cfg FastPPVConfig) (*core.Engine, error) {
	opts := cfg.Options
	opts.NumHubs = cfg.NumHubs
	if opts.PageRank == nil {
		opts.PageRank = d.PageRank
	}
	engine, err := core.NewEngine(d.Graph, nil, opts)
	if err != nil {
		return nil, err
	}
	if err := engine.Precompute(); err != nil {
		return nil, err
	}
	return engine, nil
}

// runFastPPV precomputes and evaluates FastPPV under cfg.
func runFastPPV(d *Dataset, cfg FastPPVConfig) (MethodResult, error) {
	engine, err := buildFastPPV(d, cfg)
	if err != nil {
		return MethodResult{}, err
	}
	stop := core.StopCondition{MaxIterations: cfg.Iterations}
	res, err := evaluate(d, "FastPPV", func(q graph.NodeID) (sparse.Vector, []sparse.Entry, error) {
		r, err := engine.QueryOn(nil, q, stop)
		if err != nil {
			return nil, nil, err
		}
		return nil, r.Entries, nil
	})
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
	res, err := evaluate(d, "HubRankP", func(q graph.NodeID) (sparse.Vector, []sparse.Entry, error) {
		r, err := ranker.Query(q)
		if err != nil {
			return nil, nil, err
		}
		return r.Estimate, nil, nil
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
	res, err := evaluate(d, "MonteCarlo", func(q graph.NodeID) (sparse.Vector, []sparse.Entry, error) {
		r, err := est.Query(q)
		if err != nil {
			return nil, nil, err
		}
		return r.Estimate, nil, nil
	})
	if err != nil {
		return res, err
	}
	off := est.OfflineStats()
	res.OfflineTime = off.Total
	res.OfflineBytes = off.IndexBytes
	return res, nil
}

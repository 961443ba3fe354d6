package experiments

import (
	"math"

	"fastppv/internal/core"
	"fastppv/internal/workload"
)

// BoundPoint compares the measured accuracy-aware L1 error phi(k) after
// iteration k against Theorem 2's analytical bound (1-alpha)^(k+2), averaged
// over the query workload.
type BoundPoint struct {
	Dataset      DatasetName
	Iteration    int
	MeasuredPhi  float64
	TheoremBound float64
}

// Theorem2 measures the error decay of the incremental approximation and
// compares it with the exponential bound of Theorem 2 (E13 in README.md's
// experiment index). The measured error should always stay below the bound
// and typically decays considerably faster, as the paper notes after the
// proof.
func Theorem2(scale Scale, maxIteration int) ([]BoundPoint, error) {
	if maxIteration <= 0 {
		maxIteration = 8
	}
	var out []BoundPoint
	for _, name := range []DatasetName{DBLP, LiveJournal} {
		d, err := Load(name, scale)
		if err != nil {
			return nil, err
		}
		engine, err := buildFastPPV(d, FastPPVConfig{
			NumHubs: d.DefaultHubs(),
			// Theorem 2 is about the partitioning scheme alone, so the lossy
			// engineering knobs (delta prune, storage clip) are disabled; with
			// them enabled the measured phi would floor at the discarded mass.
			Options: core.Options{Delta: -1, Clip: -1},
		})
		if err != nil {
			return nil, err
		}
		alpha := engine.Options().Alpha
		sums := make([]float64, maxIteration+1)
		for _, q := range d.Queries {
			qs, err := engine.NewQuery(q)
			if err != nil {
				return nil, err
			}
			for k := 0; k <= maxIteration; k++ {
				sums[k] += qs.L1ErrorBound()
				qs.Step()
			}
		}
		for k := 0; k <= maxIteration; k++ {
			out = append(out, BoundPoint{
				Dataset:      name,
				Iteration:    k,
				MeasuredPhi:  sums[k] / float64(len(d.Queries)),
				TheoremBound: math.Pow(1-alpha, float64(k+2)),
			})
		}
	}
	return out, nil
}

// Theorem2Table renders the measured-versus-bound comparison.
func Theorem2Table(points []BoundPoint) *workload.Table {
	t := workload.NewTable(
		"Theorem 2 — measured L1 error versus the analytical bound (1-alpha)^(k+2)",
		"Dataset", "k", "Measured phi(k)", "Bound")
	for _, p := range points {
		t.AddRow(string(p.Dataset), p.Iteration, p.MeasuredPhi, p.TheoremBound)
	}
	return t
}

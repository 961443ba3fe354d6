package experiments

import (
	"time"

	"fastppv/internal/core"
	"fastppv/internal/metrics"
	"fastppv/internal/workload"
)

// AblationResult compares a FastPPV variant against the paper's default
// configuration on one dataset.
type AblationResult struct {
	Dataset      DatasetName
	Variant      string
	Accuracy     metrics.Report
	AvgQueryTime time.Duration
	OfflineTime  time.Duration
	OfflineBytes int64
}

// ablationVariant describes one knob setting to evaluate.
type ablationVariant struct {
	name string
	opts core.Options
}

// Ablations evaluates the design choices listed under README.md's experiment
// index that are not already covered by a paper figure:
//
//   - the delta border-hub prune of Algorithm 2 (on at the paper's default vs
//     disabled),
//   - the 1e-4 storage clip of the offline index (on vs disabled),
//   - random hub selection (the policy the paper dismisses without numbers).
//
// All variants share the dataset, workload, hub count and eta, so any
// difference is attributable to the knob under study.
func Ablations(scale Scale) ([]AblationResult, error) {
	variants := []ablationVariant{
		{name: "default (delta=0.005, clip=1e-4)", opts: core.Options{}},
		{name: "no delta prune", opts: core.Options{Delta: -1}},
		{name: "no storage clip", opts: core.Options{Clip: -1}},
		{name: "no delta, no clip", opts: core.Options{Delta: -1, Clip: -1}},
	}
	var out []AblationResult
	for _, name := range []DatasetName{DBLP, LiveJournal} {
		d, err := Load(name, scale)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			res, err := runFastPPV(d, FastPPVConfig{
				NumHubs:    d.DefaultHubs(),
				Iterations: core.DefaultIterations,
				Options:    v.opts,
			})
			if err != nil {
				return nil, err
			}
			out = append(out, AblationResult{
				Dataset:      name,
				Variant:      v.name,
				Accuracy:     res.Accuracy,
				AvgQueryTime: res.AvgQueryTime,
				OfflineTime:  res.OfflineTime,
				OfflineBytes: res.OfflineBytes,
			})
		}
	}
	return out, nil
}

// AblationTable renders the ablation results.
func AblationTable(results []AblationResult) *workload.Table {
	t := workload.NewTable(
		"Ablations — delta prune and storage clip",
		"Dataset", "Variant", "Kendall", "Precision", "L1 similarity", "Online ms/query", "Index MB", "Offline s")
	for _, r := range results {
		t.AddRow(string(r.Dataset), r.Variant,
			r.Accuracy.KendallTau, r.Accuracy.Precision, r.Accuracy.L1Similarity,
			float64(r.AvgQueryTime.Microseconds())/1000.0,
			float64(r.OfflineBytes)/(1<<20),
			r.OfflineTime.Seconds())
	}
	return t
}

package experiments

import (
	"fmt"
	"time"

	"fastppv/internal/accuracy"
	"fastppv/internal/core"
	"fastppv/internal/workload"
)

// HubSweepPoint is one point of the |H| sweep (Fig. 10 online / Fig. 11
// offline).
type HubSweepPoint struct {
	Dataset DatasetName
	NumHubs int
	Result  MethodResult
}

// hubSweepCounts returns the |H| values swept for a dataset, centered on its
// default (the paper sweeps 10K..50K on DBLP and 40K..150K on LiveJournal).
func hubSweepCounts(d *Dataset) []int {
	base := d.DefaultHubs()
	fractions := []float64{0.5, 0.75, 1.0, 1.5, 2.0}
	out := make([]int, 0, len(fractions))
	for _, f := range fractions {
		h := int(float64(base) * f)
		if h < 8 {
			h = 8
		}
		out = append(out, h)
	}
	return out
}

// HubCountSweep evaluates FastPPV across hub counts (E6/E7 in README.md's
// experiment index, Fig. 10 and 11 of the paper).
func HubCountSweep(scale Scale) ([]HubSweepPoint, error) {
	var out []HubSweepPoint
	for _, name := range []DatasetName{DBLP, LiveJournal} {
		d, err := Load(name, scale)
		if err != nil {
			return nil, err
		}
		for _, hubs := range hubSweepCounts(d) {
			res, err := runFastPPV(d, FastPPVConfig{NumHubs: hubs, Iterations: core.DefaultIterations})
			if err != nil {
				return nil, fmt.Errorf("|H|=%d on %s: %w", hubs, name, err)
			}
			out = append(out, HubSweepPoint{Dataset: name, NumHubs: hubs, Result: res})
		}
	}
	return out, nil
}

// Fig10Table renders the effect of |H| on online processing.
func Fig10Table(points []HubSweepPoint) *workload.Table {
	t := workload.NewTable(
		"Fig. 10 — effect of the number of hubs on online processing",
		"Dataset", "|H|", "Kendall", "Precision", "RAG", "L1 similarity", "Online ms/query")
	for _, p := range points {
		t.AddRow(string(p.Dataset), p.NumHubs,
			p.Result.Accuracy.KendallTau, p.Result.Accuracy.Precision,
			p.Result.Accuracy.RAG, p.Result.Accuracy.L1Similarity,
			ms(p.Result.AvgQueryTime))
	}
	return t
}

// Fig11Table renders the effect of |H| on offline precomputation.
func Fig11Table(points []HubSweepPoint) *workload.Table {
	t := workload.NewTable(
		"Fig. 11 — effect of the number of hubs on offline precomputation",
		"Dataset", "|H|", "Offline space MB", "Offline time s")
	for _, p := range points {
		t.AddRow(string(p.Dataset), p.NumHubs,
			float64(p.Result.OfflineBytes)/(1<<20), p.Result.OfflineTime.Seconds())
	}
	return t
}

// IterationPoint is one point of the eta sweep (Fig. 12): FastPPV accuracy,
// query time and work as the number of online iterations grows, on a single
// precomputed index.
type IterationPoint struct {
	Dataset    DatasetName
	Iterations int
	Accuracy   accuracy.Report
	// AvgL1Bound is the average accuracy-aware error bound phi(eta) reported
	// by the engine itself, demonstrating the accuracy-aware property.
	AvgL1Bound   float64
	AvgQueryTime time.Duration
	// Work is the online work per query, in fastUnits.
	Work []Work
}

// IterationSweep evaluates FastPPV for eta = 0..maxEta on both datasets (E8
// in README.md's experiment index, Fig. 12 of the paper). The offline index
// is built once per dataset and shared across eta values, mirroring the
// paper's point that eta is a purely online knob.
func IterationSweep(scale Scale, maxEta int) ([]IterationPoint, error) {
	if maxEta < 0 {
		maxEta = core.DefaultIterations
	}
	var out []IterationPoint
	for _, name := range []DatasetName{DBLP, LiveJournal} {
		d, err := Load(name, scale)
		if err != nil {
			return nil, err
		}
		engine, err := buildFastPPV(d, FastPPVConfig{NumHubs: d.DefaultHubs()})
		if err != nil {
			return nil, err
		}
		for eta := 0; eta <= maxEta; eta++ {
			var bounds float64
			res, err := evaluate(d, engine.method(core.StopCondition{MaxIterations: eta}, &bounds))
			if err != nil {
				return nil, fmt.Errorf("eta=%d on %s: %w", eta, name, err)
			}
			out = append(out, IterationPoint{
				Dataset:      name,
				Iterations:   eta,
				Accuracy:     res.Accuracy,
				AvgL1Bound:   bounds / float64(len(d.Queries)),
				AvgQueryTime: res.AvgQueryTime,
				Work:         res.Work,
			})
		}
	}
	return out, nil
}

// Fig12Table renders the incremental online processing results.
func Fig12Table(points []IterationPoint) *workload.Table {
	t := workload.NewTable(
		"Fig. 12 — incremental online processing by varying eta",
		"Dataset", "eta", "Kendall", "Precision", "RAG", "L1 similarity", "phi bound", "Online ms/query", "Work/query")
	for _, p := range points {
		t.AddRow(string(p.Dataset), p.Iterations,
			p.Accuracy.KendallTau, p.Accuracy.Precision, p.Accuracy.RAG, p.Accuracy.L1Similarity,
			p.AvgL1Bound, ms(p.AvgQueryTime), workString(p.Work))
	}
	return t
}

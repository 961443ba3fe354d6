package experiments

import (
	"fmt"

	"fastppv/internal/workload"
)

// Configuration is one of the four accuracy-moderated configurations of
// Fig. 5: a dataset plus per-method parameters chosen so that all three
// methods land at a comparable accuracy, which makes their time and space
// costs directly comparable (Fig. 6 verifies the accuracy, Fig. 7 compares
// the costs).
type Configuration struct {
	ID      string
	Dataset DatasetName
	// HubFraction is |H| as a fraction of the dataset's node count. The paper
	// fixes absolute |H| per configuration (20K/30K on DBLP, 150K/200K on
	// LiveJournal); a fraction transfers the same intent to the scaled-down
	// synthetic graphs.
	HubFraction float64
	// Push is HubRankP's residual threshold for this configuration.
	Push float64
	// SamplesFraction is MonteCarlo's N relative to the node count.
	SamplesFraction float64
	// Iterations is FastPPV's eta for this configuration.
	Iterations int
}

// Configurations returns the four accuracy-moderated configurations I-IV of
// Fig. 5, rescaled to the synthetic datasets.
func Configurations() []Configuration {
	return []Configuration{
		// Paper: DBLP, |H|=20K (1% of nodes), push=0.11, N=120K (6%), eta=2.
		{ID: "I", Dataset: DBLP, HubFraction: 0.010, Push: 0.005, SamplesFraction: 0.20, Iterations: 2},
		// Paper: DBLP, |H|=30K (1.5%), push=0.13, N=40K (2%), eta=1.
		{ID: "II", Dataset: DBLP, HubFraction: 0.015, Push: 0.010, SamplesFraction: 0.10, Iterations: 1},
		// Paper: LiveJournal, |H|=150K (12.5%), push=0.20, N=200K (17%), eta=3.
		{ID: "III", Dataset: LiveJournal, HubFraction: 0.125, Push: 0.005, SamplesFraction: 0.30, Iterations: 3},
		// Paper: LiveJournal, |H|=200K (17%), push=0.29, N=10K (1%), eta=1.
		{ID: "IV", Dataset: LiveJournal, HubFraction: 0.170, Push: 0.020, SamplesFraction: 0.08, Iterations: 1},
	}
}

// ConfigResult is the outcome of running all three methods under one
// configuration.
type ConfigResult struct {
	Config     Configuration
	FastPPV    MethodResult
	HubRankP   MethodResult
	MonteCarlo MethodResult
}

// AccuracyModerated runs the four accuracy-moderated configurations (E1-E3 in
// README.md's experiment index, covering Fig. 5, 6 and 7 of the paper).
func AccuracyModerated(scale Scale) ([]ConfigResult, error) {
	var out []ConfigResult
	for _, cfg := range Configurations() {
		d, err := Load(cfg.Dataset, scale)
		if err != nil {
			return nil, err
		}
		n := d.Graph.NumNodes()
		hubs := max(16, int(float64(n)*cfg.HubFraction))
		samples := max(500, int(float64(n)*cfg.SamplesFraction))

		fast, err := runFastPPV(d, FastPPVConfig{NumHubs: hubs, Iterations: cfg.Iterations})
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", cfg.ID, err)
		}
		hr, err := runHubRankP(d, HubRankPConfig{NumHubs: hubs, Push: cfg.Push})
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", cfg.ID, err)
		}
		mc, err := runMonteCarlo(d, MonteCarloConfig{NumHubs: hubs, SamplesPerQuery: samples})
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", cfg.ID, err)
		}
		out = append(out, ConfigResult{Config: cfg, FastPPV: fast, HubRankP: hr, MonteCarlo: mc})
	}
	return out, nil
}

// Fig6Table renders the accuracy table of Fig. 6 (Kendall, Precision, RAG and
// L1 similarity per configuration and method).
func Fig6Table(results []ConfigResult) *workload.Table {
	t := workload.NewTable(
		"Fig. 6 — accuracy under accuracy-moderated configurations",
		"Config", "Method", "Kendall", "Precision", "RAG", "L1 similarity")
	for _, r := range results {
		for _, m := range []MethodResult{r.FastPPV, r.HubRankP, r.MonteCarlo} {
			t.AddRow(r.Config.ID, m.Method, m.Accuracy.KendallTau, m.Accuracy.Precision,
				m.Accuracy.RAG, m.Accuracy.L1Similarity)
		}
	}
	return t
}

// Fig7Table renders the cost comparison of Fig. 7: online time per query,
// offline space, offline time.
func Fig7Table(results []ConfigResult) *workload.Table {
	t := workload.NewTable(
		"Fig. 7 — online and offline costs under accuracy-moderated configurations",
		"Config", "Method", "Online ms/query", "Offline space MB", "Offline time s")
	for _, r := range results {
		for _, m := range []MethodResult{r.FastPPV, r.HubRankP, r.MonteCarlo} {
			t.AddRow(r.Config.ID, m.Method,
				float64(m.AvgQueryTime.Microseconds())/1000.0,
				float64(m.OfflineBytes)/(1<<20),
				m.OfflineTime.Seconds())
		}
	}
	return t
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

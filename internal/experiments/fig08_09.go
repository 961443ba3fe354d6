package experiments

import (
	"fmt"

	"fastppv/internal/core"
	"fastppv/internal/hub"
	"fastppv/internal/workload"
)

// HubPolicyResult is the outcome of running FastPPV with one hub selection
// policy (Fig. 8 online, Fig. 9 offline).
type HubPolicyResult struct {
	Dataset DatasetName
	Policy  hub.Policy
	Result  MethodResult
}

// HubPolicies compares hub selection policies (E4/E5 in README.md's
// experiment index, Fig. 8 and 9 of the paper): expected utility (the paper's
// proposal), PageRank-only, out-degree-only, and — as an ablation the paper
// mentions but omits from the figures — random selection.
func HubPolicies(scale Scale, includeRandom bool) ([]HubPolicyResult, error) {
	policies := []hub.Policy{hub.ExpectedUtility, hub.ByPageRank, hub.ByOutDegree}
	if includeRandom {
		policies = append(policies, hub.Random)
	}
	var out []HubPolicyResult
	for _, name := range []DatasetName{DBLP, LiveJournal} {
		d, err := Load(name, scale)
		if err != nil {
			return nil, err
		}
		hubs := d.DefaultHubs()
		for _, policy := range policies {
			res, err := runFastPPV(d, FastPPVConfig{
				NumHubs:    hubs,
				Iterations: core.DefaultIterations,
				Options:    core.Options{HubPolicy: policy, HubSeed: 11},
			})
			if err != nil {
				return nil, fmt.Errorf("policy %v on %s: %w", policy, name, err)
			}
			res.Method = fmt.Sprintf("FastPPV[%v]", policy)
			out = append(out, HubPolicyResult{Dataset: name, Policy: policy, Result: res})
		}
	}
	return out, nil
}

// Fig8Table renders the online comparison of hub policies (accuracy and query
// time).
func Fig8Table(results []HubPolicyResult) *workload.Table {
	t := workload.NewTable(
		"Fig. 8 — effect of hub selection policy on online processing",
		"Dataset", "Policy", "Kendall", "Precision", "RAG", "L1 similarity", "Online ms/query")
	for _, r := range results {
		t.AddRow(string(r.Dataset), r.Policy.String(),
			r.Result.Accuracy.KendallTau, r.Result.Accuracy.Precision,
			r.Result.Accuracy.RAG, r.Result.Accuracy.L1Similarity,
			float64(r.Result.AvgQueryTime.Microseconds())/1000.0)
	}
	return t
}

// Fig9Table renders the offline comparison of hub policies (space and time).
func Fig9Table(results []HubPolicyResult) *workload.Table {
	t := workload.NewTable(
		"Fig. 9 — effect of hub selection policy on offline precomputation",
		"Dataset", "Policy", "Offline space MB", "Offline time s")
	for _, r := range results {
		t.AddRow(string(r.Dataset), r.Policy.String(),
			float64(r.Result.OfflineBytes)/(1<<20), r.Result.OfflineTime.Seconds())
	}
	return t
}

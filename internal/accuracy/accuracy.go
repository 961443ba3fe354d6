// Package accuracy implements the four accuracy metrics used in the paper's
// evaluation (Sect. 6): Kendall's tau and Precision@K over the top-K ranking,
// and RAG (relative average goodness) and L1 error/similarity over the scores.
// All metrics compare an approximate PPV against the exact PPV and, following
// the paper, focus on the top 10 nodes by default.
package accuracy

import (
	"math"
	"sort"

	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// DefaultTopK is the ranking depth used in the paper's experiments.
const DefaultTopK = 10

// Report bundles the four metrics for one query, presented so that larger is
// always better (the paper reports L1 similarity = 1 - L1 error for the same
// reason).
type Report struct {
	KendallTau   float64
	Precision    float64
	RAG          float64
	L1Similarity float64
}

// Average returns the field-wise mean of the reports; experiment drivers use
// it to aggregate over a query workload.
func Average(reports []Report) Report {
	if len(reports) == 0 {
		return Report{}
	}
	var sum Report
	for _, r := range reports {
		sum.KendallTau += r.KendallTau
		sum.Precision += r.Precision
		sum.RAG += r.RAG
		sum.L1Similarity += r.L1Similarity
	}
	n := float64(len(reports))
	return Report{
		KendallTau:   sum.KendallTau / n,
		Precision:    sum.Precision / n,
		RAG:          sum.RAG / n,
		L1Similarity: sum.L1Similarity / n,
	}
}

// Evaluate computes all four metrics of the approximation against the exact
// PPV at ranking depth k (DefaultTopK when k <= 0).
func Evaluate(exact, approx sparse.Vector, k int) Report {
	if k <= 0 {
		k = DefaultTopK
	}
	return Report{
		KendallTau:   KendallTau(exact, approx, k),
		Precision:    PrecisionAtK(exact, approx, k),
		RAG:          RAG(exact, approx, k),
		L1Similarity: L1Similarity(exact, approx),
	}
}

// PrecisionAtK returns |topK(exact) ∩ topK(approx)| / k', where k' is the
// number of exact top-K nodes (k unless the exact vector is smaller).
func PrecisionAtK(exact, approx sparse.Vector, k int) float64 {
	exactTop := exact.TopKNodes(k)
	if len(exactTop) == 0 {
		return 1
	}
	approxTop := approx.TopKNodes(k)
	inApprox := make(map[graph.NodeID]struct{}, len(approxTop))
	for _, v := range approxTop {
		inApprox[v] = struct{}{}
	}
	hits := 0
	for _, v := range exactTop {
		if _, ok := inApprox[v]; ok {
			hits++
		}
	}
	return float64(hits) / float64(len(exactTop))
}

// RAG returns the relative aggregated goodness at depth k: the exact mass
// captured by the approximate top-K divided by the exact mass of the exact
// top-K. It is 1 when the approximation surfaces nodes that are (in exact
// terms) as good as the true top-K, even if their order differs.
func RAG(exact, approx sparse.Vector, k int) float64 {
	exactTop := exact.TopK(k)
	if len(exactTop) == 0 {
		return 1
	}
	var ideal float64
	for _, e := range exactTop {
		ideal += e.Score
	}
	if ideal == 0 {
		return 1
	}
	var got float64
	for _, e := range approx.TopK(k) {
		got += exact.Get(e.Node)
	}
	if got > ideal {
		got = ideal
	}
	return got / ideal
}

// L1Error returns the L1 distance between exact and approx.
func L1Error(exact, approx sparse.Vector) float64 { return exact.L1Distance(approx) }

// L1Similarity returns 1 - L1Error, clamped to [0, 1], the presentation used
// in the paper's figures so that all metrics improve upwards.
func L1Similarity(exact, approx sparse.Vector) float64 {
	s := 1 - L1Error(exact, approx)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// KendallTau computes Kendall's tau-b rank correlation between the exact and
// approximate rankings restricted to the union of their top-K node sets.
// Pairs tied in one ranking but not the other reduce the correlation; the
// result lies in [-1, 1] and is 1 for identical rankings.
func KendallTau(exact, approx sparse.Vector, k int) float64 {
	nodes := topKUnion(exact, approx, k)
	if len(nodes) < 2 {
		return 1
	}
	concordant, discordant := 0, 0
	var tiesExactOnly, tiesApproxOnly float64
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			de := exact.Get(nodes[i]) - exact.Get(nodes[j])
			da := approx.Get(nodes[i]) - approx.Get(nodes[j])
			switch {
			case de == 0 && da == 0:
				// tie in both rankings: ignored by tau-b
			case de == 0:
				tiesExactOnly++
			case da == 0:
				tiesApproxOnly++
			case (de > 0) == (da > 0):
				concordant++
			default:
				discordant++
			}
		}
	}
	n0 := float64(concordant + discordant)
	// Pairs not tied in the exact ranking / not tied in the approximation.
	untiedExact := n0 + tiesApproxOnly
	untiedApprox := n0 + tiesExactOnly
	if untiedExact == 0 && untiedApprox == 0 {
		return 1 // both rankings are completely flat: identical (non-)orderings
	}
	if untiedExact == 0 || untiedApprox == 0 {
		return 0 // one ranking carries no ordering information at all
	}
	tau := float64(concordant-discordant) / (math.Sqrt(untiedExact) * math.Sqrt(untiedApprox))
	return math.Max(-1, math.Min(1, tau))
}

// topKUnion returns the union of the two top-K node sets in deterministic
// order.
func topKUnion(exact, approx sparse.Vector, k int) []graph.NodeID {
	set := make(map[graph.NodeID]struct{})
	for _, v := range exact.TopKNodes(k) {
		set[v] = struct{}{}
	}
	for _, v := range approx.TopKNodes(k) {
		set[v] = struct{}{}
	}
	out := make([]graph.NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

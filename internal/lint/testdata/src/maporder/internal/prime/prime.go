// Package prime is a maporder fixture: its import path ends in
// internal/prime, so the push kernel sits inside the analyzer's
// answer-affecting set.
package prime

// Settle folds leftover residual into reach in map order with no hatch — the
// shape of the push before it went dense: flagged.
func Settle(reach, residual map[int]float64) {
	for u, r := range residual { // want "range over map"
		reach[u] += r
	}
}

// Fill copies sorted entries into a map: ranging over the slice is clean.
func Fill(nodes []int, scores []float64) map[int]float64 {
	out := make(map[int]float64, len(nodes))
	for i, u := range nodes {
		out[u] = scores[i]
	}
	return out
}

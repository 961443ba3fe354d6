// Package hub implements the hub selection policies of Sect. 4 of the paper.
// Hubs play two roles in FastPPV: their high out-degree partitions tours by
// hub length (discriminating), and their high popularity makes their prime
// PPVs reusable across many queries (sharing). The paper's proposal is the
// expected-utility policy EU(v) = PageRank(v) * |Out(v)|; PageRank-only,
// out-degree-only, in-degree-only and random policies are provided as the
// comparison points of Fig. 8/9 and as ablations.
package hub

import (
	"fmt"
	"math/rand"
	"sort"

	"fastppv/internal/graph"
	"fastppv/internal/pagerank"
)

// Policy selects which score a node is ranked by when choosing hubs.
type Policy int

const (
	// ExpectedUtility ranks nodes by PageRank(v) * OutDegree(v), the paper's
	// proposed policy (Eq. 7).
	ExpectedUtility Policy = iota
	// ByPageRank ranks nodes by global PageRank only (popularity/sharing).
	ByPageRank
	// ByOutDegree ranks nodes by out-degree only (utility/discriminating).
	ByOutDegree
	// ByInDegree ranks nodes by in-degree, a cheap proxy for popularity
	// mentioned in Sect. 4.
	ByInDegree
	// Random selects hubs uniformly at random; the paper reports it performs
	// substantially worse and omits it from the figures, so it serves as an
	// ablation here.
	Random
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case ExpectedUtility:
		return "expected-utility"
	case ByPageRank:
		return "pagerank"
	case ByOutDegree:
		return "out-degree"
	case ByInDegree:
		return "in-degree"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Set is a hub set with O(1) membership queries plus the selection order.
// Membership is a bitset sized from the largest hub id: the prime push probes
// it once per pop and the query loop's frontier scan once per estimate entry,
// so a probe is a shift and a mask, not a hash.
type Set struct {
	bits    []uint64
	ordered []graph.NodeID
}

// NewSet builds a Set from an ordered list of hubs. Negative ids are kept in
// the selection order but can never be members.
func NewSet(hubs []graph.NodeID) *Set {
	s := &Set{ordered: append([]graph.NodeID(nil), hubs...)}
	maxID := graph.NodeID(-1)
	for _, h := range hubs {
		if h > maxID {
			maxID = h
		}
	}
	s.bits = make([]uint64, (int(maxID)+64)/64)
	for _, h := range hubs {
		if h >= 0 {
			s.bits[h>>6] |= 1 << (uint(h) & 63)
		}
	}
	return s
}

// Contains reports whether v is a hub. It is nil-safe and false for ids that
// are negative or beyond the largest hub (shards and serving engines probe
// ids that come off the wire or out of an index file).
func (s *Set) Contains(v graph.NodeID) bool {
	if s == nil || v < 0 {
		return false
	}
	w := int(v >> 6)
	return w < len(s.bits) && s.bits[w]&(1<<(uint(v)&63)) != 0
}

// Bit is Contains as 0 or 1, for counting hubs without a branch on
// membership: the only branch is the range check of the word index, which an
// id below the largest hub always passes. Negative ids read as 0. Unlike
// Contains it needs a non-nil Set.
func (s *Set) Bit(v graph.NodeID) int {
	w := uint(v) >> 6
	if w >= uint(len(s.bits)) {
		return 0
	}
	return int(s.bits[w] >> (uint(v) & 63) & 1)
}

// Size returns the number of hubs.
func (s *Set) Size() int {
	if s == nil {
		return 0
	}
	return len(s.ordered)
}

// Hubs returns the hubs in selection order (highest score first). Callers must
// not modify the returned slice.
func (s *Set) Hubs() []graph.NodeID { return s.ordered }

// Options configure hub selection.
type Options struct {
	// Policy picks the ranking score; default ExpectedUtility.
	Policy Policy
	// Count is the number of hubs |H| to select. It is capped at the number
	// of nodes.
	Count int
	// PageRank optionally supplies precomputed global PageRank scores so that
	// several policies can be evaluated without recomputing them. When nil and
	// the policy needs PageRank, it is computed internally.
	PageRank []float64
	// PageRankOptions configure the internal PageRank run when needed.
	PageRankOptions pagerank.Options
	// Seed seeds the Random policy.
	Seed int64
}

// Select chooses opts.Count hubs from g according to the policy. Nodes are
// ranked by descending score, ties broken by ascending node id for
// determinism.
func Select(g *graph.Graph, opts Options) (*Set, error) {
	n := g.NumNodes()
	count := opts.Count
	if count < 0 {
		return nil, fmt.Errorf("hub: negative hub count %d", count)
	}
	if count > n {
		count = n
	}
	if count == 0 {
		return NewSet(nil), nil
	}

	if opts.Policy == Random {
		rng := rand.New(rand.NewSource(opts.Seed))
		perm := rng.Perm(n)
		hubs := make([]graph.NodeID, count)
		for i := 0; i < count; i++ {
			hubs[i] = graph.NodeID(perm[i])
		}
		return NewSet(hubs), nil
	}

	scores, err := policyScores(g, opts)
	if err != nil {
		return nil, err
	}
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if scores[a] != scores[b] {
			return scores[a] > scores[b]
		}
		return a < b
	})
	return NewSet(order[:count]), nil
}

// policyScores computes the per-node ranking score for deterministic policies.
func policyScores(g *graph.Graph, opts Options) ([]float64, error) {
	n := g.NumNodes()
	scores := make([]float64, n)
	needPR := opts.Policy == ExpectedUtility || opts.Policy == ByPageRank
	var pr []float64
	if needPR {
		pr = opts.PageRank
		if pr == nil {
			var err error
			pr, err = pagerank.Global(g, opts.PageRankOptions)
			if err != nil {
				return nil, err
			}
		}
		if len(pr) != n {
			return nil, fmt.Errorf("hub: PageRank vector has %d entries for %d nodes", len(pr), n)
		}
	}
	for u := 0; u < n; u++ {
		id := graph.NodeID(u)
		switch opts.Policy {
		case ExpectedUtility:
			scores[u] = pr[u] * float64(g.OutDegree(id))
		case ByPageRank:
			scores[u] = pr[u]
		case ByOutDegree:
			scores[u] = float64(g.OutDegree(id))
		case ByInDegree:
			scores[u] = float64(g.InDegree(id))
		default:
			return nil, fmt.Errorf("hub: unsupported policy %v", opts.Policy)
		}
	}
	return scores, nil
}

// SuggestHubCount implements the "automatic configuration" the paper lists as
// future work (Sect. 7): pick |H| so that the expected prime-subgraph size
// (roughly (|V|+|E|)/|H|, the working set of an online query for a non-hub
// query node) stays below targetWorkPerQuery. The result is clamped to
// [minHubs, |V|/2].
func SuggestHubCount(g *graph.Graph, targetWorkPerQuery int, minHubs int) int {
	if targetWorkPerQuery <= 0 {
		targetWorkPerQuery = 4096
	}
	if minHubs <= 0 {
		minHubs = 16
	}
	size := g.NumNodes() + g.NumEdges()
	count := size / targetWorkPerQuery
	if count < minHubs {
		count = minHubs
	}
	if max := g.NumNodes() / 2; count > max {
		count = max
	}
	return count
}

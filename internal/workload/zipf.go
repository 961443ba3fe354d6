package workload

import (
	"fmt"
	"math/rand"

	"fastppv/internal/graph"
)

// ZipfOptions configure a skewed query sampler. Real query logs are heavily
// skewed — a few entities attract most of the traffic — which is exactly what
// a serving-side result cache exploits; the uniform QuerySet protocol of the
// paper's accuracy experiments has no locality for a cache to find.
type ZipfOptions struct {
	// S is the Zipf exponent (> 1); larger values concentrate more traffic on
	// fewer nodes. Zero means 1.2, a web-workload-like skew.
	S float64
	// Seed makes the sampler deterministic: same seed, same sequence.
	Seed int64
}

// DefaultZipfS is the default Zipf exponent.
const DefaultZipfS = 1.2

// ZipfSampler draws node ids with Zipfian popularity: rank r is drawn with
// probability proportional to 1/r^S, and ranks are mapped to node ids through
// a seed-determined permutation so the popular nodes are spread over the id
// space. It is not safe for concurrent use. Distinct seeds give distinct
// popularity rankings, not just distinct streams, so concurrent players of one
// workload should share one drawn sequence (see ZipfSequence).
type ZipfSampler struct {
	zipf *rand.Zipf
	perm []graph.NodeID
}

// NewZipfSampler samples from the id range [0, numNodes).
func NewZipfSampler(numNodes int, opts ZipfOptions) (*ZipfSampler, error) {
	if numNodes < 1 {
		return nil, fmt.Errorf("workload: zipf sampler needs at least 1 node, got %d", numNodes)
	}
	ids := make([]graph.NodeID, numNodes)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	s := opts.S
	if s == 0 {
		s = DefaultZipfS
	}
	if s <= 1 {
		return nil, fmt.Errorf("workload: zipf exponent %v must be > 1", s)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	z := rand.NewZipf(rng, s, 1, uint64(len(ids)-1))
	if z == nil {
		return nil, fmt.Errorf("workload: bad zipf parameters (s=%v, n=%d)", s, len(ids))
	}
	return &ZipfSampler{zipf: z, perm: ids}, nil
}

// Next draws the next query node.
func (zs *ZipfSampler) Next() graph.NodeID {
	return zs.perm[zs.zipf.Uint64()]
}

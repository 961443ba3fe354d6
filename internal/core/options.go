// Package core implements the FastPPV engine: the offline precomputation of
// hub prime PPVs (Algorithm 1) and the online incremental, accuracy-aware
// query processing (Algorithm 2, Theorems 3-4) described in "Incremental and
// Accuracy-Aware Personalized PageRank through Scheduled Approximation"
// (PVLDB 6(6), 2013).
package core

import (
	"errors"
	"fmt"
	"time"

	"fastppv/internal/hub"
	"fastppv/internal/pagerank"
	"fastppv/internal/prime"
)

// Default parameter values, following Sect. 6 "Parameters" of the paper.
const (
	// DefaultDelta is the border-hub expansion threshold delta of Algorithm 2
	// line 9: a hub's prime PPV is only fetched when the prefix reachability
	// of the hub exceeds delta.
	DefaultDelta = 0.005
	// DefaultClip is the offline clipping threshold: stored prime PPV entries
	// below this score are discarded to bound index size.
	DefaultClip = 1e-4
	// DefaultIterations is the default number of online iterations eta.
	DefaultIterations = 2
)

// Options configure an Engine. The zero value, passed through withDefaults,
// reproduces the paper's default configuration except for the hub count,
// which must be chosen per graph (NumHubs == 0 lets hub.SuggestHubCount pick).
type Options struct {
	// Alpha is the teleporting probability; zero means pagerank.DefaultAlpha.
	Alpha float64
	// Epsilon is the faraway-node threshold for prime subgraph growth; zero
	// means prime.DefaultEpsilon.
	Epsilon float64
	// Delta is the border-hub expansion threshold; zero means DefaultDelta.
	// Set to a negative value to disable the prune entirely (used by the
	// delta ablation).
	Delta float64
	// Clip is the offline storage clipping threshold; zero means DefaultClip.
	// Set to a negative value to disable clipping (used by the clip ablation).
	Clip float64
	// NumHubs is |H|, the number of hub nodes to select and index. Zero lets
	// hub.SuggestHubCount choose from the graph size.
	NumHubs int
	// HubPolicy selects the hub ranking policy; default hub.ExpectedUtility.
	HubPolicy hub.Policy
	// HubSeed seeds the random hub policy.
	HubSeed int64
	// PageRank optionally supplies precomputed global PageRank scores for hub
	// selection, so that experiments sweeping |H| or the policy do not
	// recompute them.
	PageRank []float64
	// Workers is the number of goroutines used for offline precomputation;
	// zero means a small multiple of GOMAXPROCS chosen by the engine.
	Workers int
	// MaxPushes caps the per-prime-PPV expansion work; zero uses the prime
	// package default.
	MaxPushes int
	// Partition restricts the engine to one horizontal shard of the hub
	// index: hub selection still runs over the whole graph (prime PPVs block
	// at every hub, owned or not), but only the hubs this shard owns are
	// precomputed, stored and expanded by the partial-query path. The zero
	// value is unsharded.
	Partition Partition
	// InitialEpoch is the index epoch the engine starts at: the number of
	// graph-update batches already folded into the supplied graph. Openers
	// that replay a disk index's update log set it to the replayed batch count, so
	// a restarted replica reports the same epoch as one that applied the
	// batches live.
	InitialEpoch uint64
}

func (o Options) withDefaults() (Options, error) {
	if o.Alpha == 0 {
		o.Alpha = pagerank.DefaultAlpha
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return o, fmt.Errorf("core: alpha %v outside (0,1)", o.Alpha)
	}
	if o.Epsilon == 0 {
		o.Epsilon = prime.DefaultEpsilon
	}
	if o.Delta == 0 {
		o.Delta = DefaultDelta
	}
	if o.Delta < 0 {
		o.Delta = 0
	}
	if o.Clip == 0 {
		o.Clip = DefaultClip
	}
	if o.Clip < 0 {
		o.Clip = 0
	}
	if o.NumHubs < 0 {
		return o, errors.New("core: negative NumHubs")
	}
	if o.Workers < 0 {
		return o, errors.New("core: negative Workers")
	}
	if err := o.Partition.validate(); err != nil {
		return o, err
	}
	return o, nil
}

// primeOptions derives the prime-PPV options from the engine options.
func (o Options) primeOptions() prime.Options {
	return prime.Options{Alpha: o.Alpha, Epsilon: o.Epsilon, MaxPushes: o.MaxPushes}
}

// StopCondition is the online stopping condition S of Algorithm 2. Query
// processing always performs iteration 0 (the prime PPV of the query node)
// and then keeps adding PPV increments while every configured bound still
// allows it. The zero value performs iteration 0 only (eta = 0); use
// DefaultStop for the paper's default of eta = 2.
type StopCondition struct {
	// MaxIterations is eta, the maximum number of increments beyond iteration
	// 0. Negative means unbounded (stop only on the other conditions or when
	// no extendable hubs remain).
	MaxIterations int
	// TargetL1Error, when positive, stops as soon as the accuracy-aware L1
	// error bound phi(k) = 1 - sum(estimate) drops to or below this value.
	TargetL1Error float64
	// TimeLimit, when positive, stops before starting an iteration once the
	// elapsed query time exceeds it.
	TimeLimit time.Duration
}

// DefaultStop returns the paper's default stopping condition: eta =
// DefaultIterations iterations.
func DefaultStop() StopCondition {
	return StopCondition{MaxIterations: DefaultIterations}
}

// Exhaustive returns a stop condition that runs until the estimate stops
// improving beyond tol (or no hubs remain to expand). It is used by tests
// that verify convergence to the exact PPV.
func Exhaustive(tol float64) StopCondition {
	return StopCondition{MaxIterations: -1, TargetL1Error: tol}
}

func (s StopCondition) maxIterations() int {
	if s.MaxIterations < 0 {
		return int(^uint(0) >> 1) // effectively unbounded
	}
	return s.MaxIterations
}

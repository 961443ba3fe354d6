// Package experiments contains one driver per table and figure of the
// paper's evaluation section (Sect. 6), plus the ablations listed in
// README.md's experiment index. Each driver builds (or reuses) the synthetic
// datasets standing in for DBLP and LiveJournal, runs the methods under the
// experiment's parameters, and returns a result that renders as a paper-style
// table.
//
// The drivers are deliberately deterministic (fixed seeds) so repeated runs
// produce identical tables, and they are shared between the cmd/ppvbench CLI
// and the testing.B benchmarks in the repository root.
package experiments

import (
	"fmt"
	"sync"

	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/pagerank"
	"fastppv/internal/sparse"
	"fastppv/internal/workload"
)

// Scale selects how large the synthetic datasets are. The paper's graphs have
// millions of edges; the reduced scales keep the full experiment suite
// runnable in CI while preserving the structural properties (degree skew,
// hub reachability) the algorithms are sensitive to.
type Scale int

const (
	// ScaleTiny is used by unit tests of the experiment drivers themselves.
	ScaleTiny Scale = iota
	// ScaleSmall is the default for benchmarks and the CLI.
	ScaleSmall
	// ScaleMedium approaches the paper's setting more closely and is meant
	// for longer offline runs.
	ScaleMedium
)

// ParseScale converts a CLI string into a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return ScaleTiny, nil
	case "small", "":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (want tiny, small or medium)", s)
	}
}

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// queries returns the number of query nodes evaluated per experiment at this
// scale (the paper uses 1000).
func (s Scale) queries() int {
	switch s {
	case ScaleTiny:
		return 6
	case ScaleMedium:
		return 60
	default:
		return 24
	}
}

// bibConfig returns the DBLP stand-in generator configuration for the scale.
func (s Scale) bibConfig() gen.BibliographicConfig {
	cfg := gen.DefaultBibliographicConfig()
	switch s {
	case ScaleTiny:
		cfg.Papers, cfg.Authors, cfg.Venues = 1200, 900, 40
	case ScaleSmall:
		cfg.Papers, cfg.Authors, cfg.Venues = 8000, 6000, 200
	case ScaleMedium:
		cfg.Papers, cfg.Authors, cfg.Venues = 30000, 22000, 600
	}
	return cfg
}

// socialConfig returns the LiveJournal stand-in generator configuration.
func (s Scale) socialConfig() gen.SocialConfig {
	cfg := gen.DefaultSocialConfig()
	switch s {
	case ScaleTiny:
		cfg.Nodes, cfg.OutDegreeMean = 2500, 6
	case ScaleSmall:
		cfg.Nodes, cfg.OutDegreeMean = 12000, 7
	case ScaleMedium:
		cfg.Nodes, cfg.OutDegreeMean = 40000, 8
	}
	return cfg
}

// hubFraction returns the default |H| as a fraction of the node count for
// each dataset, mirroring the ratio of the paper's defaults (20K hubs for the
// 2M-node DBLP, 120K hubs for the 1.2M-node LiveJournal sample).
const (
	dblpHubFraction = 0.01
	ljHubFraction   = 0.10
)

// DatasetName identifies one of the two evaluation graphs.
type DatasetName string

const (
	// DBLP is the undirected bibliographic network stand-in.
	DBLP DatasetName = "dblp"
	// LiveJournal is the directed social network stand-in.
	LiveJournal DatasetName = "livejournal"
)

// Dataset bundles a graph with everything the drivers repeatedly need:
// a query workload, global PageRank (shared by hub selection across methods)
// and a cache of exact PPVs used as ground truth.
type Dataset struct {
	Name    DatasetName
	Graph   *graph.Graph
	Queries []graph.NodeID
	// PageRank holds the global PageRank of every node.
	PageRank []float64
	// Bib is only set for the DBLP dataset and provides snapshots.
	Bib *gen.Bibliographic

	mu    sync.Mutex
	exact map[graph.NodeID]sparse.Vector
}

// DefaultHubs returns the default hub count for this dataset at the given
// graph (a fraction of its node count, minimum 16).
func (d *Dataset) DefaultHubs() int {
	frac := dblpHubFraction
	if d.Name == LiveJournal {
		frac = ljHubFraction
	}
	h := int(float64(d.Graph.NumNodes()) * frac)
	if h < 16 {
		h = 16
	}
	return h
}

// ExactPPV returns the exact PPV of q, computing and caching it on first use.
func (d *Dataset) ExactPPV(q graph.NodeID) (sparse.Vector, error) {
	d.mu.Lock()
	if v, ok := d.exact[q]; ok {
		d.mu.Unlock()
		return v, nil
	}
	d.mu.Unlock()
	v, err := pagerank.ExactPPV(d.Graph, q, pagerank.Options{})
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.exact[q] = v
	d.mu.Unlock()
	return v, nil
}

// datasetCache memoizes datasets per (name, scale) within one process, so
// that running many experiments (e.g. the whole benchmark suite) builds each
// graph and its PageRank only once.
var datasetCache sync.Map

// Load returns the dataset with the given name at the given scale.
func Load(name DatasetName, scale Scale) (*Dataset, error) {
	key := fmt.Sprintf("%s/%s", name, scale)
	if v, ok := datasetCache.Load(key); ok {
		return v.(*Dataset), nil
	}
	d, err := build(name, scale)
	if err != nil {
		return nil, err
	}
	actual, _ := datasetCache.LoadOrStore(key, d)
	return actual.(*Dataset), nil
}

func build(name DatasetName, scale Scale) (*Dataset, error) {
	d := &Dataset{Name: name, exact: make(map[graph.NodeID]sparse.Vector)}
	switch name {
	case DBLP:
		bib, err := gen.NewBibliographic(scale.bibConfig())
		if err != nil {
			return nil, err
		}
		d.Bib = bib
		d.Graph = bib.Graph
	case LiveJournal:
		g, err := gen.SocialGraph(scale.socialConfig())
		if err != nil {
			return nil, err
		}
		d.Graph = g
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	pr, err := pagerank.Global(d.Graph, pagerank.Options{})
	if err != nil {
		return nil, err
	}
	d.PageRank = pr
	d.Queries = workload.QuerySet(d.Graph, workload.QueryOptions{
		Count:           scale.queries(),
		Seed:            99,
		RequireOutEdges: true,
	})
	return d, nil
}

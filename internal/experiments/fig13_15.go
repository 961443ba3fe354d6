package experiments

import (
	"fmt"
	"time"

	"fastppv/internal/accuracy"
	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/pagerank"
	"fastppv/internal/sparse"
	"fastppv/internal/workload"
)

// GrowthPoint is one graph of the growth series: a DBLP snapshot (by year) or
// a LiveJournal edge sample (S1..S5), as in Fig. 13 of the paper.
type GrowthPoint struct {
	Dataset DatasetName
	Label   string
	Graph   *graph.Graph
	Nodes   int
	Edges   int
}

// GrowthSeries builds the growth series of Fig. 13: five DBLP snapshots
// (1994, 1998, 2002, 2006, 2010) and five LiveJournal edge samples of
// increasing size (S1..S5).
func GrowthSeries(scale Scale) ([]GrowthPoint, error) {
	var out []GrowthPoint

	dblp, err := Load(DBLP, scale)
	if err != nil {
		return nil, err
	}
	for _, year := range []int{1994, 1998, 2002, 2006, 2010} {
		g := dblp.Bib.Snapshot(year)
		out = append(out, GrowthPoint{
			Dataset: DBLP,
			Label:   fmt.Sprint(year),
			Graph:   g,
			Nodes:   g.NumNodes(),
			Edges:   g.NumLogicalEdges(),
		})
	}

	lj, err := Load(LiveJournal, scale)
	if err != nil {
		return nil, err
	}
	total := lj.Graph.NumLogicalEdges()
	for i, frac := range []float64{0.16, 0.36, 0.55, 0.80, 1.0} {
		g := lj.Graph
		if frac < 1.0 {
			g = graph.SampleEdges(lj.Graph, int(float64(total)*frac), int64(100+i))
		}
		out = append(out, GrowthPoint{
			Dataset: LiveJournal,
			Label:   fmt.Sprintf("S%d", i+1),
			Graph:   g,
			Nodes:   g.NumNodes(),
			Edges:   g.NumLogicalEdges(),
		})
	}
	return out, nil
}

// Fig13Table renders the growth series sizes.
func Fig13Table(points []GrowthPoint) *workload.Table {
	t := workload.NewTable(
		"Fig. 13 — graphs of varying size for the scalability study",
		"Dataset", "Snapshot/Sample", "Nodes", "Edges")
	for _, p := range points {
		t.AddRow(string(p.Dataset), p.Label, p.Nodes, p.Edges)
	}
	return t
}

// ScalabilityPoint is one row of Fig. 14/15: FastPPV run on one graph of the
// growth series with a hub count proportional to the graph size, reporting
// online accuracy and query time plus offline space and time.
type ScalabilityPoint struct {
	GrowthPoint
	NumHubs      int
	Accuracy     accuracy.Report
	AvgQueryTime time.Duration
	OfflineTime  time.Duration
	OfflineBytes int64
}

// Scalability runs FastPPV on every graph of the growth series (E10/E11,
// Fig. 14 and 15 of the paper). The number of hubs grows with the graph so
// that online query time stays near constant, which is the paper's central
// scalability claim; offline costs then grow linearly with graph size.
func Scalability(scale Scale) ([]ScalabilityPoint, error) {
	series, err := GrowthSeries(scale)
	if err != nil {
		return nil, err
	}
	var out []ScalabilityPoint
	for _, p := range series {
		frac := dblpHubFraction
		if p.Dataset == LiveJournal {
			frac = ljHubFraction
		}
		hubs := max(16, int(float64(p.Graph.NumNodes())*frac))

		queries := workload.QuerySet(p.Graph, workload.QueryOptions{
			Count:           scale.queries(),
			Seed:            7,
			RequireOutEdges: true,
		})
		if len(queries) == 0 {
			continue
		}
		engine, err := core.NewEngine(p.Graph, nil, core.Options{NumHubs: hubs})
		if err != nil {
			return nil, err
		}
		if err := engine.Precompute(); err != nil {
			return nil, fmt.Errorf("scalability %s/%s: %w", p.Dataset, p.Label, err)
		}
		var (
			total   time.Duration
			reports []accuracy.Report
		)
		for _, q := range queries {
			start := time.Now()
			r, err := engine.QueryOn(nil, q, core.DefaultStop())
			total += time.Since(start)
			if err != nil {
				return nil, err
			}
			exact, err := pagerank.ExactPPV(p.Graph, q, pagerank.Options{})
			if err != nil {
				return nil, err
			}
			reports = append(reports, accuracy.Evaluate(exact, sparse.FromEntries(r.Entries), accuracy.DefaultTopK))
		}
		off := engine.OfflineStats()
		out = append(out, ScalabilityPoint{
			GrowthPoint:  p,
			NumHubs:      hubs,
			Accuracy:     accuracy.Average(reports),
			AvgQueryTime: total / time.Duration(len(queries)),
			OfflineTime:  off.Total,
			OfflineBytes: off.IndexBytes,
		})
	}
	return out, nil
}

// Fig14Table renders the online scalability results.
func Fig14Table(points []ScalabilityPoint) *workload.Table {
	t := workload.NewTable(
		"Fig. 14 — scaling FastPPV in online query processing",
		"Dataset", "Graph", "|H|", "Kendall", "Precision", "RAG", "L1 similarity", "Online ms/query")
	for _, p := range points {
		t.AddRow(string(p.Dataset), p.Label, p.NumHubs,
			p.Accuracy.KendallTau, p.Accuracy.Precision, p.Accuracy.RAG, p.Accuracy.L1Similarity,
			ms(p.AvgQueryTime))
	}
	return t
}

// Fig15Table renders the offline costs needed to keep online time constant.
func Fig15Table(points []ScalabilityPoint) *workload.Table {
	t := workload.NewTable(
		"Fig. 15 — offline precomputation costs across graph sizes",
		"Dataset", "Graph", "Nodes+Edges", "Offline space MB", "Offline time s")
	for _, p := range points {
		t.AddRow(string(p.Dataset), p.Label, p.Nodes+p.Edges,
			float64(p.OfflineBytes)/(1<<20), p.OfflineTime.Seconds())
	}
	return t
}

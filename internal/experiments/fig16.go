package experiments

import (
	"fmt"
	"os"
	"time"

	"fastppv/internal/core"
	"fastppv/internal/diskgraph"
	"fastppv/internal/workload"
)

// DiskPoint is one row of Fig. 16: disk-based online query processing with
// the graph segmented into a given number of clusters.
type DiskPoint struct {
	Dataset         DatasetName
	Clusters        int
	AvgFaults       float64
	AvgQueryTime    time.Duration
	MemoryNeedRatio float64
}

// DiskBased reproduces the disk-based online processing experiment (E12,
// Fig. 16 of the paper): the graph is clustered, written to per-cluster files
// on disk, and queries identify their prime subgraph through a one-cluster
// memory window, counting cluster faults. The fault cap equals the number of
// clusters, as in the paper.
func DiskBased(scale Scale, clusterCounts []int) ([]DiskPoint, error) {
	if len(clusterCounts) == 0 {
		clusterCounts = []int{10, 15, 25, 35, 50}
	}
	var out []DiskPoint
	for _, name := range []DatasetName{DBLP, LiveJournal} {
		d, err := Load(name, scale)
		if err != nil {
			return nil, err
		}
		// The PPV index itself stays in memory (as in Sect. 5.3 the index is
		// fetched per hub with one random access; its size is reported by
		// Fig. 7/11); only the graph is disk-resident here.
		engine, err := buildFastPPV(d, FastPPVConfig{NumHubs: d.DefaultHubs()})
		if err != nil {
			return nil, err
		}
		for _, k := range clusterCounts {
			point, err := diskBasedOne(d, engine.Engine, k)
			if err != nil {
				return nil, fmt.Errorf("disk-based %s with %d clusters: %w", name, k, err)
			}
			out = append(out, point)
		}
	}
	return out, nil
}

func diskBasedOne(d *Dataset, engine *core.Engine, clusters int) (DiskPoint, error) {
	point := DiskPoint{Dataset: d.Name, Clusters: clusters}

	clustering, err := diskgraph.Partition(d.Graph, diskgraph.ClusterOptions{NumClusters: clusters, Seed: 31})
	if err != nil {
		return point, err
	}
	dir, err := os.MkdirTemp("", "fastppv-disk-*")
	if err != nil {
		return point, err
	}
	defer os.RemoveAll(dir)
	store, err := diskgraph.Build(d.Graph, clustering, dir)
	if err != nil {
		return point, err
	}

	var (
		totalFaults int
		totalTime   time.Duration
	)
	for _, q := range d.Queries {
		view := store.NewView(clusters) // fault cap = number of clusters, as in the paper
		start := time.Now()
		_, err := engine.QueryOn(view, q, core.DefaultStop())
		totalTime += time.Since(start)
		if err != nil {
			return point, err
		}
		if err := view.Err(); err != nil {
			return point, err
		}
		totalFaults += view.Faults()
	}
	largest, err := store.LargestClusterBytes()
	if err != nil {
		return point, err
	}
	total, err := store.TotalBytes()
	if err != nil {
		return point, err
	}
	n := len(d.Queries)
	point.AvgFaults = float64(totalFaults) / float64(n)
	point.AvgQueryTime = totalTime / time.Duration(n)
	if total > 0 {
		point.MemoryNeedRatio = float64(largest) / float64(total)
	}
	return point, nil
}

// Fig16Table renders the disk-based online processing results.
func Fig16Table(points []DiskPoint) *workload.Table {
	t := workload.NewTable(
		"Fig. 16 — disk-based online query processing",
		"Dataset", "#Clusters", "Faults/query", "Time/query ms", "Memory need %")
	for _, p := range points {
		t.AddRow(string(p.Dataset), p.Clusters, p.AvgFaults,
			ms(p.AvgQueryTime),
			p.MemoryNeedRatio*100)
	}
	return t
}

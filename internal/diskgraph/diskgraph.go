// Package diskgraph provides the disk-resident graph view used by the
// disk-based online query processing experiment (Sect. 5.3 and 6.4.2 of the
// paper). The graph is segmented into clusters; each cluster's adjacency
// lists are stored in their own file, and at any time at most one cluster is
// held in memory. Touching a node outside the resident cluster is a "cluster
// fault": the required cluster is swapped in from disk and the fault is
// counted. An optional fault cap prematurely terminates prime-subgraph growth
// exactly as the paper describes, trading a little accuracy for query time.
package diskgraph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"fastppv/internal/cluster"
	"fastppv/internal/graph"
)

// Store is an on-disk clustered graph. Open one view per query with NewView;
// views are not safe for concurrent use (each models a single query's memory
// budget of one resident cluster).
type Store struct {
	dir        string
	numNodes   int
	assignment []int32
	outDegree  []int32
	numFiles   int
}

// clusterFileName returns the file holding cluster id.
func clusterFileName(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("cluster-%04d.bin", id))
}

// Build writes the clustered representation of g into dir (created if
// needed), one binary file per cluster. The per-node out-degrees and the
// cluster assignment are kept in memory by the returned Store: they are small
// (a few bytes per node) compared to the adjacency lists and correspond to
// the metadata a real deployment would pin in memory.
func Build(g *graph.Graph, clustering *cluster.Clustering, dir string) (*Store, error) {
	if len(clustering.Assignment) != g.NumNodes() {
		return nil, fmt.Errorf("diskgraph: clustering covers %d nodes, graph has %d", len(clustering.Assignment), g.NumNodes())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	k := clustering.NumClusters()
	outDegree := make([]int32, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		outDegree[u] = int32(g.OutDegree(graph.NodeID(u)))
	}
	for id := 0; id < k; id++ {
		if err := writeClusterFile(clusterFileName(dir, id), g, clustering, id); err != nil {
			return nil, err
		}
	}
	return &Store{
		dir:        dir,
		numNodes:   g.NumNodes(),
		assignment: clustering.Assignment,
		outDegree:  outDegree,
		numFiles:   k,
	}, nil
}

// Open loads a Store previously written by Build from dir. The graph itself
// is not read into memory; only the metadata file is.
func Open(dir string) (*Store, error) {
	f, err := os.Open(filepath.Join(dir, "meta.bin"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var numNodes, numFiles uint64
	if err := binary.Read(br, binary.LittleEndian, &numNodes); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &numFiles); err != nil {
		return nil, err
	}
	s := &Store{
		dir:        dir,
		numNodes:   int(numNodes),
		numFiles:   int(numFiles),
		assignment: make([]int32, numNodes),
		outDegree:  make([]int32, numNodes),
	}
	for i := range s.assignment {
		if err := binary.Read(br, binary.LittleEndian, &s.assignment[i]); err != nil {
			return nil, err
		}
	}
	for i := range s.outDegree {
		if err := binary.Read(br, binary.LittleEndian, &s.outDegree[i]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SaveMeta persists the store metadata so the store can be reopened with Open.
func (s *Store) SaveMeta() error {
	f, err := os.Create(filepath.Join(s.dir, "meta.bin"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := binary.Write(bw, binary.LittleEndian, uint64(s.numNodes)); err != nil {
		f.Close()
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(s.numFiles)); err != nil {
		f.Close()
		return err
	}
	for _, a := range s.assignment {
		if err := binary.Write(bw, binary.LittleEndian, a); err != nil {
			f.Close()
			return err
		}
	}
	for _, d := range s.outDegree {
		if err := binary.Write(bw, binary.LittleEndian, d); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// NumNodes returns the number of nodes of the underlying graph.
func (s *Store) NumNodes() int { return s.numNodes }

// NumClusters returns the number of cluster files.
func (s *Store) NumClusters() int { return s.numFiles }

// ClusterOf returns the cluster a node belongs to.
func (s *Store) ClusterOf(u graph.NodeID) int { return int(s.assignment[u]) }

// ClusterFileBytes returns the size in bytes of cluster id's file, used to
// report the working-set size of the disk-based configuration.
func (s *Store) ClusterFileBytes(id int) (int64, error) {
	st, err := os.Stat(clusterFileName(s.dir, id))
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// LargestClusterBytes returns the size of the largest cluster file.
func (s *Store) LargestClusterBytes() (int64, error) {
	var max int64
	for id := 0; id < s.numFiles; id++ {
		sz, err := s.ClusterFileBytes(id)
		if err != nil {
			return 0, err
		}
		if sz > max {
			max = sz
		}
	}
	return max, nil
}

// TotalBytes returns the combined size of all cluster files.
func (s *Store) TotalBytes() (int64, error) {
	var total int64
	for id := 0; id < s.numFiles; id++ {
		sz, err := s.ClusterFileBytes(id)
		if err != nil {
			return 0, err
		}
		total += sz
	}
	return total, nil
}

// writeClusterFile stores the adjacency lists of the nodes in cluster id.
// Format (little endian): count uint32, then per node: node uint32, degree
// uint32, degree * target uint32. Cross-cluster targets are included; they
// are what trigger cluster faults at query time.
func writeClusterFile(path string, g *graph.Graph, clustering *cluster.Clustering, id int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	members := clustering.Members(id)
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(members))); err != nil {
		f.Close()
		return err
	}
	for _, u := range members {
		nbrs := g.OutNeighbors(u)
		if err := binary.Write(bw, binary.LittleEndian, uint32(u)); err != nil {
			f.Close()
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(nbrs))); err != nil {
			f.Close()
			return err
		}
		for _, v := range nbrs {
			if err := binary.Write(bw, binary.LittleEndian, uint32(v)); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readClusterFile loads one cluster's adjacency lists. A cluster fault is on
// the query path, so the file is read in one call and decoded in place.
func readClusterFile(path string) (map[graph.NodeID][]graph.NodeID, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	truncated := func() error { return fmt.Errorf("diskgraph: truncated cluster file %s", path) }
	// next consumes n little-endian uint32 words.
	next := func(n uint32) ([]byte, bool) {
		if uint64(len(buf)) < 4*uint64(n) {
			return nil, false
		}
		words := buf[:4*n]
		buf = buf[4*n:]
		return words, true
	}
	head, ok := next(1)
	if !ok {
		return nil, truncated()
	}
	count := binary.LittleEndian.Uint32(head)
	adj := make(map[graph.NodeID][]graph.NodeID, min(count, uint32(len(buf)/8)))
	for i := uint32(0); i < count; i++ {
		head, ok := next(2)
		if !ok {
			return nil, truncated()
		}
		node, deg := binary.LittleEndian.Uint32(head), binary.LittleEndian.Uint32(head[4:])
		words, ok := next(deg)
		if !ok {
			return nil, truncated()
		}
		targets := make([]graph.NodeID, deg)
		for j := range targets {
			targets[j] = graph.NodeID(binary.LittleEndian.Uint32(words[4*j:]))
		}
		adj[graph.NodeID(node)] = targets
	}
	return adj, nil
}

// View is a single-query window onto the disk-resident graph: at most one
// cluster is held in memory. It implements prime.Adjacency, so FastPPV's
// online phase can identify the query's prime subgraph directly on it while
// cluster faults are counted.
type View struct {
	store    *Store
	resident int
	adj      map[graph.NodeID][]graph.NodeID
	faults   int
	// maxFaults, when positive, makes accesses outside the resident cluster
	// return an empty adjacency once the fault budget is exhausted
	// (premature termination of the prime-subgraph search, Sect. 5.3).
	maxFaults int
	loadErr   error
}

// NewView opens a fresh view with no resident cluster. maxFaults <= 0 means
// unlimited faults.
func (s *Store) NewView(maxFaults int) *View {
	return &View{store: s, resident: -1, maxFaults: maxFaults}
}

// Faults returns the number of cluster faults taken so far.
func (v *View) Faults() int { return v.faults }

// Err returns the first I/O error encountered while swapping clusters, if
// any. Traversals treat a failed swap like an exhausted fault budget, so the
// error must be checked after the query.
func (v *View) Err() error { return v.loadErr }

// NumNodes implements prime.Adjacency.
func (v *View) NumNodes() int { return v.store.numNodes }

// OutDegree implements prime.Adjacency; it is served from the in-memory
// metadata and never faults.
func (v *View) OutDegree(u graph.NodeID) int { return int(v.store.outDegree[u]) }

// OutNeighbors implements prime.Adjacency. If u's cluster is not resident, a
// cluster fault is taken (unless the fault budget is exhausted, in which case
// an empty adjacency is returned and the walk is truncated there).
func (v *View) OutNeighbors(u graph.NodeID) []graph.NodeID {
	want := v.store.ClusterOf(u)
	if v.resident != want {
		if v.maxFaults > 0 && v.faults >= v.maxFaults {
			return nil
		}
		if !v.swapIn(want) {
			return nil
		}
	}
	return v.adj[u]
}

// swapIn loads cluster id, replacing the resident cluster, and counts the
// fault. It reports whether the load succeeded.
func (v *View) swapIn(id int) bool {
	adj, err := readClusterFile(clusterFileName(v.store.dir, id))
	if err != nil {
		if v.loadErr == nil {
			v.loadErr = err
		}
		return false
	}
	v.faults++
	v.resident = id
	v.adj = adj
	return true
}

package fastppv

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fastppv/internal/accuracy"
	"fastppv/internal/cluster"
	"fastppv/internal/core"
	"fastppv/internal/gen"
	"fastppv/internal/graph"
	"fastppv/internal/pagerank"
	"fastppv/internal/ppvindex"
	"fastppv/internal/prime"
	"fastppv/internal/server"
	"fastppv/internal/sparse"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger_golden.txt from the current code")

// ledgerGolden is the deterministic ledger: the work, sizes and accuracy of a
// fixed seeded workload, one `name value` row a line, every one independent
// of the host and of GOMAXPROCS. Each row is a per-query mean unless its name
// says otherwise. Regenerate with `go test -run TestLedgerGolden -update .`;
// a change that moves a row says which, by how much and why.
const ledgerGolden = "testdata/ledger_golden.txt"

// The ledger workload: a social graph, its hub count, the query sources and
// the sources checked against the exact PPV.
const (
	ledgerNodes   = 10_000
	ledgerHubs    = 1_000
	ledgerSources = 200
	ledgerExact   = 30
	ledgerPage    = 4096 // the page size ppvindex.pages_touched counts in
)

// ledgerRow is one row of the ledger.
type ledgerRow struct {
	name  string
	value float64
}

// readCounter counts the hub records a query reads: how many, which, and the
// entries they hold.
type readCounter struct {
	records, entries int64
	hubs             []graph.NodeID
}

// countingStore is an index whose published snapshot counts its record reads
// into c.
type countingStore struct {
	core.IndexStore
	c *readCounter
}

func (s countingStore) Snapshot() (ppvindex.Snapshot, error) {
	snap, err := s.IndexStore.Snapshot()
	if err != nil {
		return nil, err
	}
	return countingSnapshot{snap, s.c}, nil
}

type countingSnapshot struct {
	ppvindex.Snapshot
	c *readCounter
}

func (s countingSnapshot) GetView(h graph.NodeID) (ppvindex.HubRecordView, bool, error) {
	v, ok, err := s.Snapshot.GetView(h)
	if ok && err == nil {
		s.c.records++
		s.c.entries += int64(v.Len())
		s.c.hubs = append(s.c.hubs, h)
	}
	return v, ok, err
}

// ledgerQueries runs every source on e to the default stop and returns the
// answers; after each query it hands perQuery the hubs whose records the
// query read, c holding their counts.
func ledgerQueries(t *testing.T, e *core.Engine, c *readCounter, sources []graph.NodeID, perQuery func(q graph.NodeID, hubs []graph.NodeID)) []*core.Result {
	t.Helper()
	out := make([]*core.Result, len(sources))
	for i, q := range sources {
		*c = readCounter{hubs: c.hubs[:0]}
		res, err := e.QueryOn(nil, q, core.DefaultStop())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
		perQuery(q, c.hubs)
	}
	return out
}

// ledgerRows computes the ledger in a fixed order.
func ledgerRows(t *testing.T) []ledgerRow {
	t.Helper()
	var rows []ledgerRow
	add := func(name string, v float64) { rows = append(rows, ledgerRow{name, v}) }
	mean := func(name string, total float64, n int) { add(name, total/float64(n)) }

	g, err := gen.SocialGraph(gen.SocialConfig{Nodes: ledgerNodes, OutDegreeMean: 8, Attachment: 0.85, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sources := make([]graph.NodeID, ledgerSources)
	for i, p := range rng.Perm(ledgerNodes)[:ledgerSources] {
		sources[i] = graph.NodeID(p)
	}
	opts := Options{NumHubs: ledgerHubs}

	// The in-memory index: sizes, then the work of every query.
	memReads := &readCounter{}
	mem, err := core.NewEngine(g, countingStore{ppvindex.NewMemIndex(), memReads}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Precompute(); err != nil {
		t.Fatal(err)
	}
	off := mem.OfflineStats()
	add("graph.nodes", float64(g.NumNodes()))
	add("graph.arcs", float64(g.NumEdges()))
	// The CSR: a uint32 offset a node plus one, a NodeID an arc, and an int32
	// in-degree a node.
	add("graph.bytes", float64(4*(g.NumNodes()+1)+4*g.NumEdges()+4*g.NumNodes()))
	add("index.hubs", float64(off.Hubs))
	add("index.entries", float64(off.IndexEntries))
	add("index.bytes", float64(off.IndexBytes))
	add("index.clipped_entries", float64(off.ClippedEntries))

	o := mem.Options()
	primeOpts := prime.Options{Alpha: o.Alpha, Epsilon: o.Epsilon, MaxPushes: o.MaxPushes}
	var sc prime.Scratch
	var pushes, touched, rootEntries, frontier, expanded, skipped, records, distinct, entries float64
	answers := ledgerQueries(t, mem, memReads, sources, func(q graph.NodeID, hubs []graph.NodeID) {
		records += float64(memReads.records)
		entries += float64(memReads.entries)
		distinct += float64(len(slices.Compact(slices.Sorted(slices.Values(hubs)))))
	})
	for i, res := range answers {
		q := sources[i]
		if res.QueryPPVComputed {
			root, st, err := sc.Push(g, q, mem.Hubs(), primeOpts, 0)
			if err != nil {
				t.Fatal(err)
			}
			pushes += float64(st.Pushes)
			touched += float64(st.NodesTouched)
			rootEntries += float64(len(root))
		} else {
			view, _, err := mem.Index().GetView(q)
			if err != nil {
				t.Fatal(err)
			}
			rootEntries += float64(view.Len())
			view.Release()
		}
		frontier += float64(res.PerIteration[0].FrontierSize)
		for _, st := range res.PerIteration[1:] {
			expanded += float64(st.HubsExpanded)
			skipped += float64(st.HubsSkipped)
		}
	}
	n := len(sources)
	mean("prime.pushes", pushes, n)
	mean("prime.nodes_touched", touched, n)
	mean("root.entries", rootEntries, n)
	mean("core.frontier", frontier, n)
	mean("core.hubs_expanded", expanded, n)
	mean("core.hubs_skipped", skipped, n)
	mean("sparse.entries_folded", entries, n)
	mean("ppvindex.records_read", records, n)
	mean("ppvindex.distinct_records_read", distinct, n)

	// Accuracy: the bound over every source, the true error and the ranking
	// against the exact PPV over the first ledgerExact.
	bounds := make([]float64, n)
	for i, res := range answers {
		bounds[i] = res.L1ErrorBound
	}
	add("l1_bound.p50", quantile(bounds, 0.5))
	add("l1_bound.p90", quantile(bounds, 0.9))
	errs := make([]float64, ledgerExact)
	var precision, kendall float64
	for i, q := range sources[:ledgerExact] {
		exact, err := pagerank.ExactPPV(g, q, pagerank.Options{Alpha: o.Alpha})
		if err != nil {
			t.Fatal(err)
		}
		errs[i] = l1Distance(exact, answers[i].Entries)
		// The exact PPV is a power iteration to 1e-10, so the bound holds to
		// that tolerance.
		if errs[i] > answers[i].L1ErrorBound+1e-9 {
			t.Errorf("q=%d: L1 error %v above the bound %v", q, errs[i], answers[i].L1ErrorBound)
		}
		rep := accuracy.Evaluate(exact, sparse.FromEntries(answers[i].Entries), 10)
		precision += rep.Precision
		kendall += rep.KendallTau
	}
	add("l1_err.p50", quantile(errs, 0.5))
	mean("precision_at_10", precision, ledgerExact)
	mean("kendall_at_10", kendall, ledgerExact)

	// The disk store: the same queries over the mapped file, each charged the
	// distinct pages its records span; then five seeded update batches.
	path := filepath.Join(t.TempDir(), "ledger.ppv")
	store, err := ppvindex.CreateStore(path, graphBinding(g), DiskIndexOptions{BlockCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	diskReads := &readCounter{}
	disk, err := core.NewEngine(g, countingStore{store, diskReads}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Precompute(); err != nil {
		t.Fatal(err)
	}
	spans := recordSpans(t, path)
	add("disk.file_bytes", float64(fileSize(t, path)))
	var pages float64
	diskAnswers := ledgerQueries(t, disk, diskReads, sources, func(q graph.NodeID, hubs []graph.NodeID) {
		seen := map[int64]bool{}
		for _, h := range hubs {
			span, ok := spans[h]
			if !ok {
				t.Fatalf("hub %d read but not in the directory of %s", h, path)
			}
			for p := span[0] / ledgerPage; p <= (span[1]-1)/ledgerPage; p++ {
				seen[p] = true
			}
		}
		pages += float64(len(seen))
	})
	for i := range diskAnswers {
		if diskAnswers[i].L1ErrorBound != answers[i].L1ErrorBound {
			t.Fatalf("q=%d: the disk store bounds %v, the in-memory index %v", sources[i], diskAnswers[i].L1ErrorBound, answers[i].L1ErrorBound)
		}
	}
	mean("ppvindex.pages_touched", pages, n)
	var affected, unaffected float64
	for b := 0; b < 5; b++ {
		var upd core.GraphUpdate
		for len(upd.AddedEdges) < 4 {
			from, to := graph.NodeID(rng.Intn(ledgerNodes)), graph.NodeID(rng.Intn(ledgerNodes))
			if from != to && !g.HasEdge(from, to) {
				upd.AddedEdges = append(upd.AddedEdges, graph.Edge{From: from, To: to})
			}
		}
		st, err := disk.ApplyUpdate(upd)
		if err != nil {
			t.Fatal(err)
		}
		affected += float64(st.AffectedHubs)
		unaffected += float64(st.UnaffectedHubs)
	}
	mean("update.affected_hubs", affected, 5)
	mean("update.unaffected_hubs", unaffected, 5)
	if ds, ok := store.DurabilityStats(); ok {
		add("update.log_bytes", float64(ds.LogBytes))
	}

	// Two shards behind a router on the binary stream.
	var targets []string
	var shardIndexBytes float64
	for s := 0; s < 2; s++ {
		so := opts
		so.Partition = core.Partition{Shard: s, Shards: 2}
		e, err := core.NewEngine(g, nil, so)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Precompute(); err != nil {
			t.Fatal(err)
		}
		shardIndexBytes += float64(e.OfflineStats().IndexBytes)
		srv, err := server.New(e, server.Config{CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		targets = append(targets, ts.URL)
	}
	add("cluster.index_bytes", shardIndexBytes)
	r, err := cluster.NewRouter(cluster.RouterConfig{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	traffic := func() (legs, bytes int64) {
		st := r.Stats()
		for _, sh := range st.Shards {
			legs += sh.Requests
		}
		return legs, st.WireBytesSent + st.WireBytesReceived
	}
	legs0, bytes0 := traffic()
	for i, q := range sources {
		res, err := r.Query(q, core.DefaultStop())
		if err != nil {
			t.Fatal(err)
		}
		// The router adds the shards' increments in another order than the
		// engine, so its bound may differ from the engine's in the last bits.
		if res.Degraded || math.Abs(res.L1ErrorBound-answers[i].L1ErrorBound) > 1e-12 {
			t.Fatalf("q=%d: the router bounds %v (degraded %v), the engine %v", q, res.L1ErrorBound, res.Degraded, answers[i].L1ErrorBound)
		}
	}
	legs1, bytes1 := traffic()
	mean("cluster.legs", float64(legs1-legs0), n)
	mean("cluster.wire_bytes", float64(bytes1-bytes0), n)
	return rows
}

// quantile is the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
}

// l1Distance is the L1 distance between exact and entries (sorted by node),
// summed in ascending node order.
func l1Distance(exact sparse.Vector, entries []sparse.Entry) float64 {
	var d float64
	ex := exact.AppendSorted(nil)
	i, j := 0, 0
	for i < len(ex) || j < len(entries) {
		switch {
		case j == len(entries) || i < len(ex) && ex[i].Node < entries[j].Node:
			d += math.Abs(ex[i].Score)
			i++
		case i == len(ex) || entries[j].Node < ex[i].Node:
			d += math.Abs(entries[j].Score)
			j++
		default:
			d += math.Abs(ex[i].Score - entries[j].Score)
			i, j = i+1, j+1
		}
	}
	return d
}

// recordSpans reads the directory of the index file at path and returns each
// hub's record as the byte range [start, end) it occupies: its 8-byte header
// and its payload.
func recordSpans(t *testing.T, path string) map[graph.NodeID][2]int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	foot := data[len(data)-16:]
	hubs := int(binary.LittleEndian.Uint32(foot[4:]))
	dir := data[binary.LittleEndian.Uint64(foot[8:]):]
	spans := make(map[graph.NodeID][2]int64, hubs)
	for i := 0; i < hubs; i++ {
		e := dir[12*i:]
		off := int64(binary.LittleEndian.Uint64(e[4:]))
		size := int64(binary.LittleEndian.Uint32(data[off+4:]))
		spans[graph.NodeID(binary.LittleEndian.Uint32(e))] = [2]int64{off, off + 8 + size}
	}
	return spans
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestLedgerGolden pins the ledger. Rows compare to 1e-12 relative, which is
// exact for every count; a row that moves names the layer whose work, size or
// accuracy changed.
func TestLedgerGolden(t *testing.T) {
	rows := ledgerRows(t)
	if *updateLedger {
		var sb strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&sb, "%s %s\n", r.name, strconv.FormatFloat(r.value, 'g', -1, 64))
		}
		if err := os.MkdirAll(filepath.Dir(ledgerGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(ledgerGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	var want []ledgerRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, v, ok := strings.Cut(sc.Text(), " ")
		x, err := strconv.ParseFloat(v, 64)
		if !ok || err != nil {
			t.Fatalf("malformed ledger line %q", sc.Text())
		}
		want = append(want, ledgerRow{name, x})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, the golden has %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.name != want[i].name {
			t.Fatalf("row %d is %q, the golden has %q", i, r.name, want[i].name)
		}
		if math.Abs(r.value-want[i].value) > 1e-12*math.Max(math.Abs(want[i].value), 1e-300) {
			t.Errorf("%s = %v, the golden has %v", r.name, r.value, want[i].value)
		}
	}
}

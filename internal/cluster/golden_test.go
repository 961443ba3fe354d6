package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/sparse"
)

// goldenFile holds one FNV-64a hash per (backend, source, stop) answer. It is
// regenerated (PPV_REGEN_GOLDEN=1 go test -run TestQueryGolden
// ./internal/cluster) only by a change that moves answers on purpose, last by
// storing hub-record scores as 16-bit codes; any other change to
// Engine.Query or Router.Query that moves a single bit of any estimate, bound
// or iteration count fails here.
const goldenFile = "testdata/query_golden.txt"

// answerHash folds (Iterations, bits(L1ErrorBound), ascending (node,
// bits(score))) into one FNV-64a value. Scores are hashed as their full
// float64 bits, not through the hub-record encoder, which keeps only an
// 11-bit mantissa of each and so would hide a move below its precision.
func answerHash(iterations int, bound float64, estimate sparse.Vector) uint64 {
	h := fnv.New64a()
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(iterations))
	h.Write(b[:8])
	binary.LittleEndian.PutUint64(b[:8], math.Float64bits(bound))
	h.Write(b[:8])
	for _, e := range estimate.AppendSorted(nil) {
		binary.LittleEndian.PutUint32(b[:4], uint32(e.Node))
		binary.LittleEndian.PutUint64(b[4:], math.Float64bits(e.Score))
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestQueryGolden(t *testing.T) {
	sources := []graph.NodeID{0, 3, 11, 42, 311, 699}
	stops := []core.StopCondition{
		{MaxIterations: 0},
		{MaxIterations: 2},
		{MaxIterations: 3},
		{MaxIterations: 8, TargetL1Error: 0.25},
	}
	got := map[string]uint64{}
	record := func(backend string, q graph.NodeID, stop core.StopCondition, res *core.Result) {
		key := fmt.Sprintf("%s q=%d eta=%d target=%g", backend, q, stop.MaxIterations, stop.TargetL1Error)
		got[key] = answerHash(res.Iterations, res.L1ErrorBound, res.Estimate)
		// Both public entry points carry the estimate twice: the sorted
		// entries and the map view, with the same bits.
		if want := res.Estimate.AppendSorted(nil); len(res.Entries) != len(want) {
			t.Errorf("%s: %d entries, the estimate map has %d", key, len(res.Entries), len(want))
		} else {
			for i, e := range want {
				if res.Entries[i].Node != e.Node || math.Float64bits(res.Entries[i].Score) != math.Float64bits(e.Score) {
					t.Errorf("%s: entry %d is %v, the estimate map has %v", key, i, res.Entries[i], e)
					break
				}
			}
		}
	}
	for _, n := range []int{2, 3} {
		single, shards := testCluster(t, n)
		r := routerOver(t, RouterConfig{}, shards...)
		for _, q := range sources {
			for _, stop := range stops {
				if n == 2 {
					res, err := single.Query(q, stop)
					if err != nil {
						t.Fatal(err)
					}
					record("engine", q, stop, res)
				}
				res, err := r.Query(q, stop)
				if err != nil {
					t.Fatal(err)
				}
				if res.Degraded {
					t.Fatalf("shards=%d q=%d: healthy cluster answered degraded", n, q)
				}
				record(fmt.Sprintf("router/%d", n), q, stop, &res.Result)
			}
		}
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if os.Getenv("PPV_REGEN_GOLDEN") != "" {
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %016x\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(keys) {
		t.Fatalf("%s has %d answers, the test computes %d", goldenFile, len(lines), len(keys))
	}
	for _, line := range lines {
		i := strings.LastIndexByte(line, ' ')
		key, want := line[:i], line[i+1:]
		if have := fmt.Sprintf("%016x", got[key]); have != want {
			t.Errorf("%s: hash %s, golden %s", key, have, want)
		}
	}
}

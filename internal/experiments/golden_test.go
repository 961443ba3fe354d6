package experiments

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figures_golden.txt from the current code")

// figuresGolden holds every accuracy number of Fig. 6, Fig. 12 and Theorem 2
// at ScaleTiny, with the online work per query of Fig. 7 and Fig. 12 and the
// offline bytes of Fig. 7, one cell a line: a key naming the figure, row and
// column, then the value. Times are left out: they are the only cells that may
// move without a change of answers or of work. Regenerate with
// `go test ./internal/experiments -run TestFiguresGolden -update`.
const figuresGolden = "testdata/figures_golden.txt"

// figureCells computes the golden's cells in a fixed order.
func figureCells(t *testing.T) []string {
	t.Helper()
	var cells []string
	add := func(key string, v float64) {
		cells = append(cells, fmt.Sprintf("%s %s", key, strconv.FormatFloat(v, 'g', -1, 64)))
	}
	configs, err := AccuracyModerated(ScaleTiny)
	if err != nil {
		t.Fatalf("AccuracyModerated: %v", err)
	}
	for _, r := range configs {
		for _, m := range []MethodResult{r.FastPPV, r.HubRankP, r.MonteCarlo} {
			key := "fig6 " + r.Config.ID + " " + m.Method
			add(key+" kendall", m.Accuracy.KendallTau)
			add(key+" precision", m.Accuracy.Precision)
			add(key+" rag", m.Accuracy.RAG)
			add(key+" l1sim", m.Accuracy.L1Similarity)
		}
	}
	for _, r := range configs {
		for _, m := range []MethodResult{r.FastPPV, r.HubRankP, r.MonteCarlo} {
			key := "fig7 " + r.Config.ID + " " + m.Method
			for _, w := range m.Work {
				add(key+" "+w.Unit, w.PerQuery)
			}
			add(key+" offline_bytes", float64(m.OfflineBytes))
		}
	}
	sweep, err := IterationSweep(ScaleTiny, 3)
	if err != nil {
		t.Fatalf("IterationSweep: %v", err)
	}
	for _, p := range sweep {
		key := fmt.Sprintf("fig12 %s eta=%d", p.Dataset, p.Iterations)
		add(key+" kendall", p.Accuracy.KendallTau)
		add(key+" precision", p.Accuracy.Precision)
		add(key+" rag", p.Accuracy.RAG)
		add(key+" l1sim", p.Accuracy.L1Similarity)
		add(key+" phi", p.AvgL1Bound)
		for _, w := range p.Work {
			add(key+" "+w.Unit, w.PerQuery)
		}
	}
	bound, err := Theorem2(ScaleTiny, 8)
	if err != nil {
		t.Fatalf("Theorem2: %v", err)
	}
	for _, p := range bound {
		add(fmt.Sprintf("thm2 %s k=%d phi", p.Dataset, p.Iteration), p.MeasuredPhi)
	}
	return cells
}

// TestFiguresGolden pins the paper figures' accuracy and work cells: a change
// that only moves where a representation is built, or what a method's clock
// covers, must leave every one of them as it was. Floats compare to 1e-12
// relative, because the L1 similarity sums a map in map order and so moves
// by about 1e-16 from run to run.
func TestFiguresGolden(t *testing.T) {
	got := figureCells(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figuresGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(figuresGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells, the golden has %d", len(got), len(want))
	}
	for i := range got {
		gk, gv := splitCell(t, got[i])
		wk, wv := splitCell(t, want[i])
		if gk != wk {
			t.Fatalf("cell %d is %q, the golden has %q", i, gk, wk)
		}
		if math.Abs(gv-wv) > 1e-12*math.Max(math.Abs(wv), 1e-300) {
			t.Errorf("%s = %v, the golden has %v", gk, gv, wv)
		}
	}
}

func splitCell(t *testing.T, line string) (string, float64) {
	t.Helper()
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		t.Fatalf("malformed golden line %q", line)
	}
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		t.Fatalf("golden line %q: %v", line, err)
	}
	return line[:i], v
}

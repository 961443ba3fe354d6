package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runAnalyzerTest loads fixture packages from testdata/src through the
// production loader (go list -export + export-data importing — the same path
// cmd/ppvlint uses) and checks one analyzer's diagnostics against the
// `// want "substring"` comments in the fixture sources: every want line must
// produce a diagnostic containing the substring, and every diagnostic must
// land on a want line.
func runAnalyzerTest(t *testing.T, a *Analyzer, pkgDirs ...string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	patterns := make([]string, len(pkgDirs))
	for i, d := range pkgDirs {
		patterns[i] = "./" + filepath.ToSlash(filepath.Join("testdata", "src", d))
	}
	pkgs, err := Load(wd, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	type lineKey struct {
		file string
		line int
	}
	wants := make(map[lineKey]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					const marker = `want "`
					i := strings.Index(c.Text, marker)
					if i < 0 {
						continue
					}
					rest := c.Text[i+len(marker):]
					j := strings.Index(rest, `"`)
					if j < 0 {
						t.Fatalf("unterminated want comment: %s", c.Text)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants[lineKey{pos.Filename, pos.Line}] = rest[:j]
				}
			}
		}
	}

	matched := make(map[lineKey]bool)
	for _, d := range diags {
		k := lineKey{d.Position.Filename, d.Position.Line}
		want, ok := wants[k]
		if !ok {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(k.file), k.line, d.Message)
			continue
		}
		if !strings.Contains(d.Message, want) {
			t.Errorf("%s:%d: diagnostic %q does not contain %q", filepath.Base(k.file), k.line, d.Message, want)
			continue
		}
		matched[k] = true
	}
	for k, want := range wants {
		if !matched[k] {
			t.Errorf("%s:%d: expected a diagnostic containing %q, got none", filepath.Base(k.file), k.line, want)
		}
	}
}

func TestMapOrder(t *testing.T) {
	runAnalyzerTest(t, MapOrder, "maporder/internal/sparse", "maporder/internal/prime", "maporder/internal/ppvindex", "maporder/other")
}

func TestFrameSafe(t *testing.T) {
	runAnalyzerTest(t, FrameSafe, "framesafe/internal/api", "framesafe/internal/frame")
}

func TestPoolHygiene(t *testing.T) {
	runAnalyzerTest(t, PoolHygiene, "poolhygiene")
}

func TestErrCode(t *testing.T) {
	runAnalyzerTest(t, ErrCode, "errcode/internal/server", "errcode/other")
}

func TestMetricLit(t *testing.T) {
	runAnalyzerTest(t, MetricLit, "metriclit/use")
}

func TestPathHasSuffix(t *testing.T) {
	cases := []struct {
		path, suffix string
		want         bool
	}{
		{"internal/sparse", "internal/sparse", true},
		{"fastppv/internal/sparse", "internal/sparse", true},
		{"fastppv/internal/lint/testdata/src/maporder/internal/sparse", "internal/sparse", true},
		{"fastppv/internal/sparser", "internal/sparse", false},
		{"fastppv/xinternal/sparse", "internal/sparse", false},
	}
	for _, c := range cases {
		if got := pathHasSuffix(c.path, c.suffix); got != c.want {
			t.Errorf("pathHasSuffix(%q, %q) = %v, want %v", c.path, c.suffix, got, c.want)
		}
	}
}

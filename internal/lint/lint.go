// Package lint implements ppvlint, the repo's custom static-analysis suite.
//
// The repo's headline guarantees — byte-identical answers across transports
// and shard layouts, torn-tail-safe replay of the CRC-framed logs, pooled
// values that never leak a previous query's state — are invariants no general
// linter knows about. This package encodes them as analyzers over the typed
// AST, mirroring the golang.org/x/tools/go/analysis API shape (Analyzer, Pass,
// Diagnostic) so each check is an isolated, unit-testable pass. Only the
// standard library is used: packages are enumerated and compiled through
// `go list -export`, and their dependencies are imported from the resulting
// gc export data, so the multichecker (cmd/ppvlint) needs no module
// dependencies at all.
//
// Analyzers:
//
//   - maporder: `for range` over a map inside answer-affecting packages
//     (iteration order would break byte-identical determinism). Escape hatch:
//     a `//lint:ordered <justification>` comment on or above the statement.
//   - framesafe: decode paths of the framed formats must length-check before
//     fixed-width reads, and must never panic from an exported decode entry.
//   - poolhygiene: sync.Pool.Put of a resettable value without a Reset call
//     in the same function.
//   - errcode: HTTP handlers in internal/server must emit the structured
//     internal/api error envelope, never naked http.Error.
//   - metriclit: metric family names and label keys passed to
//     internal/telemetry must be compile-time string constants.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so the checks translate directly if
// the dependency ever becomes available.
type Analyzer struct {
	// Name is the short command-line identifier of the analyzer.
	Name string
	// Doc is the one-paragraph help text.
	Doc string
	// Run performs the pass over one package, reporting findings via
	// pass.Report. The result value is unused (kept for API parity).
	Run func(pass *Pass) (interface{}, error)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the import path of the package under analysis; analyzers with
	// a package scope (maporder, framesafe, errcode) match against it.
	Path string
	// report receives each diagnostic as it is found.
	report func(Diagnostic)

	// hatches caches the parsed //lint: escape-hatch comments per file.
	hatches map[*ast.File]map[int]hatch
}

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
	// Position is the resolved file position of Pos, filled by RunAnalyzers
	// (each package may carry its own FileSet, so raw Pos values are not
	// comparable across packages).
	Position token.Position
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// hatch is one parsed //lint:<name> comment.
type hatch struct {
	justification string
}

// hatchFor returns the //lint:<name> escape-hatch comment attached to the
// line of pos or the line directly above it, if any. The second return
// reports whether a hatch was present at all (even with an empty
// justification — the caller decides whether that is acceptable).
func (p *Pass) hatchFor(name string, file *ast.File, pos token.Pos) (hatch, bool) {
	if p.hatches == nil {
		p.hatches = make(map[*ast.File]map[int]hatch)
	}
	byLine, ok := p.hatches[file]
	if !ok {
		byLine = make(map[int]hatch)
		prefix := "//lint:" + name
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, prefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:orderedX
				}
				byLine[p.Fset.Position(c.Pos()).Line] = hatch{
					justification: strings.TrimSpace(rest),
				}
			}
		}
		p.hatches[file] = byLine
	}
	line := p.Fset.Position(pos).Line
	if h, ok := byLine[line]; ok {
		return h, true
	}
	if h, ok := byLine[line-1]; ok {
		return h, true
	}
	return hatch{}, false
}

// pathHasSuffix reports whether the package import path ends in one of the
// given path suffixes (on a path-segment boundary).
func pathHasSuffix(path string, suffixes ...string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// Analyzers returns every ppvlint analyzer in deterministic order.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapOrder, FrameSafe, PoolHygiene, ErrCode, MetricLit}
}

// RunAnalyzers applies every analyzer to every package and returns the
// diagnostics sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		fset := pkg.Fset
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Path:      pkg.Path,
				report: func(d Diagnostic) {
					d.Position = fset.Position(d.Pos)
					diags = append(diags, d)
				},
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := diags[i].Position, diags[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

package lint

import (
	"go/ast"
	"go/types"
)

// maporderPackages are the answer-affecting packages: everything that feeds
// the byte-identical determinism contract (the query hot loop, the sparse
// kernels, the prime push, the cluster fold paths, and the index package
// that fixes the byte order of every stored hub record). A `for range` over a
// map there executes in a random order per run, so any order-sensitive work
// inside it (floating-point accumulation, first-wins selection,
// append-without-sort) silently breaks reproducibility across processes and
// replicas.
var maporderPackages = []string{
	"internal/core",
	"internal/sparse",
	"internal/prime",
	"internal/cluster",
	"internal/ppvindex",
}

// MapOrder flags `for range` statements over map types inside the
// answer-affecting packages. Sites whose order-insensitivity has been
// reviewed carry a `//lint:ordered <justification>` comment on the statement
// (or the line above); the justification is mandatory, so every exemption
// documents *why* iteration order cannot reach an answer.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flags range-over-map in answer-affecting packages where iteration " +
		"order would break byte-identical determinism; escape hatch: " +
		"//lint:ordered <justification>",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) (interface{}, error) {
	if !pathHasSuffix(pass.Path, maporderPackages...) {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rng.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if h, ok := pass.hatchFor("ordered", file, rng.Pos()); ok {
				if h.justification == "" {
					pass.Reportf(rng.Pos(),
						"//lint:ordered requires a justification explaining why map iteration order cannot affect answers")
				}
				return true
			}
			pass.Reportf(rng.Pos(),
				"range over map %s in answer-affecting package %s: iteration order is nondeterministic and can break the byte-identical answer guarantee; sort the keys, or annotate with //lint:ordered <justification>",
				types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), pass.Path)
			return true
		})
	}
	return nil, nil
}

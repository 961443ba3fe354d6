package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// metricFuncs are the internal/telemetry entry points that stamp names onto
// the Prometheus scrape surface: the Registry constructors, the scrape-time
// Emitter helpers, and the L label constructor.
var metricFuncs = map[string]bool{
	"Counter":      true,
	"Gauge":        true,
	"Histogram":    true,
	"CounterVec":   true,
	"HistogramVec": true,
	"L":            true,
}

// MetricLit requires that metric family names and label keys passed to
// internal/telemetry are compile-time string constants. With every name a
// constant, the scrape surface is statically enumerable: grep the source and
// you have the complete metric inventory, no run required, and no dynamic
// name can ever explode family cardinality. Label *values* stay free — those
// are runtime data (shard ids, status codes) and are bounded elsewhere.
var MetricLit = &Analyzer{
	Name: "metriclit",
	Doc: "metric family names and label keys passed to internal/telemetry " +
		"must be compile-time string constants",
	Run: runMetricLit,
}

func runMetricLit(pass *Pass) (interface{}, error) {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			default:
				return true
			}
			if !metricFuncs[id.Name] {
				return true
			}
			obj, ok := info.Uses[id].(*types.Func)
			if !ok || obj.Pkg() == nil || !pathHasSuffix(obj.Pkg().Path(), "internal/telemetry") {
				return true
			}
			sig, ok := obj.Type().(*types.Signature)
			if !ok || sig.Params().Len() == 0 || len(call.Args) == 0 {
				return true
			}
			// The first argument is the metric family name (or label key
			// for L).
			if !isStringConst(info, call.Args[0]) {
				pass.Reportf(call.Args[0].Pos(),
					"metric name passed to telemetry.%s must be a compile-time string constant so the scrape surface is statically enumerable",
					id.Name)
			}
			// A trailing ...string parameter holds label keys (the Vec
			// constructors); each key must be constant too. ...Label
			// parameters carry runtime values and are exempt.
			if sig.Variadic() {
				last := sig.Params().At(sig.Params().Len() - 1)
				if slice, ok := last.Type().(*types.Slice); ok {
					if basic, ok := slice.Elem().(*types.Basic); ok && basic.Kind() == types.String && sig.Params().Len()-1 <= len(call.Args) {
						for _, arg := range call.Args[sig.Params().Len()-1:] {
							if !isStringConst(info, arg) {
								pass.Reportf(arg.Pos(),
									"label key passed to telemetry.%s must be a compile-time string constant",
									id.Name)
							}
						}
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// isStringConst reports whether e evaluates to a compile-time string
// constant (literal, named const, or constant concatenation).
func isStringConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil && tv.Value.Kind() == constant.String
}

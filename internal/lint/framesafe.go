package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// framesafePackages hold the decoders of the framed binary formats: the FPS1
// stream frames (internal/api), the header and frame replay shared by the
// two logs (internal/frame), the FPL1 update-log batches and the disk-index
// record format (internal/ppvindex), and the FPQ1 query-log records
// (internal/querylog). Their shared contract: corrupt, torn or truncated
// input must surface as a structured error (ErrBadFrame / ErrBadIndexFormat /
// ErrBadFormat), never as a panic or an over-read.
var framesafePackages = []string{
	"internal/api",
	"internal/frame",
	"internal/ppvindex",
	"internal/querylog",
}

// framesafeEntryPrefixes name the exported decode entry points: a function or
// method whose name starts with one of these takes bytes from disk or the
// wire and must uphold the never-panic contract, as must everything it calls.
var framesafeEntryPrefixes = []string{"Decode", "Read", "Open", "Replay", "Scan", "Parse", "Get"}

// FrameSafe checks the decode paths of the framed formats: inside functions
// reachable from an exported decode entry point, a fixed-width binary read
// (binary.<order>.Uint16/32/64) or a slice index must be preceded by length
// evidence for the buffer it reads (a len() check, a make() of known size, a
// full-read io call, or derivation from an already-checked buffer), and no
// panic call may be reachable at all.
var FrameSafe = &Analyzer{
	Name: "framesafe",
	Doc: "flags unchecked fixed-width reads and reachable panics in the " +
		"decode paths of the framed formats (FPS1/FPL1/FPQ1/disk records)",
	Run: runFrameSafe,
}

func runFrameSafe(pass *Pass) (interface{}, error) {
	if !pathHasSuffix(pass.Path, framesafePackages...) {
		return nil, nil
	}

	// Index every function declaration in the package by its object.
	decls := make(map[*types.Func]*ast.FuncDecl)
	var order []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
				order = append(order, fd)
			}
		}
	}

	// Intra-package static call graph.
	callees := make(map[*ast.FuncDecl][]*ast.FuncDecl)
	for _, fd := range order {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
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
			if callee, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
				if target, ok := decls[callee]; ok {
					callees[fd] = append(callees[fd], target)
				}
			}
			return true
		})
	}

	// Reachability from the exported decode entry points, remembering one
	// entry name per function for the diagnostic.
	entryOf := make(map[*ast.FuncDecl]string)
	var queue []*ast.FuncDecl
	for _, fd := range order {
		if !fd.Name.IsExported() || !hasAnyPrefix(fd.Name.Name, framesafeEntryPrefixes) {
			continue
		}
		if _, seen := entryOf[fd]; !seen {
			entryOf[fd] = fd.Name.Name
			queue = append(queue, fd)
		}
	}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		for _, callee := range callees[fd] {
			if _, seen := entryOf[callee]; !seen {
				entryOf[callee] = entryOf[fd]
				queue = append(queue, callee)
			}
		}
	}

	for _, fd := range order {
		entry, reachable := entryOf[fd]
		if !reachable {
			continue
		}
		checkFrameSafeFunc(pass, fd, entry)
	}
	return nil, nil
}

func hasAnyPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// frameEvent is one position-ordered occurrence inside a function body that
// the length-evidence sweep cares about.
type frameEvent struct {
	pos token.Pos
	// kind: 'l' len evidence, 'm' make/full-read evidence, 'd' derived-slice
	// assignment, 'u' fixed-width binary read use, 'i' index-expression use,
	// 'p' panic call.
	kind byte
	// base is the printed root expression of the buffer involved.
	base string
	// src is the source base of a derived-slice assignment.
	src string
}

// checkFrameSafeFunc sweeps one function body in source order, accumulating
// length evidence per buffer expression and reporting reads that precede any
// evidence, plus panic calls.
func checkFrameSafeFunc(pass *Pass, fd *ast.FuncDecl, entry string) {
	var events []frameEvent
	info := pass.TypesInfo
	comparators := sortComparatorRanges(info, fd.Body)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				switch {
				case isBuiltin(info, fun, "len") && len(n.Args) == 1:
					events = append(events, frameEvent{pos: n.Pos(), kind: 'l', base: rootBase(n.Args[0])})
				case isBuiltin(info, fun, "panic"):
					events = append(events, frameEvent{pos: n.Pos(), kind: 'p'})
				}
			case *ast.SelectorExpr:
				if obj, ok := info.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() != nil {
					pkgPath, name := obj.Pkg().Path(), fun.Sel.Name
					switch {
					case pkgPath == "encoding/binary" && (name == "Uint16" || name == "Uint32" || name == "Uint64"):
						if len(n.Args) == 1 {
							events = append(events, binaryReadEvent(pass, n.Args[0])...)
						}
					case pkgPath == "io" && name == "ReadFull" && len(n.Args) == 2:
						// io.ReadFull(r, buf) fills buf entirely or errors.
						events = append(events, frameEvent{pos: n.Pos(), kind: 'm', base: rootBase(n.Args[1])})
					case name == "ReadAt" && len(n.Args) == 2:
						// f.ReadAt(buf, off) is a full read or an error.
						events = append(events, frameEvent{pos: n.Pos(), kind: 'm', base: rootBase(n.Args[0])})
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				switch rhs := n.Rhs[i].(type) {
				case *ast.CallExpr:
					if fun, ok := rhs.Fun.(*ast.Ident); ok && isBuiltin(info, fun, "make") {
						events = append(events, frameEvent{pos: n.Pos(), kind: 'm', base: id.Name})
					}
				case *ast.SliceExpr:
					events = append(events, frameEvent{pos: n.Pos(), kind: 'd', base: id.Name, src: rootBase(rhs)})
				}
			}
		case *ast.IndexExpr:
			if isAssignTarget(fd.Body, n) {
				return true
			}
			tv, ok := info.Types[n.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isSlice := tv.Type.Underlying().(*types.Slice); !isSlice {
				return true
			}
			if selfBoundedIndex(info, n) || inRanges(comparators, n.Pos()) {
				return true
			}
			events = append(events, frameEvent{pos: n.Pos(), kind: 'i', base: rootBase(n.X)})
		}
		return true
	})

	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	checked := make(map[string]bool)
	for _, ev := range events {
		switch ev.kind {
		case 'l', 'm':
			if ev.base != "" {
				checked[ev.base] = true
			}
		case 'd':
			if checked[ev.src] {
				checked[ev.base] = true
			}
		case 'u':
			if !checked[ev.base] {
				pass.Reportf(ev.pos,
					"fixed-width binary read of %q without a preceding length check in decode path of %s (reachable from exported entry %s); corrupt input must fail with a structured error, not over-read",
					ev.base, pass.Path, entry)
				checked[ev.base] = true // report each buffer once per function
			}
		case 'i':
			if !checked[ev.base] {
				pass.Reportf(ev.pos,
					"slice index of %q without a preceding length check in decode path of %s (reachable from exported entry %s)",
					ev.base, pass.Path, entry)
				checked[ev.base] = true
			}
		case 'p':
			pass.Reportf(ev.pos,
				"panic reachable from exported decode entry point %s in %s; decoders must return structured errors on corrupt input",
				entry, pass.Path)
		}
	}
}

// binaryReadEvent classifies the buffer argument of a fixed-width binary
// read. Reads of arrays (or slices of arrays) are compile-time sized and
// safe; everything else produces a use event for the evidence sweep.
func binaryReadEvent(pass *Pass, arg ast.Expr) []frameEvent {
	operand := arg
	if sl, ok := arg.(*ast.SliceExpr); ok {
		operand = sl.X
	}
	if tv, ok := pass.TypesInfo.Types[operand]; ok && tv.Type != nil {
		switch t := tv.Type.Underlying().(type) {
		case *types.Array:
			return nil
		case *types.Pointer:
			if _, ok := t.Elem().Underlying().(*types.Array); ok {
				return nil
			}
		}
	}
	return []frameEvent{{pos: arg.Pos(), kind: 'u', base: rootBase(arg)}}
}

// rootBase strips slice and index expressions and returns the printed root
// buffer expression: rootBase(r.b[r.off:]) == "r.b", rootBase(buf) == "buf".
func rootBase(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return types.ExprString(e)
		}
	}
}

// selfBoundedIndex reports whether the index expression itself contains
// len(<same base>) — the `x[i%len(x)]` / `x[min(i, len(x)-1)]` family, where
// the index is bounded by construction and no separate prior check exists.
func selfBoundedIndex(info *types.Info, n *ast.IndexExpr) bool {
	base := rootBase(n.X)
	found := false
	ast.Inspect(n.Index, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && isBuiltin(info, id, "len") && len(call.Args) == 1 && rootBase(call.Args[0]) == base {
			found = true
			return false
		}
		return true
	})
	return found
}

// sortComparatorRanges returns the source ranges of function literals passed
// to sort.Slice / sort.SliceStable / sort.SliceIsSorted / sort.Search. The
// indices those closures receive are supplied by the sort package and are in
// range by contract, so slice indexing inside them needs no prior length
// evidence.
func sortComparatorRanges(info *types.Info, body *ast.BlockStmt) [][2]token.Pos {
	var ranges [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sort" {
			return true
		}
		switch sel.Sel.Name {
		case "Slice", "SliceStable", "SliceIsSorted", "Search":
		default:
			return true
		}
		for _, a := range call.Args {
			if fl, ok := a.(*ast.FuncLit); ok {
				ranges = append(ranges, [2]token.Pos{fl.Pos(), fl.End()})
			}
		}
		return true
	})
	return ranges
}

func inRanges(ranges [][2]token.Pos, pos token.Pos) bool {
	for _, r := range ranges {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

// isBuiltin reports whether id resolves to the named builtin.
func isBuiltin(info *types.Info, id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// isAssignTarget reports whether expr appears as an assignment left-hand side
// anywhere in body. Writes into a slice cannot over-read wire input, so only
// index reads feed the evidence sweep.
func isAssignTarget(body *ast.BlockStmt, expr ast.Expr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if lhs == expr {
				found = true
			}
		}
		return true
	})
	return found
}

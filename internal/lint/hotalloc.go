package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// analyzerHotAlloc statically proves the 0 allocs/op contract the solver
// kernels promise dynamically (testing.AllocsPerRun in
// internal/alloc/kernel_test.go and internal/optimize/fastpath_test.go).
// Functions annotated
//
//	//lint:hotpath
//
// are hot-path roots: the controller calls them every allocation epoch, so
// neither they nor anything reachable from them in the module call graph may
// contain a heap-allocating construct. Traversal stops at functions
// annotated //lint:hotpath-boundary <reason> (audited: e.g. a documented
// cold fallback) and at the module boundary (standard-library callees are
// covered by the dynamic AllocsPerRun gates, which TestHotpathAlignment ties
// back to these annotations).
//
// Flagged constructs: make, new, append (no static capacity evidence),
// escaping composite literals (&T{...}, slice and map literals),
// string concatenation and string<->[]byte/[]rune conversions, interface
// conversions of non-pointer values (boxing), closures capturing outer
// variables (the captured variables move to the heap), calls to the
// known-allocating fmt/errors constructors, and dynamic calls through plain
// function values (unprovable — name the target or audit the site).
var analyzerHotAlloc = &Analyzer{
	Name:      "hotalloc",
	Doc:       "forbid heap-allocating constructs in and below //lint:hotpath functions",
	RunModule: runHotAlloc,
}

// allocStdlibFns are out-of-module callees known to allocate on every call;
// calling them from a hot path is flagged directly since their bodies are
// outside the graph.
var allocStdlibFns = map[string]bool{
	"fmt.Sprintf":  true,
	"fmt.Sprint":   true,
	"fmt.Sprintln": true,
	"fmt.Errorf":   true,
	"fmt.Appendf":  true,
	"errors.New":   true,
	"strings.Join": true,
	"strconv.Itoa": true,
}

func runHotAlloc(mod *Module) []Finding {
	g := mod.Graph
	// Reachability: BFS from every hot root, remembering one root and the
	// hop predecessor per node so messages can name a concrete call path.
	type visit struct {
		root *FuncNode
		from *FuncNode
	}
	seen := make(map[*FuncNode]visit)
	var queue []*FuncNode
	for _, n := range g.SortedNodes() {
		if n.Hot {
			seen[n] = visit{root: n}
			queue = append(queue, n)
		}
	}
	var findings []Finding
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.Boundary {
			continue // audited: do not check the body or descend
		}
		findings = append(findings, hotAllocCheck(n, hotPathLabel(n, seen[n].root))...)
		for _, c := range n.Callees {
			if _, ok := seen[c]; ok {
				continue
			}
			seen[c] = visit{root: seen[n].root, from: n}
			queue = append(queue, c)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return findings
}

// hotPathLabel renders the provenance suffix of a finding message.
func hotPathLabel(n, root *FuncNode) string {
	if n == root {
		return fmt.Sprintf("in //lint:hotpath function %s", shortID(n.ID))
	}
	return fmt.Sprintf("in %s, reachable from //lint:hotpath root %s", shortID(n.ID), shortID(root.ID))
}

// shortID strips the module path prefix from a node ID for readable
// messages: densevlc/internal/alloc.(*problem).Value -> alloc.(*problem).Value.
func shortID(id string) string {
	return strings.ReplaceAll(id, modulePath+"/internal/", "")
}

// hotAllocCheck scans one function body (own statements only — nested
// literals are their own graph nodes) for allocating constructs.
func hotAllocCheck(n *FuncNode, where string) []Finding {
	body := n.Body()
	if body == nil {
		return nil
	}
	pkg := n.Pkg
	var findings []Finding
	report := func(pos token.Pos, format string, args ...any) {
		findings = append(findings, Finding{
			Pos:     pkg.Fset.Position(pos),
			Rule:    "hotalloc",
			Message: fmt.Sprintf(format, args...) + " " + where,
		})
	}

	// Composite literals that are address-taken escape; collect them first
	// so the literal visit below can tell &T{...} from a value literal.
	addressTaken := make(map[*ast.CompositeLit]bool)
	walkOwnStatements(body, func(node ast.Node) {
		if u, ok := node.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if cl, ok := ast.Unparen(u.X).(*ast.CompositeLit); ok {
				addressTaken[cl] = true
			}
		}
	})

	walkOwnStatements(body, func(node ast.Node) {
		switch x := node.(type) {
		case *ast.CallExpr:
			checkHotCall(pkg, x, report)
		case *ast.CompositeLit:
			t := pkg.Info.TypeOf(x)
			switch t.Underlying().(type) {
			case *types.Slice:
				report(x.Pos(), "slice literal allocates its backing array")
			case *types.Map:
				report(x.Pos(), "map literal allocates")
			default:
				if addressTaken[x] {
					report(x.Pos(), "address-taken composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(pkg.Info.TypeOf(x)) {
				report(x.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(pkg.Info.TypeOf(x.Lhs[0])) {
				report(x.Pos(), "string concatenation allocates")
			}
		case *ast.FuncLit:
			if caps := capturedVars(pkg, x); len(caps) > 0 {
				report(x.Pos(), "closure captures %s by reference; the capture allocates and the variables move to the heap",
					strings.Join(caps, ", "))
			}
		}
	})
	return findings
}

// checkHotCall handles the call-shaped allocation sources: builtins,
// conversions, boxing at call boundaries, known stdlib allocators, and
// unprovable dynamic calls.
func checkHotCall(pkg *Package, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	fun := ast.Unparen(call.Fun)

	// Conversions: T(x). Flag interface boxing and string<->bytes copies.
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			from := pkg.Info.TypeOf(call.Args[0])
			checkHotConversion(pkg, call.Pos(), from, to, report)
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if obj, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch obj.Name() {
			case "make":
				report(call.Pos(), "make allocates; move the buffer to a caller-owned workspace")
			case "new":
				report(call.Pos(), "new allocates; use a value or a workspace field")
			case "append":
				report(call.Pos(), "append may grow its backing array on the hot path; preallocate outside the kernel or audit with //lint:ignore hotalloc <reason>")
			}
			return
		}
	}

	fn := calleeFunc(pkg, call)
	if fn == nil {
		// Not a declared function, method, builtin, conversion, or literal:
		// a dynamic call through a function value. Its target is invisible
		// to the call graph, so allocation-freedom cannot be proven.
		if _, isLit := fun.(*ast.FuncLit); !isLit {
			report(call.Pos(), "dynamic call through a function value cannot be proven allocation-free; call a named function or audit the site")
		}
		return
	}
	if fn.Pkg() != nil && !strings.HasPrefix(fn.Pkg().Path(), modulePath) {
		name := fn.Pkg().Name() + "." + fn.Name()
		if allocStdlibFns[name] {
			report(call.Pos(), "call to %s allocates", name)
		}
		// Other stdlib calls are outside the graph; the AllocsPerRun gates
		// cover them dynamically.
		return
	}
	// Module-local callees are covered by graph traversal; boxing of the
	// arguments still happens at this call site.
	sig, _ := fn.Type().(*types.Signature)
	checkCallBoxing(pkg, call, sig, report)
}

// checkCallBoxing flags arguments whose static type is a concrete
// non-pointer value passed to an interface-typed parameter: storing them in
// the interface word allocates.
func checkCallBoxing(pkg *Package, call *ast.CallExpr, sig *types.Signature, report func(token.Pos, string, ...any)) {
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			slice, _ := params.At(params.Len() - 1).Type().(*types.Slice)
			if slice == nil {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pkg.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if boxingFree(at) {
			continue
		}
		report(arg.Pos(), "passing non-pointer %s to interface parameter boxes the value", at)
	}
}

// checkHotConversion flags the allocation-bearing conversions.
func checkHotConversion(pkg *Package, pos token.Pos, from, to types.Type, report func(token.Pos, string, ...any)) {
	if from == nil || to == nil {
		return
	}
	if types.IsInterface(to) && !types.IsInterface(from) && !boxingFree(from) {
		report(pos, "conversion of non-pointer %s to interface boxes the value", from)
		return
	}
	fromStr, toStr := isStringType(from), isStringType(to)
	fromSlice := isByteOrRuneSlice(from)
	toSlice := isByteOrRuneSlice(to)
	if (fromStr && toSlice) || (fromSlice && toStr) {
		report(pos, "string/slice conversion copies and allocates")
	}
}

// boxingFree reports whether storing a value of type t in an interface
// avoids allocation: pointers, channels, maps, funcs, and unsafe pointers
// fit the interface data word directly.
func boxingFree(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return true
	}
	return false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// capturedVars lists the names of outer function-local variables a literal
// references (sorted, deduplicated). Package-level variables are shared, not
// captured, and do not force a closure allocation by themselves.
func capturedVars(pkg *Package, lit *ast.FuncLit) []string {
	seen := map[string]bool{}
	var out []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured: declared outside the literal but inside some function
		// (i.e. not package scope).
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // the literal's own params/locals
		}
		if v.Parent() == nil || v.Parent() == types.Universe {
			return true
		}
		if v.Pkg() != nil && v.Pkg().Scope().Lookup(v.Name()) == v {
			return true // package-level (in this package or another)
		}
		if !seen[v.Name()] {
			seen[v.Name()] = true
			out = append(out, v.Name())
		}
		return true
	})
	sort.Strings(out)
	return out
}

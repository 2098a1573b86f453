package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// analyzerCtxFlow enforces context discipline across the internal/ API
// surface:
//
//  1. a function that accepts a context.Context must hand that context (or
//     a context derived from it — context.WithTimeout(ctx, ...) and friends)
//     to every callee that accepts one; passing a fresh root context instead
//     silently detaches the callee from the caller's cancellation; and
//  2. context.Background() and context.TODO() are forbidden inside
//     internal/ libraries — roots belong in main functions and tests, and a
//     library that needs one should accept it from its caller.
//
// Context-free public APIs that fan out internally (alloc.Policy.Allocate,
// the experiment generators) carry a //lint:ignore ctxflow directive with
// the audit reason on the line above their context.Background().
var analyzerCtxFlow = &Analyzer{
	Name:      "ctxflow",
	Doc:       "require context propagation and forbid context.Background/TODO in internal/ libraries",
	RunModule: runCtxFlow,
}

func runCtxFlow(mod *Module) []Finding {
	var findings []Finding
	for _, pkg := range mod.Pkgs {
		if !isInternalPkg(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if isTestFile(pkg.Fset.Position(fd.Pos())) {
					continue
				}
				findings = append(findings, checkCtxFlow(pkg, fd)...)
			}
		}
	}
	return findings
}

// checkCtxFlow analyzes one declared function, including its nested
// literals (a closure capturing the ctx parameter shares its derived set).
func checkCtxFlow(pkg *Package, fd *ast.FuncDecl) []Finding {
	derived := derivedContexts(pkg, fd)
	hasCtx := len(derived) > 0
	var findings []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isCtxRoot(pkg, call) {
			msg := "context.Background/TODO inside an internal/ library detaches callees from cancellation; accept a context.Context from the caller"
			if hasCtx {
				msg = "context.Background/TODO despite a context.Context in scope; propagate the caller's context"
			}
			findings = append(findings, Finding{
				Pos:     pkg.Fset.Position(call.Pos()),
				Rule:    "ctxflow",
				Message: msg,
			})
			return true
		}
		if !hasCtx {
			return true
		}
		// A callee accepting a context must receive one derived from ours.
		sig := calleeSignature(pkg, call)
		if sig == nil || sig.Params().Len() == 0 || len(call.Args) == 0 {
			return true
		}
		if !isContextType(sig.Params().At(0).Type()) {
			return true
		}
		arg := call.Args[0]
		if exprMentionsAny(pkg, arg, derived) {
			return true
		}
		if isCtxRootExpr(pkg, arg) {
			return true // already reported at the inner call position
		}
		findings = append(findings, Finding{
			Pos:  pkg.Fset.Position(arg.Pos()),
			Rule: "ctxflow",
			Message: fmt.Sprintf("%s does not propagate its context parameter to this context-accepting callee; pass the caller's ctx (or a context derived from it)",
				fd.Name.Name),
		})
		return true
	})
	return findings
}

// derivedContexts computes the set of variables known to carry the
// function's context: the context parameters themselves plus every
// context-typed variable assigned from an expression mentioning one
// (context.WithCancel(ctx) chains, aliases). A single forward pass iterated
// to fixpoint over the (small) function body.
func derivedContexts(pkg *Package, fd *ast.FuncDecl) map[types.Object]bool {
	derived := make(map[types.Object]bool)
	addParams := func(ft *ast.FuncType) {
		if ft.Params == nil {
			return
		}
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil && isContextType(obj.Type()) {
					derived[obj] = true
				}
			}
		}
	}
	addParams(fd.Type)
	// A nested literal's own context parameter is as good a source as the
	// declaration's: the rule is about not detaching callees, not about
	// which scope the context entered through.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			addParams(lit.Type)
		}
		return true
	})
	if len(derived) == 0 {
		return nil
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			mentions := false
			for _, rhs := range asg.Rhs {
				if exprMentionsAny(pkg, rhs, derived) {
					mentions = true
					break
				}
			}
			if !mentions {
				return true
			}
			for _, lhs := range asg.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pkg.Info.Defs[id]
				if obj == nil {
					obj = pkg.Info.Uses[id]
				}
				if obj != nil && isContextType(obj.Type()) && !derived[obj] {
					derived[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return derived
}

// calleeSignature resolves the static signature of a call, covering
// declared functions, methods, and function-typed values.
func calleeSignature(pkg *Package, call *ast.CallExpr) *types.Signature {
	if tv, ok := pkg.Info.Types[ast.Unparen(call.Fun)]; ok && !tv.IsType() {
		sig, _ := tv.Type.Underlying().(*types.Signature)
		return sig
	}
	return nil
}

// isCtxRoot reports whether call is context.Background() or context.TODO().
func isCtxRoot(pkg *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(pkg, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

// isCtxRootExpr reports whether expr is (possibly parenthesised) a root
// context call.
func isCtxRootExpr(pkg *Package, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	return ok && isCtxRoot(pkg, call)
}

// exprMentionsAny reports whether expr references any object in set.
func exprMentionsAny(pkg *Package, expr ast.Expr, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pkg.Info.Uses[id]; obj != nil && set[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

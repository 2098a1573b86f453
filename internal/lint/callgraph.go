package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide call graph the interprocedural analyzers
// (hotalloc, and any future reachability-based rule) traverse. The graph is
// assembled from go/types information only:
//
//   - every function and method declaration in every loaded package is a
//     node, identified by its types.Func;
//   - every function literal is its own node, identified by position and
//     named <enclosing>$<ordinal>, with a "contains" edge from the enclosing
//     function — creating a closure is treated as (potentially) calling it,
//     which over-approximates reachability in the safe direction;
//   - a static call adds an edge to the callee's node when the callee is
//     declared in this module (standard-library callees have no node and are
//     outside the analysis, see the hotalloc docs for the audit story);
//   - a call through an interface method adds class-hierarchy edges to every
//     method in the module whose concrete type implements the interface, so
//     hot-path reachability survives dispatch through optimize.Objective and
//     friends.
//
// Calls through plain function-typed values (not literals, not declared
// functions) cannot be resolved statically; hotalloc reports them as
// unprovable when they appear on a hot path.

// hotpathDirective marks a function declaration as a hot-path root: the
// function and everything reachable from it must satisfy the hotalloc rule.
const hotpathDirective = "lint:hotpath"

// boundaryDirective marks a function declaration as an audited hot-path
// boundary: reachability traversal stops at it without checking its body.
// Like //lint:ignore, the directive requires a reason.
const boundaryDirective = "lint:hotpath-boundary"

// FuncNode is one function, method, or function literal in the call graph.
type FuncNode struct {
	// ID is the stable display name: types.Func.FullName() for declared
	// functions and methods, <enclosingID>$<ordinal> for literals.
	ID string
	// Pkg is the package the body lives in.
	Pkg *Package
	// Decl is the declaration (nil for literals).
	Decl *ast.FuncDecl
	// Lit is the literal (nil for declared functions).
	Lit *ast.FuncLit
	// Fn is the type-checker object (nil for literals and for interface
	// methods, which have no body in the module).
	Fn *types.Func
	// Hot marks a //lint:hotpath root.
	Hot bool
	// Boundary marks a //lint:hotpath-boundary audited stop.
	Boundary bool
	// Callees are the resolved outgoing edges, sorted by ID.
	Callees []*FuncNode

	calleeSet map[*FuncNode]bool
}

// Body returns the function body, or nil for bodiless declarations.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	if n.Decl != nil {
		return n.Decl.Body
	}
	return nil
}

// Pos returns the declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return n.Decl.Pos()
}

// addCallee inserts an edge, deduplicated.
func (n *FuncNode) addCallee(c *FuncNode) {
	if c == nil || c == n || n.calleeSet[c] {
		return
	}
	if n.calleeSet == nil {
		n.calleeSet = make(map[*FuncNode]bool)
	}
	n.calleeSet[c] = true
	n.Callees = append(n.Callees, c)
}

// CallGraph is the module-wide graph.
type CallGraph struct {
	// Nodes maps ID to node.
	Nodes map[string]*FuncNode

	byFunc map[*types.Func]*FuncNode
	byLit  map[*ast.FuncLit]*FuncNode
	impls  *implIndex
	// malformed collects bad //lint:hotpath-boundary directives (missing
	// reason), reported through the framework like malformed ignores.
	malformed []Finding
}

// Module bundles the loaded packages with their shared call graph for the
// module-level analyzers.
type Module struct {
	Pkgs  []*Package
	Graph *CallGraph
}

// NewModule builds the call graph over the given packages. Analyzers that
// need cross-package dataflow receive it via Analyzer.RunModule.
func NewModule(pkgs []*Package) *Module {
	return &Module{Pkgs: pkgs, Graph: buildCallGraph(pkgs)}
}

// SortedNodes returns every node ordered by ID.
func (g *CallGraph) SortedNodes() []*FuncNode {
	out := make([]*FuncNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// buildCallGraph runs the two passes: node creation (so cross-package edges
// can resolve in any package order), then edge extraction.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Nodes:  make(map[string]*FuncNode),
		byFunc: make(map[*types.Func]*FuncNode),
		byLit:  make(map[*ast.FuncLit]*FuncNode),
	}
	for _, pkg := range pkgs {
		g.addPackageNodes(pkg)
	}
	g.impls = collectMethodImplementations(pkgs)
	for _, pkg := range pkgs {
		g.addPackageEdges(pkg, g.impls)
	}
	return g
}

// CalleesAt resolves one call expression to the module nodes it may invoke:
// the literal's node for an immediately invoked literal, the declared
// function's node for a static call, and every class-hierarchy
// implementation for an interface-method call. Calls through plain
// function-typed values and out-of-module callees resolve to nothing.
func (g *CallGraph) CalleesAt(pkg *Package, call *ast.CallExpr) []*FuncNode {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if n := g.byLit[lit]; n != nil {
			return []*FuncNode{n}
		}
		return nil
	}
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if target := g.byFunc[fn]; target != nil {
		return []*FuncNode{target}
	}
	if recv := receiverInterface(fn); recv != nil {
		var out []*FuncNode
		for _, impl := range g.impls.implementations(recv, fn.Name()) {
			if n := g.byFunc[impl]; n != nil {
				out = append(out, n)
			}
		}
		return out
	}
	return nil
}

// addPackageNodes creates a node per declaration and per literal, reading
// the hotpath directives off declaration doc comments.
func (g *CallGraph) addPackageNodes(pkg *Package) {
	for _, file := range pkg.Files {
		directives := funcDirectives(pkg, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			node := &FuncNode{ID: fn.FullName(), Pkg: pkg, Decl: fd, Fn: fn}
			if d, ok := directives[fd]; ok {
				node.Hot = d.hot
				node.Boundary = d.boundary
				if d.malformed {
					g.malformed = append(g.malformed, Finding{
						Pos:     pkg.Fset.Position(fd.Pos()),
						Rule:    "ignore",
						Message: "malformed //lint:hotpath-boundary directive: want //lint:hotpath-boundary <reason>",
					})
				}
			}
			g.register(node)
			g.addLiteralNodes(pkg, node)
		}
	}
}

// register stores the node, disambiguating duplicate IDs (possible only for
// literals sharing an ordinal namespace after weird edits) by position.
func (g *CallGraph) register(n *FuncNode) {
	id := n.ID
	for i := 2; g.Nodes[id] != nil; i++ {
		id = fmt.Sprintf("%s#%d", n.ID, i)
	}
	n.ID = id
	g.Nodes[id] = n
	if n.Fn != nil {
		g.byFunc[n.Fn] = n
	}
	if n.Lit != nil {
		g.byLit[n.Lit] = n
	}
}

// addLiteralNodes walks a declared function's body creating one node per
// function literal (including nested literals), each with a contains edge
// from its lexically enclosing function node.
func (g *CallGraph) addLiteralNodes(pkg *Package, parent *FuncNode) {
	ord := 0
	var walk func(enclosing *FuncNode, body ast.Node)
	walk = func(enclosing *FuncNode, body ast.Node) {
		ast.Inspect(body, func(n ast.Node) bool {
			if n == body {
				return true
			}
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			ord++
			node := &FuncNode{ID: fmt.Sprintf("%s$%d", parent.ID, ord), Pkg: pkg, Lit: lit}
			g.register(node)
			enclosing.addCallee(node)
			walk(node, lit.Body)
			return false // nested literals handled by the recursive walk
		})
	}
	walk(parent, parent.Decl.Body)
}

// funcDirective is a parsed hotpath annotation.
type funcDirective struct {
	hot       bool
	boundary  bool
	malformed bool
}

// funcDirectives scans a file's comments for hotpath directives and
// associates each with the function declaration it documents (the directive
// must sit in the doc comment block directly above the declaration).
func funcDirectives(pkg *Package, file *ast.File) map[*ast.FuncDecl]funcDirective {
	out := make(map[*ast.FuncDecl]funcDirective)
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		var d funcDirective
		found := false
		for _, c := range fd.Doc.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			switch {
			case text == hotpathDirective:
				d.hot = true
				found = true
			case strings.HasPrefix(text, boundaryDirective):
				d.boundary = true
				d.malformed = strings.TrimSpace(strings.TrimPrefix(text, boundaryDirective)) == ""
				found = true
			}
		}
		if found {
			out[fd] = d
		}
	}
	return out
}

// addPackageEdges resolves every call expression in the package's function
// bodies to graph edges. Calls inside a literal belong to the literal's
// node; the ownership is tracked by walking each node's body separately and
// skipping nested literals (which are their own nodes).
func (g *CallGraph) addPackageEdges(pkg *Package, impls *implIndex) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			node := g.byFunc[fn]
			if node == nil {
				continue
			}
			g.addBodyEdges(pkg, node, impls)
			// Literal nodes under this declaration get their own pass.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					if ln := g.byLit[lit]; ln != nil {
						g.addBodyEdges(pkg, ln, impls)
					}
				}
				return true
			})
		}
	}
}

// addBodyEdges scans one node's own statements (not nested literals) for
// calls and method-value references.
func (g *CallGraph) addBodyEdges(pkg *Package, node *FuncNode, impls *implIndex) {
	body := node.Body()
	walkOwnStatements(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		// Immediately invoked literal: the contains edge already links it.
		if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			return
		}
		fn := calleeFunc(pkg, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		if target := g.byFunc[fn]; target != nil {
			node.addCallee(target)
			return
		}
		// No node: either an out-of-module callee or an interface method.
		// Class-hierarchy edges connect interface dispatch to every module
		// implementation.
		if recv := receiverInterface(fn); recv != nil {
			for _, impl := range impls.implementations(recv, fn.Name()) {
				node.addCallee(g.byFunc[impl])
			}
		}
	})
}

// walkOwnStatements visits every AST node in body except the interiors of
// nested function literals.
func walkOwnStatements(body ast.Node, visit func(ast.Node)) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// receiverInterface returns the interface type a method is declared on, or
// nil for non-methods and concrete methods.
func receiverInterface(fn *types.Func) *types.Interface {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// implIndex resolves interface methods to the module's concrete
// implementations (class-hierarchy analysis over the loaded packages).
type implIndex struct {
	named []types.Type // every module-defined named type T plus *T
	cache map[implKey][]*types.Func
}

type implKey struct {
	iface  *types.Interface
	method string
}

// collectMethodImplementations gathers every package-scope named type (and
// its pointer form) across the module.
func collectMethodImplementations(pkgs []*Package) *implIndex {
	idx := &implIndex{cache: make(map[implKey][]*types.Func)}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			idx.named = append(idx.named, named, types.NewPointer(named))
		}
	}
	return idx
}

// implementations returns the *types.Func of method `name` on every module
// type implementing iface.
func (idx *implIndex) implementations(iface *types.Interface, name string) []*types.Func {
	key := implKey{iface, name}
	if out, ok := idx.cache[key]; ok {
		return out
	}
	var out []*types.Func
	seen := map[*types.Func]bool{}
	for _, t := range idx.named {
		if !types.Implements(t, iface) {
			continue
		}
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			sel := ms.At(i)
			fn, ok := sel.Obj().(*types.Func)
			if !ok || fn.Name() != name || seen[fn] {
				continue
			}
			seen[fn] = true
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	idx.cache[key] = out
	return out
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file holds the shared machinery behind the concurrency-discipline
// analyzers (lockorder, lockscope):
//
//   - lock identity: a mutex is identified by the *types.Var of the final
//     selector in the lock expression, so h.mu.Lock() in one method and
//     hub.mu.Lock() in another resolve to the same lock (the mu field of
//     node.Hub). Identity is type-based — two Hub instances share one lock
//     node — which is exactly the granularity a static order check needs.
//   - a held-set region scanner: walks one function body in source order
//     tracking which locks are held, with branch-local copies so the common
//     `if closed { mu.Unlock(); return }` early exit does not poison the
//     fallthrough path.
//   - blocking-op classification shared by lockscope's direct and
//     transitive passes: channel sends/receives outside a select, selects
//     without a default, range over a channel, sync.WaitGroup.Wait,
//     time.Sleep, and net read/write/accept/dial calls.
//
// The scanner under-approximates the held set (a lock acquired on only one
// branch is treated as not held afterwards; a lock released on any
// non-terminating branch is treated as released). Under-approximation loses
// findings, never invents them, which is the right bias for a lint gate.

// lockKind classifies the four sync mutex methods.
type lockKind int

const (
	lockNone lockKind = iota
	lockAcquire
	lockRelease
)

// syncLockCall reports whether call is sync.Mutex/RWMutex Lock/RLock (acquire)
// or Unlock/RUnlock (release) and returns the receiver expression.
func syncLockCall(pkg *Package, call *ast.CallExpr) (lockKind, ast.Expr) {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockNone, nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return lockNone, nil
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, _ := recv.(*types.Named)
	if named == nil {
		return lockNone, nil
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return lockNone, nil
	}
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if sel == nil {
		return lockNone, nil
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return lockAcquire, sel.X
	case "Unlock", "RUnlock":
		return lockRelease, sel.X
	}
	return lockNone, nil
}

// lockObject resolves the identity variable of a lock expression: the field
// var for selectors (shared across all instances of the owning type), the
// variable itself for idents. Index expressions resolve to their container.
func lockObject(pkg *Package, expr ast.Expr) *types.Var {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		v, _ := pkg.Info.ObjectOf(e).(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := pkg.Info.ObjectOf(e.Sel).(*types.Var)
		return v
	case *ast.StarExpr:
		return lockObject(pkg, e.X)
	case *ast.IndexExpr:
		return lockObject(pkg, e.X)
	}
	return nil
}

// lockDisplayName renders a lock for findings: owner type qualified for
// fields ("node.Hub.mu"), package-qualified for package vars, bare otherwise.
func lockDisplayName(pkg *Package, expr ast.Expr, v *types.Var) string {
	if v == nil {
		return "<unknown lock>"
	}
	if sel, ok := ast.Unparen(expr).(*ast.SelectorExpr); ok && v.IsField() {
		t := pkg.Info.TypeOf(sel.X)
		for {
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
				continue
			}
			break
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + v.Name()
		}
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Name() + "." + v.Name()
	}
	return v.Name()
}

// heldLock is one acquired mutex in the scanner's held set.
type heldLock struct {
	obj  *types.Var
	name string
	pos  token.Pos
}

// heldNames joins the held set for messages, innermost last.
func heldNames(held []heldLock) string {
	names := make([]string, len(held))
	for i, h := range held {
		names[i] = h.name
	}
	return strings.Join(names, ", ")
}

// lockScanHooks receive the region scanner's events.
type lockScanHooks struct {
	// acquire fires when a Lock/RLock executes, before lk joins held.
	acquire func(lk heldLock, held []heldLock)
	// blocking fires for each potentially blocking operation.
	blocking func(desc string, pos token.Pos, held []heldLock)
	// call fires for every other call expression (lock methods, builtins,
	// and conversions excluded).
	call func(call *ast.CallExpr, held []heldLock)
}

// scanHeldRegions walks body in source order tracking the held-lock set and
// firing hooks. Nested function literals are skipped (they are their own
// call-graph nodes and execute under their own held set); goroutine bodies
// launched with `go` likewise run outside the caller's critical section.
func scanHeldRegions(pkg *Package, body *ast.BlockStmt, hooks lockScanHooks) {
	s := &heldScanner{pkg: pkg, hooks: hooks}
	held := []heldLock{}
	s.scanStmts(body.List, &held)
}

type heldScanner struct {
	pkg   *Package
	hooks lockScanHooks
}

// scanStmts processes a statement list sequentially, mutating held.
func (s *heldScanner) scanStmts(stmts []ast.Stmt, held *[]heldLock) {
	for _, st := range stmts {
		s.scanStmt(st, held)
	}
}

// scanBranch scans a branch body on a copy of held and reports which locks
// the branch released and whether it terminates (ends in return/branch/panic).
func (s *heldScanner) scanBranch(stmts []ast.Stmt, held []heldLock) (released map[*types.Var]bool, terminated bool) {
	local := append([]heldLock(nil), held...)
	s.scanStmts(stmts, &local)
	released = make(map[*types.Var]bool)
	still := make(map[*types.Var]bool)
	for _, h := range local {
		still[h.obj] = true
	}
	for _, h := range held {
		if !still[h.obj] {
			released[h.obj] = true
		}
	}
	return released, terminatesList(stmts)
}

// applyBranches merges branch outcomes into the fallthrough held set: a lock
// released by any non-terminating branch is treated as released (may-release
// under-approximation); acquisitions inside branches never escape.
func applyBranches(held *[]heldLock, branches []branchOutcome) {
	releasedAny := make(map[*types.Var]bool)
	for _, b := range branches {
		if b.terminated {
			continue
		}
		for obj := range b.released {
			releasedAny[obj] = true
		}
	}
	if len(releasedAny) == 0 {
		return
	}
	kept := (*held)[:0]
	for _, h := range *held {
		if !releasedAny[h.obj] {
			kept = append(kept, h)
		}
	}
	*held = kept
}

type branchOutcome struct {
	released   map[*types.Var]bool
	terminated bool
}

func (s *heldScanner) scanStmt(st ast.Stmt, held *[]heldLock) {
	switch n := st.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if s.lockTransition(call, held) {
				return
			}
		}
		s.scanExpr(n.X, held, false)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to the end of the function
		// (no release event); other deferred calls run at return time, not
		// here, so only their argument expressions are scanned.
		if kind, _ := syncLockCall(s.pkg, n.Call); kind == lockRelease {
			return
		}
		for _, arg := range n.Call.Args {
			s.scanExpr(arg, held, false)
		}
	case *ast.SendStmt:
		if s.hooks.blocking != nil {
			s.hooks.blocking("channel send", n.Arrow, *held)
		}
		s.scanExpr(n.Chan, held, true)
		s.scanExpr(n.Value, held, false)
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			s.scanExpr(e, held, false)
		}
		for _, e := range n.Lhs {
			s.scanExpr(e, held, false)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.scanExpr(v, held, false)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			s.scanExpr(e, held, false)
		}
	case *ast.IncDecStmt:
		s.scanExpr(n.X, held, false)
	case *ast.GoStmt:
		// The goroutine runs concurrently, outside our critical section;
		// only the argument expressions evaluate here.
		for _, arg := range n.Call.Args {
			s.scanExpr(arg, held, false)
		}
	case *ast.BlockStmt:
		s.scanStmts(n.List, held)
	case *ast.LabeledStmt:
		s.scanStmt(n.Stmt, held)
	case *ast.IfStmt:
		if n.Init != nil {
			s.scanStmt(n.Init, held)
		}
		s.scanExpr(n.Cond, held, false)
		var outs []branchOutcome
		rel, term := s.scanBranch(n.Body.List, *held)
		outs = append(outs, branchOutcome{rel, term})
		if n.Else != nil {
			rel, term := s.scanBranch([]ast.Stmt{n.Else}, *held)
			outs = append(outs, branchOutcome{rel, term})
		}
		applyBranches(held, outs)
	case *ast.ForStmt:
		if n.Init != nil {
			s.scanStmt(n.Init, held)
		}
		if n.Cond != nil {
			s.scanExpr(n.Cond, held, false)
		}
		body := n.Body.List
		if n.Post != nil {
			body = append(append([]ast.Stmt(nil), body...), n.Post)
		}
		rel, term := s.scanBranch(body, *held)
		applyBranches(held, []branchOutcome{{rel, term}})
	case *ast.RangeStmt:
		if t := s.pkg.Info.TypeOf(n.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan && s.hooks.blocking != nil {
				s.hooks.blocking("range over channel", n.For, *held)
			}
		}
		s.scanExpr(n.X, held, false)
		rel, term := s.scanBranch(n.Body.List, *held)
		applyBranches(held, []branchOutcome{{rel, term}})
	case *ast.SwitchStmt:
		if n.Init != nil {
			s.scanStmt(n.Init, held)
		}
		if n.Tag != nil {
			s.scanExpr(n.Tag, held, false)
		}
		s.scanClauses(n.Body, held)
	case *ast.TypeSwitchStmt:
		if n.Init != nil {
			s.scanStmt(n.Init, held)
		}
		s.scanClauses(n.Body, held)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && s.hooks.blocking != nil {
			s.hooks.blocking("select without default", n.Select, *held)
		}
		var outs []branchOutcome
		for _, c := range n.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			body := cc.Body
			if cc.Comm != nil {
				// The comm statement's channel ops are covered by the
				// select-level report; scan it for nested calls only.
				s.scanCommExprs(cc.Comm, held)
			}
			rel, term := s.scanBranch(body, *held)
			outs = append(outs, branchOutcome{rel, term})
		}
		applyBranches(held, outs)
	}
}

// scanClauses handles switch/type-switch case bodies as branches.
func (s *heldScanner) scanClauses(body *ast.BlockStmt, held *[]heldLock) {
	var outs []branchOutcome
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			s.scanExpr(e, held, false)
		}
		rel, term := s.scanBranch(cc.Body, *held)
		outs = append(outs, branchOutcome{rel, term})
	}
	applyBranches(held, outs)
}

// scanCommExprs scans a select comm statement's sub-expressions without
// reporting its own channel op.
func (s *heldScanner) scanCommExprs(comm ast.Stmt, held *[]heldLock) {
	switch c := comm.(type) {
	case *ast.SendStmt:
		s.scanExpr(c.Chan, held, true)
		s.scanExpr(c.Value, held, false)
	case *ast.ExprStmt:
		if recv, ok := ast.Unparen(c.X).(*ast.UnaryExpr); ok && recv.Op == token.ARROW {
			s.scanExpr(recv.X, held, true)
		}
	case *ast.AssignStmt:
		for _, e := range c.Rhs {
			if recv, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && recv.Op == token.ARROW {
				s.scanExpr(recv.X, held, true)
				continue
			}
			s.scanExpr(e, held, false)
		}
	}
}

// lockTransition handles a statement-level Lock/Unlock call, returning true
// if the call was one.
func (s *heldScanner) lockTransition(call *ast.CallExpr, held *[]heldLock) bool {
	kind, lockExpr := syncLockCall(s.pkg, call)
	switch kind {
	case lockAcquire:
		obj := lockObject(s.pkg, lockExpr)
		if obj == nil {
			return true
		}
		lk := heldLock{obj: obj, name: lockDisplayName(s.pkg, lockExpr, obj), pos: call.Pos()}
		if s.hooks.acquire != nil {
			s.hooks.acquire(lk, *held)
		}
		*held = append(*held, lk)
		return true
	case lockRelease:
		obj := lockObject(s.pkg, lockExpr)
		kept := (*held)[:0]
		for _, h := range *held {
			if h.obj != obj {
				kept = append(kept, h)
			}
		}
		*held = kept
		return true
	}
	return false
}

// scanExpr walks an expression for blocking operations, lock transitions in
// expression position, and call events. Nested literals are skipped.
// suppressChanOp drops the report for the outermost channel op (used for
// select comm statements, whose blocking is reported at the select).
func (s *heldScanner) scanExpr(expr ast.Expr, held *[]heldLock, suppressChanOp bool) {
	if expr == nil {
		return
	}
	first := true
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				if suppressChanOp && first && ast.Unparen(expr) == e {
					break
				}
				if s.hooks.blocking != nil {
					s.hooks.blocking("channel receive", e.OpPos, *held)
				}
			}
		case *ast.CallExpr:
			if kind, lockExpr := syncLockCall(s.pkg, e); kind != lockNone {
				// Expression-position lock call (rare): apply the
				// transition; sub-expressions hold no further calls.
				if kind == lockAcquire {
					obj := lockObject(s.pkg, lockExpr)
					if obj != nil {
						lk := heldLock{obj: obj, name: lockDisplayName(s.pkg, lockExpr, obj), pos: e.Pos()}
						if s.hooks.acquire != nil {
							s.hooks.acquire(lk, *held)
						}
						*held = append(*held, lk)
					}
				} else {
					obj := lockObject(s.pkg, lockExpr)
					kept := (*held)[:0]
					for _, h := range *held {
						if h.obj != obj {
							kept = append(kept, h)
						}
					}
					*held = kept
				}
				return false
			}
			if desc, ok := blockingStdlibCall(s.pkg, e); ok {
				if s.hooks.blocking != nil {
					s.hooks.blocking(desc, e.Pos(), *held)
				}
				return true
			}
			if isCheckableCall(s.pkg, e) && s.hooks.call != nil {
				s.hooks.call(e, *held)
			}
		}
		first = false
		return true
	})
}

// blockingStdlibCall classifies standard-library calls that block the
// calling goroutine: sync.WaitGroup.Wait, time.Sleep, the net package's
// read/write/accept/dial/listen families, and the raw socket reads of the
// syscall package, which park an OS thread until a datagram arrives.
func blockingStdlibCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "sync":
		if fn.Name() == "Wait" {
			return "sync.WaitGroup.Wait", true
		}
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep", true
		}
	case "net":
		name := fn.Name()
		for _, prefix := range []string{"Read", "Write", "Accept", "Dial", "Listen"} {
			if strings.HasPrefix(name, prefix) {
				return fmt.Sprintf("network I/O (net %s)", name), true
			}
		}
	case "syscall":
		switch name := fn.Name(); name {
		case "Recvfrom", "Recvmsg", "Read":
			return fmt.Sprintf("blocking socket read (syscall.%s)", name), true
		}
	}
	return "", false
}

// isCheckableCall filters out builtins and type conversions, which are not
// calls for the purposes of interprocedural reachability.
func isCheckableCall(pkg *Package, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch pkg.Info.Uses[fun].(type) {
		case *types.Builtin, *types.TypeName, *types.Nil:
			return false
		}
	case *ast.SelectorExpr:
		if _, ok := pkg.Info.Uses[fun.Sel].(*types.TypeName); ok {
			return false
		}
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.StructType, *ast.InterfaceType, *ast.StarExpr:
		return false
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return false
	}
	return true
}

// terminatesList reports whether a statement list definitely transfers
// control away at its end (return, break/continue/goto, or panic).
func terminatesList(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(last.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminatesList(last.List)
	case *ast.IfStmt:
		if last.Else == nil {
			return false
		}
		var elseTerm bool
		switch e := last.Else.(type) {
		case *ast.BlockStmt:
			elseTerm = terminatesList(e.List)
		case *ast.IfStmt:
			elseTerm = terminatesList([]ast.Stmt{e})
		}
		return terminatesList(last.Body.List) && elseTerm
	}
	return false
}

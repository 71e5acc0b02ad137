package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolCheck enforces the pooled-Subset ownership discipline from
// internal/dataset: a *dataset.Subset acquired from a Scratch partition
// source must reach Release on every path out of the acquiring function,
// unless it is Unpooled, returned, or handed off through a store
// annotated "// lint:owns". The analyzer also flags Release after Release
// (double free back into the pool) and any use after Release (the bitset
// may already be recycled into another subset).
//
// Ownership model, matching how the codebase actually uses the pool:
//
//   - Acquire: calling PartitionScratch or PartitionGroupScratch on a
//     subset, or calling a same-package function that (transitively)
//     returns such a result.
//   - Discharge: Release (exactly once), Unpool, returning the value,
//     deferring its Release, or passing it to a same-package function that
//     consumes it (releases/unpools/stores its parameter).
//   - Borrow: passing the value as an argument otherwise. Callees like
//     childBounds read the halves; the caller still releases them.
//   - Escape: storing into a struct field, map, slice, channel, composite
//     literal, or global transfers ownership out of the function and must
//     carry a "// lint:owns" marker on the line — otherwise it is exactly
//     the silent-leak shape PRs 3/4/6 fixed by hand.
//
// Functions containing goto are skipped (the structured walker cannot
// follow them); _test.go files are exempt.
var PoolCheck = &Analyzer{
	Name: "poolcheck",
	Doc:  "check that pooled dataset.Subset values are released on every path",
	Run:  runPoolCheck,
}

const datasetPathSuffix = "internal/dataset"

// isPooledSubset reports whether t is *dataset.Subset (matched by package
// path suffix so the check works both on this module and on test
// fixtures).
func isPooledSubset(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Subset" && obj.Pkg() != nil &&
		(obj.Pkg().Path() == "dataset" || strings.HasSuffix(obj.Pkg().Path(), datasetPathSuffix))
}

// ---- package summaries ------------------------------------------------

// poolSummaries holds the interprocedural facts poolcheck derives for the
// package under analysis: which same-package functions return freshly
// acquired (caller-owned) subsets, and which consume a subset parameter.
type poolSummaries struct {
	// owner[f][i] is true when result i of f is a pooled subset the
	// caller must release.
	owner map[*types.Func]map[int]bool
	// consume[f][j] is true when f takes over parameter j (releases,
	// unpools, or stores it), so passing an owned value discharges it.
	consume map[*types.Func]map[int]bool
}

func (s *poolSummaries) ownsResult(f *types.Func, i int) bool {
	return f != nil && s.owner[f][i]
}

func (s *poolSummaries) consumesParam(f *types.Func, j int) bool {
	return f != nil && s.consume[f][j]
}

// acquireResults returns the set of result indices of call that the caller
// owns, or nil when call is not an acquisition.
func (s *poolSummaries) acquireResults(info *types.Info, call *ast.CallExpr) map[int]bool {
	if isConversion(info, call) {
		return nil
	}
	f := calleeFunc(info, call)
	if f == nil {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if (f.Name() == "PartitionScratch" || f.Name() == "PartitionGroupScratch") && sig.Recv() != nil && isPooledSubset(sig.Recv().Type()) {
		owned := map[int]bool{}
		for i := 0; i < sig.Results().Len(); i++ {
			if isPooledSubset(sig.Results().At(i).Type()) {
				owned[i] = true
			}
		}
		return owned
	}
	if m := s.owner[f]; len(m) > 0 {
		return m
	}
	return nil
}

// buildPoolSummaries computes owner/consume facts for the package by
// fixpoint over a syntactic scan of every function body. The scan is
// deliberately simple: a result is owner-returning when some return path
// returns an acquisition (directly, or via a local that was assigned one);
// a parameter is consumed when the body releases/unpools it, stores it
// into a non-local location, or forwards it to a consuming callee.
func buildPoolSummaries(pass *Pass) *poolSummaries {
	sums := &poolSummaries{
		owner:   map[*types.Func]map[int]bool{},
		consume: map[*types.Func]map[int]bool{},
	}
	type fnDecl struct {
		obj  *types.Func
		decl *ast.FuncDecl
	}
	var fns []fnDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fns = append(fns, fnDecl{obj, fd})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if updateOwnerSummary(pass, sums, fn.obj, fn.decl) {
				changed = true
			}
			if updateConsumeSummary(pass, sums, fn.obj, fn.decl) {
				changed = true
			}
		}
	}
	return sums
}

func updateOwnerSummary(pass *Pass, sums *poolSummaries, obj *types.Func, decl *ast.FuncDecl) bool {
	sig := obj.Type().(*types.Signature)
	pooledResults := map[int]bool{}
	for i := 0; i < sig.Results().Len(); i++ {
		if isPooledSubset(sig.Results().At(i).Type()) {
			pooledResults[i] = true
		}
	}
	if len(pooledResults) == 0 {
		return false
	}

	// Locals ever assigned from an acquisition result.
	acquired := map[*types.Var]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || len(a.Rhs) != 1 {
			return true
		}
		call, ok := unparen(a.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		owned := sums.acquireResults(pass.TypesInfo, call)
		if len(owned) == 0 {
			return true
		}
		for i, lhs := range a.Lhs {
			if !owned[i] {
				continue
			}
			if id, ok := unparen(lhs).(*ast.Ident); ok {
				if v := localVarOf(pass.TypesInfo, id); v != nil {
					acquired[v] = true
				}
			}
		}
		return true
	})

	found := map[int]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 1 && sig.Results().Len() > 1 {
			// Tuple forwarding: return g(...).
			if call, ok := unparen(ret.Results[0]).(*ast.CallExpr); ok {
				for i := range sums.acquireResults(pass.TypesInfo, call) {
					found[i] = true
				}
			}
			return true
		}
		for i, res := range ret.Results {
			if !pooledResults[i] {
				continue
			}
			switch e := unparen(res).(type) {
			case *ast.Ident:
				if v := localVarOf(pass.TypesInfo, e); v != nil && acquired[v] {
					found[i] = true
				}
			case *ast.CallExpr:
				if owned := sums.acquireResults(pass.TypesInfo, e); owned[0] && len(ret.Results) == sig.Results().Len() {
					found[i] = true
				}
			}
		}
		return true
	})

	changed := false
	for i := range found {
		if !sums.owner[obj][i] {
			if sums.owner[obj] == nil {
				sums.owner[obj] = map[int]bool{}
			}
			sums.owner[obj][i] = true
			changed = true
		}
	}
	return changed
}

func updateConsumeSummary(pass *Pass, sums *poolSummaries, obj *types.Func, decl *ast.FuncDecl) bool {
	sig := obj.Type().(*types.Signature)
	params := map[*types.Var]int{}
	for j := 0; j < sig.Params().Len(); j++ {
		p := sig.Params().At(j)
		if isPooledSubset(p.Type()) {
			params[p] = j
		}
	}
	if len(params) == 0 {
		return false
	}
	isParam := func(e ast.Expr) (*types.Var, int, bool) {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return nil, 0, false
		}
		v := localVarOf(pass.TypesInfo, id)
		if v == nil {
			return nil, 0, false
		}
		j, ok := params[v]
		return v, j, ok
	}

	found := map[int]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok {
				if _, j, ok := isParam(sel.X); ok {
					switch sel.Sel.Name {
					case "Release", "Unpool":
						found[j] = true
					}
				}
			}
			f := calleeFunc(pass.TypesInfo, n)
			for argIdx, arg := range n.Args {
				if _, j, ok := isParam(arg); ok && sums.consumesParam(f, argIdx) {
					found[j] = true
				}
			}
		case *ast.AssignStmt:
			// A store of the parameter into a field/index/global
			// counts as consumption: ownership moved into a
			// structure the callee is responsible for.
			storing := false
			for _, lhs := range n.Lhs {
				switch l := unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					storing = true
				case *ast.Ident:
					if v := localVarOf(pass.TypesInfo, l); v == nil {
						if obj := pass.TypesInfo.ObjectOf(l); obj != nil && obj.Parent() == pass.Pkg.Scope() {
							storing = true // package-level var
						}
					}
				}
			}
			if !storing {
				return true
			}
			for _, rhs := range n.Rhs {
				ast.Inspect(rhs, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if _, j, ok := isParam(id); ok {
							found[j] = true
						}
					}
					return true
				})
			}
		}
		return true
	})

	changed := false
	for j := range found {
		if !sums.consume[obj][j] {
			if sums.consume[obj] == nil {
				sums.consume[obj] = map[int]bool{}
			}
			sums.consume[obj][j] = true
			changed = true
		}
	}
	return changed
}

// localVarOf resolves id to the non-field *types.Var it names, or nil.
func localVarOf(info *types.Info, id *ast.Ident) *types.Var {
	obj := info.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}

// ---- per-function ownership walk --------------------------------------

type pstatus int

const (
	psOwned    pstatus = iota // must still be released
	psCond                    // released on some paths only
	psReleased                // released; further touch is a bug
	psEscaped                 // ownership left the function; tracking over
)

// pcell is the tracked state of one acquisition. Aliased variables share a
// cell; branch forks clone cells so the merge can compare outcomes.
type pcell struct {
	name string
	pos  token.Pos // acquisition site, anchor for leak reports
	st   pstatus
}

type pstate struct {
	vars map[*types.Var]*pcell
}

func newPstate() *pstate { return &pstate{vars: map[*types.Var]*pcell{}} }

func (s *pstate) clone() *pstate {
	out := newPstate()
	copied := map[*pcell]*pcell{}
	for v, c := range s.vars {
		nc, ok := copied[c]
		if !ok {
			cc := *c
			nc = &cc
			copied[c] = nc
		}
		out.vars[v] = nc
	}
	return out
}

// merge combines two fall-through states after a branch. Escaped wins over
// everything (tracking already ended on one path); Released on both paths
// stays Released; Owned on both stays Owned; a mix of Owned and anything
// else becomes Cond — still owed a Release, reported if it reaches an
// exit.
func mergePstates(a, b *pstate) *pstate {
	out := newPstate()
	for v, ca := range a.vars {
		cb, ok := b.vars[v]
		if !ok {
			nc := *ca
			if nc.st == psOwned {
				nc.st = psCond
			}
			out.vars[v] = &nc
			continue
		}
		nc := *ca
		switch {
		case ca.st == cb.st:
		case ca.st == psEscaped || cb.st == psEscaped:
			nc.st = psEscaped
		case ca.st == psOwned || cb.st == psOwned ||
			ca.st == psCond || cb.st == psCond:
			nc.st = psCond
		default:
			nc.st = psReleased
		}
		out.vars[v] = &nc
	}
	for v, cb := range b.vars {
		if _, ok := a.vars[v]; ok {
			continue
		}
		nc := *cb
		if nc.st == psOwned {
			nc.st = psCond
		}
		out.vars[v] = &nc
	}
	return out
}

type poolWalker struct {
	pass *Pass
	sums *poolSummaries
	name string // enclosing function, for messages

	// loopBase stacks the state at entry to each enclosing loop body so
	// break/continue can leak-check loop-local acquisitions.
	loopBase []*pstate

	reportedLeak map[token.Pos]bool
	reportedUse  map[token.Pos]bool
}

func runPoolCheck(pass *Pass) error {
	sums := buildPoolSummaries(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			runPoolWalk(pass, sums, funcName(fd), fd.Body)
			// Function literals are checked as their own scopes:
			// variables captured from the enclosing function are
			// untracked there (the outer walk marks them escaped),
			// while acquisitions inside the literal must be
			// discharged inside it.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					runPoolWalk(pass, sums, "func literal in "+funcName(fd), fl.Body)
				}
				return true
			})
		}
	}
	return nil
}

func runPoolWalk(pass *Pass, sums *poolSummaries, name string, body *ast.BlockStmt) {
	hasGoto := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.GOTO {
			hasGoto = true
		}
		return true
	})
	if hasGoto {
		return // unstructured control flow: bail rather than guess
	}
	w := &poolWalker{
		pass:         pass,
		sums:         sums,
		name:         name,
		reportedLeak: map[token.Pos]bool{},
		reportedUse:  map[token.Pos]bool{},
	}
	st, terminated := w.walkStmts(body.List, newPstate())
	if !terminated {
		w.leakCheck(st, nil)
	}
}

// leakCheck reports cells still owed a Release. When base is non-nil only
// cells absent from base (i.e. acquired inside the scope being left) are
// checked — the loop-body / break / continue case.
func (w *poolWalker) leakCheck(st *pstate, base *pstate) {
	for v, c := range st.vars {
		if base != nil {
			if _, ok := base.vars[v]; ok {
				continue
			}
		}
		if c.st != psOwned && c.st != psCond {
			continue
		}
		if w.reportedLeak[c.pos] {
			continue
		}
		w.reportedLeak[c.pos] = true
		what := "is not released"
		if c.st == psCond {
			what = "is not released on every path"
		}
		w.pass.Reportf(c.pos, "pooled subset %s acquired here %s out of %s; call Release (or Unpool, or return it)", c.name, what, w.name)
	}
}

func (w *poolWalker) walkStmts(list []ast.Stmt, st *pstate) (*pstate, bool) {
	for _, s := range list {
		var term bool
		st, term = w.walkStmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (w *poolWalker) walkStmt(s ast.Stmt, st *pstate) (*pstate, bool) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.ExprStmt:
		w.walkExpr(s.X, st)
		if call, ok := unparen(s.X).(*ast.CallExpr); ok {
			// Acquisition used as a bare statement: both results
			// dropped on the floor.
			for range w.sums.acquireResults(w.pass.TypesInfo, call) {
				if !w.reportedLeak[s.Pos()] {
					w.reportedLeak[s.Pos()] = true
					w.pass.Reportf(s.Pos(), "result of pooled acquisition discarded in %s; it must be released", w.name)
				}
			}
			if isPanicCall(w.pass.TypesInfo, call) {
				return st, true
			}
		}
	case *ast.AssignStmt:
		w.walkAssign(s, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, val := range vs.Values {
					w.walkExpr(val, st)
				}
				if len(vs.Values) == 1 {
					if call, ok := unparen(vs.Values[0]).(*ast.CallExpr); ok {
						owned := w.sums.acquireResults(w.pass.TypesInfo, call)
						for i, name := range vs.Names {
							if !owned[i] || name.Name == "_" {
								continue
							}
							if v := localVarOf(w.pass.TypesInfo, name); v != nil {
								st.vars[v] = &pcell{name: name.Name, pos: name.Pos(), st: psOwned}
							}
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		w.walkReturn(s, st)
		w.leakCheck(st, nil)
		return st, true
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		w.walkExpr(s.Cond, st)
		thenSt, thenTerm := w.walkStmts(s.Body.List, st.clone())
		elseSt, elseTerm := st, false
		if s.Else != nil {
			elseSt, elseTerm = w.walkStmt(s.Else, st.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return mergePstates(thenSt, elseSt), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.walkExpr(s.Cond, st)
		}
		base := st.clone()
		w.loopBase = append(w.loopBase, base)
		bodySt, bodyTerm := w.walkStmts(s.Body.List, st.clone())
		if s.Post != nil && !bodyTerm {
			bodySt, _ = w.walkStmt(s.Post, bodySt)
		}
		w.loopBase = w.loopBase[:len(w.loopBase)-1]
		if !bodyTerm {
			w.leakCheck(bodySt, base)
		}
		if s.Cond == nil && !loopHasBreak(s.Body) {
			return st, true // for {} without break never falls through
		}
		return mergePstates(base, dropScoped(bodySt, base)), false
	case *ast.RangeStmt:
		w.walkExpr(s.X, st)
		base := st.clone()
		w.loopBase = append(w.loopBase, base)
		bodySt, bodyTerm := w.walkStmts(s.Body.List, st.clone())
		w.loopBase = w.loopBase[:len(w.loopBase)-1]
		if !bodyTerm {
			w.leakCheck(bodySt, base)
		}
		return mergePstates(base, dropScoped(bodySt, base)), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.walkExpr(s.Tag, st)
		}
		return w.walkCases(s.Body, st, nil)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		return w.walkCases(s.Body, st, s.Assign)
	case *ast.SelectStmt:
		var arms []*pstate
		allTerm := len(s.Body.List) > 0
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			armSt := st.clone()
			if cc.Comm != nil {
				armSt, _ = w.walkStmt(cc.Comm, armSt)
			}
			armSt, term := w.walkStmts(cc.Body, armSt)
			if !term {
				allTerm = false
				arms = append(arms, armSt)
			}
		}
		if allTerm {
			return st, true
		}
		out := arms[0]
		for _, a := range arms[1:] {
			out = mergePstates(out, a)
		}
		return out, false
	case *ast.SendStmt:
		w.walkExpr(s.Chan, st)
		w.walkExpr(s.Value, st)
		if id, ok := unparen(s.Value).(*ast.Ident); ok {
			w.escapeStore(id, s.Pos(), "sent to a channel", st)
		}
	case *ast.DeferStmt:
		w.walkHandoff(s.Call, st)
	case *ast.GoStmt:
		w.walkHandoff(s.Call, st)
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK, token.CONTINUE:
			if s.Label == nil && len(w.loopBase) > 0 {
				w.leakCheck(st, w.loopBase[len(w.loopBase)-1])
			}
			return st, true
		case token.FALLTHROUGH:
			// Case bodies are merged conservatively; nothing to do.
		}
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.IncDecStmt:
		w.walkExpr(s.X, st)
	default:
		// Unknown statement kind: scan expressions for uses.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.useCheckIdent(e, st)
			}
			return true
		})
	}
	return st, false
}

func (w *poolWalker) walkCases(body *ast.BlockStmt, st *pstate, assign ast.Stmt) (*pstate, bool) {
	var arms []*pstate
	hasDefault := false
	allTerm := true
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		armSt := st.clone()
		if assign != nil {
			armSt, _ = w.walkStmt(assign, armSt)
		}
		for _, e := range cc.List {
			w.walkExpr(e, armSt)
		}
		armSt, term := w.walkStmts(cc.Body, armSt)
		if !term {
			allTerm = false
			arms = append(arms, armSt)
		}
	}
	if !hasDefault {
		arms = append(arms, st)
		allTerm = false
	}
	if allTerm {
		return st, true
	}
	out := arms[0]
	for _, a := range arms[1:] {
		out = mergePstates(out, a)
	}
	return out, false
}

// dropScoped removes variables not visible outside the loop body (absent
// from base) so out-of-scope cells do not haunt the post-loop state.
func dropScoped(st, base *pstate) *pstate {
	out := newPstate()
	for v, c := range st.vars {
		if _, ok := base.vars[v]; ok {
			out.vars[v] = c
		}
	}
	return out
}

func loopHasBreak(body *ast.BlockStmt) bool {
	found := false
	var depth int
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch b := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			depth++
			ast.Inspect(b, func(m ast.Node) bool {
				if m == b {
					return true
				}
				return visit(m)
			})
			depth--
			return false
		case *ast.BranchStmt:
			if b.Tok == token.BREAK && (b.Label != nil || depth == 0) {
				found = true
			}
		case *ast.FuncLit:
			return false
		}
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return true
		}
		return visit(n)
	})
	return found
}

func (w *poolWalker) walkReturn(ret *ast.ReturnStmt, st *pstate) {
	for _, res := range ret.Results {
		switch e := unparen(res).(type) {
		case *ast.Ident:
			if c := w.cellOf(e, st); c != nil {
				if c.st == psReleased {
					w.reportUse(e, "returned after Release")
				}
				c.st = psEscaped // ownership transferred to the caller
				continue
			}
			w.walkExpr(res, st)
		case *ast.CompositeLit:
			// Returning a struct/slice holding the subset also
			// transfers ownership out.
			w.markIdentsEscaped(e, st)
		default:
			w.walkExpr(res, st)
		}
	}
}

// walkHandoff covers `go f(...)` and `defer f(...)`: every tracked value
// referenced by the call — including closure captures — leaves this
// function's release obligation. `defer v.Release()` is the idiomatic
// discharge; a goroutine capture makes the callee responsible.
func (w *poolWalker) walkHandoff(call *ast.CallExpr, st *pstate) {
	ast.Inspect(call, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if c := w.cellOf(id, st); c != nil {
				if c.st == psReleased {
					w.reportUse(id, "used after Release")
				}
				c.st = psEscaped
			}
		}
		return true
	})
}

func (w *poolWalker) walkAssign(a *ast.AssignStmt, st *pstate) {
	if a.Tok != token.ASSIGN && a.Tok != token.DEFINE {
		for _, e := range a.Rhs {
			w.walkExpr(e, st)
		}
		for _, e := range a.Lhs {
			w.walkExpr(e, st)
		}
		return
	}

	// Multi-result acquisition: with, without := cs.PartitionScratch(...)
	if len(a.Rhs) == 1 {
		if call, ok := unparen(a.Rhs[0]).(*ast.CallExpr); ok {
			if owned := w.sums.acquireResults(w.pass.TypesInfo, call); len(owned) > 0 {
				w.walkExpr(call, st)
				for i, lhs := range a.Lhs {
					w.assignTo(lhs, owned[i], a, st)
				}
				return
			}
		}
	}

	// General 1:1 assignments.
	if len(a.Lhs) == len(a.Rhs) {
		type rhsInfo struct {
			aliasCell *pcell
			owned     bool
		}
		infos := make([]rhsInfo, len(a.Rhs))
		for i, rhs := range a.Rhs {
			rhs = unparen(rhs)
			if id, ok := rhs.(*ast.Ident); ok {
				if c := w.cellOf(id, st); c != nil {
					if c.st == psReleased {
						w.reportUse(id, "used after Release")
					}
					infos[i].aliasCell = c
					continue
				}
			}
			if call, ok := rhs.(*ast.CallExpr); ok {
				if owned := w.sums.acquireResults(w.pass.TypesInfo, call); owned[0] {
					w.walkExpr(call, st)
					infos[i].owned = true
					continue
				}
			}
			w.walkExpr(rhs, st)
		}
		for i, lhs := range a.Lhs {
			in := infos[i]
			switch {
			case in.owned:
				w.assignTo(lhs, true, a, st)
			case in.aliasCell != nil:
				if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
					if v := localVarOf(w.pass.TypesInfo, id); v != nil {
						w.overwriteCheck(v, st)
						st.vars[v] = in.aliasCell // alias shares the cell
						continue
					}
				}
				// Stored into a field/index/global: escape.
				w.walkExpr(lhs, st)
				if in.aliasCell.st != psEscaped && !w.pass.HasMarker(a.Pos(), "lint:owns") {
					w.pass.Reportf(a.Pos(), "pooled subset %s stored without // lint:owns in %s; the store must take ownership explicitly", in.aliasCell.name, w.name)
				}
				in.aliasCell.st = psEscaped
			default:
				w.assignTo(lhs, false, a, st)
			}
		}
		return
	}

	for _, e := range a.Rhs {
		w.walkExpr(e, st)
	}
	for _, e := range a.Lhs {
		w.assignTo(e, false, a, st)
	}
}

// assignTo applies one assignment target. owned says the incoming value is
// a fresh acquisition the receiver must track.
func (w *poolWalker) assignTo(lhs ast.Expr, owned bool, a *ast.AssignStmt, st *pstate) {
	switch l := unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			if owned && !w.reportedLeak[a.Pos()] {
				w.reportedLeak[a.Pos()] = true
				w.pass.Reportf(a.Pos(), "pooled acquisition assigned to _ in %s; it must be released", w.name)
			}
			return
		}
		if v := localVarOf(w.pass.TypesInfo, l); v != nil {
			w.overwriteCheck(v, st)
			if owned {
				st.vars[v] = &pcell{name: l.Name, pos: l.Pos(), st: psOwned}
			} else {
				delete(st.vars, v)
			}
			return
		}
		// Package-level variable: an escape when owned.
		if owned && !w.pass.HasMarker(a.Pos(), "lint:owns") {
			w.pass.Reportf(a.Pos(), "pooled acquisition stored in package variable without // lint:owns in %s", w.name)
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		w.walkExpr(l, st)
		if owned && !w.pass.HasMarker(a.Pos(), "lint:owns") {
			w.pass.Reportf(a.Pos(), "pooled acquisition stored without // lint:owns in %s; annotate the ownership transfer or keep it in a local until Release", w.name)
		}
	default:
		w.walkExpr(l, st)
	}
}

// overwriteCheck flags reassigning a variable that still owns a subset —
// the old value becomes unreachable unreleased.
func (w *poolWalker) overwriteCheck(v *types.Var, st *pstate) {
	c, ok := st.vars[v]
	if !ok {
		return
	}
	if (c.st == psOwned || c.st == psCond) && !w.reportedLeak[c.pos] {
		w.reportedLeak[c.pos] = true
		w.pass.Reportf(c.pos, "pooled subset %s acquired here is overwritten before Release in %s", c.name, w.name)
	}
	delete(st.vars, v)
}

func (w *poolWalker) walkExpr(e ast.Expr, st *pstate) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		w.useCheckIdent(e, st)
	case *ast.ParenExpr:
		w.walkExpr(e.X, st)
	case *ast.CallExpr:
		w.walkCall(e, st)
	case *ast.SelectorExpr:
		w.walkExpr(e.X, st)
	case *ast.BinaryExpr:
		w.walkExpr(e.X, st)
		w.walkExpr(e.Y, st)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// &v: the address escapes tracking.
			if id, ok := unparen(e.X).(*ast.Ident); ok {
				if c := w.cellOf(id, st); c != nil {
					c.st = psEscaped
					return
				}
			}
		}
		w.walkExpr(e.X, st)
	case *ast.StarExpr:
		w.walkExpr(e.X, st)
	case *ast.IndexExpr:
		w.walkExpr(e.X, st)
		w.walkExpr(e.Index, st)
	case *ast.IndexListExpr:
		w.walkExpr(e.X, st)
	case *ast.SliceExpr:
		w.walkExpr(e.X, st)
		w.walkExpr(e.Low, st)
		w.walkExpr(e.High, st)
		w.walkExpr(e.Max, st)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X, st)
	case *ast.KeyValueExpr:
		w.walkExpr(e.Key, st)
		w.walkExpr(e.Value, st)
	case *ast.CompositeLit:
		// A tracked subset placed in a composite literal escapes into
		// that value; require the ownership marker.
		for _, el := range e.Elts {
			val := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.walkExpr(kv.Key, st)
				val = kv.Value
			}
			if id, ok := unparen(val).(*ast.Ident); ok {
				if w.escapeStore(id, e.Pos(), "placed in a composite literal", st) {
					continue
				}
			}
			w.walkExpr(val, st)
		}
	case *ast.FuncLit:
		// Closure capture: the closure (analyzed separately) or its
		// spawner owns the value now.
		w.markIdentsEscaped(e.Body, st)
	}
}

func (w *poolWalker) walkCall(call *ast.CallExpr, st *pstate) {
	if isConversion(w.pass.TypesInfo, call) {
		for _, a := range call.Args {
			w.walkExpr(a, st)
		}
		return
	}

	// v.Release() / v.Unpool() on a tracked variable.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := unparen(sel.X).(*ast.Ident); ok {
			if c := w.cellOf(id, st); c != nil {
				switch sel.Sel.Name {
				case "Release":
					switch c.st {
					case psReleased:
						if !w.reportedUse[call.Pos()] {
							w.reportedUse[call.Pos()] = true
							w.pass.Reportf(call.Pos(), "second Release of %s in %s; the subset was already returned to the pool", c.name, w.name)
						}
					case psEscaped:
						// Another owner exists; not ours to judge.
					default:
						c.st = psReleased
					}
					return
				case "Unpool":
					if c.st == psReleased {
						w.reportUse(id, "used after Release")
					}
					c.st = psEscaped
					return
				}
			}
		}
	}

	switch builtinName(w.pass.TypesInfo, call) {
	case "append":
		for i, a := range call.Args {
			if i > 0 {
				if id, ok := unparen(a).(*ast.Ident); ok {
					if w.escapeStore(id, a.Pos(), "appended to a slice", st) {
						continue
					}
				}
			}
			w.walkExpr(a, st)
		}
		return
	case "":
		// Not a builtin; fall through to the normal call handling.
	default:
		for _, a := range call.Args {
			w.walkExpr(a, st)
		}
		return
	}

	w.walkExpr(call.Fun, st)
	callee := calleeFunc(w.pass.TypesInfo, call)
	for i, a := range call.Args {
		if id, ok := unparen(a).(*ast.Ident); ok {
			if c := w.cellOf(id, st); c != nil {
				if c.st == psReleased {
					w.reportUse(id, "passed after Release")
				}
				if w.sums.consumesParam(callee, i) {
					c.st = psEscaped // callee takes over
				}
				continue
			}
		}
		w.walkExpr(a, st)
	}
}

// escapeStore handles a tracked identifier flowing into a store-like sink
// (channel send, slice append, composite literal). Returns true when id
// was tracked and has been handled.
func (w *poolWalker) escapeStore(id *ast.Ident, pos token.Pos, how string, st *pstate) bool {
	c := w.cellOf(id, st)
	if c == nil {
		return false
	}
	if c.st == psReleased {
		w.reportUse(id, "used after Release")
	}
	if c.st != psEscaped && !w.pass.HasMarker(pos, "lint:owns") {
		if !w.reportedUse[pos] {
			w.reportedUse[pos] = true
			w.pass.Reportf(pos, "pooled subset %s %s without // lint:owns in %s; the receiving structure must own the Release", c.name, how, w.name)
		}
	}
	c.st = psEscaped
	return true
}

func (w *poolWalker) markIdentsEscaped(n ast.Node, st *pstate) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if c := w.cellOf(id, st); c != nil {
				if c.st == psReleased {
					w.reportUse(id, "used after Release")
				}
				c.st = psEscaped
			}
		}
		return true
	})
}

func (w *poolWalker) useCheckIdent(e ast.Expr, st *pstate) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	if c := w.cellOf(id, st); c != nil && c.st == psReleased {
		w.reportUse(id, "used after Release")
	}
}

func (w *poolWalker) reportUse(id *ast.Ident, what string) {
	if w.reportedUse[id.Pos()] {
		return
	}
	w.reportedUse[id.Pos()] = true
	w.pass.Reportf(id.Pos(), "pooled subset %s %s in %s; the underlying bitset may already be recycled", id.Name, what, w.name)
}

func (w *poolWalker) cellOf(id *ast.Ident, st *pstate) *pcell {
	v := localVarOf(w.pass.TypesInfo, id)
	if v == nil {
		return nil
	}
	return st.vars[v]
}

func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	return builtinName(info, call) == "panic"
}

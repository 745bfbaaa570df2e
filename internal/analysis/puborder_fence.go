package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// The fence sub-check of the publication-order pass. Paper §3.6 publishes
// the hazard pointer with a plain store and relies on the FAA that follows
// to order it: on x86 a locked instruction drains the store buffer, but a
// plain load issued after a plain store may still be satisfied before the
// store is visible. So a plain store to a protocol word (a field some site
// accesses through sync/atomic, normally an allow-annotated hazard
// publish) is sound only if, on every path after it, the first shared
// access is a sync/atomic Add or CompareAndSwap. The walk follows static
// calls into analyzed functions (Enqueue's publish reaches enqFast's FAA)
// and checks both arms of every branch; a statement it does not model (go,
// defer, select, a send) fails closed. Two approximations keep it small:
// a loop body is taken to run at least once (the core's patience loops
// always make their first attempt), and a break, continue or goto ends the
// path as if it fell out of the statement. Stores of a constant are
// retractions (the -1 clear), not publications: delaying one only delays
// the reclaimer, so they are exempt.

// fenceOutcome summarizes the paths through a statement list: bad is the
// first shared access that is not an Add or CAS (nil when none), fall and
// ret record that some path reaches the end of the list or returns without
// meeting an Add or CAS. A zero outcome means every path met one.
type fenceOutcome struct {
	bad       *fenceAccess
	fall, ret bool
}

// fenceAccess is the offending access a bad outcome names.
type fenceAccess struct {
	pos  token.Position
	what string
}

// fenceWalker walks the code after one plain store.
type fenceWalker struct {
	idx map[*types.Func]*funcNode
	p   *Package // package of the function being walked
	// active guards recursion: a callee already on the walk stack is
	// treated as transparent.
	active map[*types.Func]bool
}

// plainPublishFences reports plain stores to protocol words in fd that can
// reach a shared access other than an Add or CAS first.
func plainPublishFences(p *Package, fd *ast.FuncDecl, anns *fileAnns, fields map[*types.Var]token.Position, idx map[*types.Func]*funcNode) []Diagnostic {
	var diags []Diagnostic
	inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			s := p.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				continue
			}
			if _, protocol := fields[s.Obj().(*types.Var)]; !protocol {
				continue
			}
			if tv, ok := p.Info.Types[as.Rhs[i]]; ok && tv.Value != nil {
				continue // a constant: a retraction, not a publication
			}
			pos := p.Fset.Position(as.Pos())
			if anns != nil && anns.allowedAt(pos.Line, "puborder") {
				continue
			}
			w := &fenceWalker{idx: idx, p: p, active: map[*types.Func]bool{}}
			path := append(append([]ast.Node{}, stack...), as)
			if msg := w.afterStore(fd, path); msg != "" {
				diags = append(diags, Diagnostic{
					Pass: "puborder",
					Pos:  pos,
					Msg: fmt.Sprintf("plain store to %s is not ordered by a fence: %s; x86 lets a later load pass an earlier plain store, so publish with sync/atomic or reach an FAA or CAS first",
						s.Obj().Name(), msg),
				})
			}
		}
		return true
	})
	return diags
}

// afterStore walks the rest of fd after the statement on top of stack,
// climbing out of enclosing blocks while paths fall through, and returns
// why the store is unordered, or "".
func (w *fenceWalker) afterStore(fd *ast.FuncDecl, stack []ast.Node) string {
	for i := len(stack) - 1; i > 0; i-- {
		var rest []ast.Stmt
		switch b := stack[i-1].(type) {
		case *ast.BlockStmt:
			rest = stmtsAfter(b.List, stack[i])
		case *ast.CaseClause:
			rest = stmtsAfter(b.Body, stack[i])
		default:
			continue // an if/for/switch around the store's block: climb on
		}
		o := w.stmts(rest)
		switch {
		case o.bad != nil:
			return fmt.Sprintf("the next shared access is %s at %s:%d", o.bad.what, filepath.Base(o.bad.pos.Filename), o.bad.pos.Line)
		case o.ret:
			return fmt.Sprintf("a path returns from %s before any FAA or CAS", fd.Name.Name)
		case !o.fall:
			return ""
		}
		if stack[i-1] == fd.Body {
			break
		}
	}
	return fmt.Sprintf("%s ends before any FAA or CAS", fd.Name.Name)
}

// stmtsAfter returns the statements of list after the one that is, or
// contains, n.
func stmtsAfter(list []ast.Stmt, n ast.Node) []ast.Stmt {
	for i, s := range list {
		if s == n {
			return list[i+1:]
		}
	}
	return nil
}

func (w *fenceWalker) stmts(list []ast.Stmt) fenceOutcome {
	var acc fenceOutcome
	for _, s := range list {
		o := w.stmt(s)
		acc.ret = acc.ret || o.ret
		if o.bad != nil {
			acc.bad = o.bad
			return acc
		}
		if !o.fall {
			return acc
		}
	}
	acc.fall = true
	return acc
}

// seq runs a header expression list and then a statement outcome.
func (w *fenceWalker) seq(first fenceOutcome, then func() fenceOutcome) fenceOutcome {
	if first.bad != nil || !first.fall {
		return first
	}
	o := then()
	o.ret = o.ret || first.ret
	return o
}

// either merges the outcomes of alternative paths.
func either(os ...fenceOutcome) fenceOutcome {
	var m fenceOutcome
	for _, o := range os {
		if m.bad == nil {
			m.bad = o.bad
		}
		m.fall = m.fall || o.fall
		m.ret = m.ret || o.ret
	}
	return m
}

var fenceFall = fenceOutcome{fall: true}

func (w *fenceWalker) stmt(s ast.Stmt) fenceOutcome {
	switch x := s.(type) {
	case nil:
		return fenceFall
	case *ast.BlockStmt:
		return w.stmts(x.List)
	case *ast.ExprStmt:
		return w.exprs(x.X)
	case *ast.AssignStmt:
		return w.exprs(append(append([]ast.Expr{}, x.Rhs...), x.Lhs...)...)
	case *ast.IncDecStmt:
		return w.exprs(x.X)
	case *ast.DeclStmt:
		var es []ast.Expr
		if g, ok := x.Decl.(*ast.GenDecl); ok {
			for _, sp := range g.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					es = append(es, vs.Values...)
				}
			}
		}
		return w.exprs(es...)
	case *ast.ReturnStmt:
		o := w.exprs(x.Results...)
		if o.fall {
			return fenceOutcome{ret: true}
		}
		return o
	case *ast.LabeledStmt:
		return w.stmt(x.Stmt)
	case *ast.IfStmt:
		return w.seq(w.stmt(x.Init), func() fenceOutcome {
			return w.seq(w.exprs(x.Cond), func() fenceOutcome {
				return either(w.stmts(x.Body.List), w.stmt(x.Else))
			})
		})
	case *ast.ForStmt:
		return w.seq(w.stmt(x.Init), func() fenceOutcome {
			return w.seq(w.exprs(x.Cond), func() fenceOutcome { return w.stmts(x.Body.List) })
		})
	case *ast.RangeStmt:
		return w.seq(w.exprs(x.X), func() fenceOutcome { return w.stmts(x.Body.List) })
	case *ast.SwitchStmt:
		return w.seq(w.stmt(x.Init), func() fenceOutcome {
			return w.seq(w.exprs(x.Tag), func() fenceOutcome { return w.clauses(x.Body) })
		})
	case *ast.BranchStmt, *ast.EmptyStmt:
		return fenceFall
	}
	return fenceOutcome{bad: &fenceAccess{pos: w.p.Fset.Position(s.Pos()), what: fmt.Sprintf("a %T the walk does not model", s)}}
}

// clauses merges the arms of a switch; without a default arm the
// statement may also run no arm at all.
func (w *fenceWalker) clauses(body *ast.BlockStmt) fenceOutcome {
	var arms []fenceOutcome
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		hasDefault = hasDefault || cc.List == nil
		arms = append(arms, w.seq(w.exprs(cc.List...), func() fenceOutcome { return w.stmts(cc.Body) }))
	}
	if !hasDefault {
		arms = append(arms, fenceFall)
	}
	return either(arms...)
}

// exprs walks expressions in evaluation order: a call's receiver and
// arguments before the call itself. Function literals are not entered.
func (w *fenceWalker) exprs(es ...ast.Expr) fenceOutcome {
	for _, e := range es {
		if e == nil {
			continue
		}
		var out *fenceOutcome
		ast.Inspect(e, func(n ast.Node) bool {
			if out != nil {
				return false
			}
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if o := w.exprs(append([]ast.Expr{x.Fun}, x.Args...)...); !o.fall || o.bad != nil {
					out = &o
					return false
				}
				if o := w.call(x); !o.fall || o.bad != nil {
					out = &o
				}
				return false
			}
			return true
		})
		if out != nil {
			return *out
		}
	}
	return fenceFall
}

// call classifies one call whose operands were already walked.
func (w *fenceWalker) call(x *ast.CallExpr) fenceOutcome {
	if _, op, _ := atomicWordCall(w.p.Info, x); op != "" || isSyncAtomicCall(w.p.Info, x) {
		if op == "Add" || op == "CompareAndSwap" {
			return fenceOutcome{}
		}
		return fenceOutcome{bad: &fenceAccess{pos: w.p.Fset.Position(x.Pos()), what: "an atomic " + op}}
	}
	fn := callee(w.p.Info, x)
	node := w.idx[fn]
	if node == nil || w.active[fn] {
		return fenceFall // builtin, conversion, stdlib, or recursion
	}
	w.active[fn] = true
	defer delete(w.active, fn)
	caller := w.p
	w.p = node.pkg
	o := w.stmts(node.decl.Body.List)
	w.p = caller
	if o.ret {
		// A return from the callee continues in the caller, like a fall.
		o.ret, o.fall = false, true
	}
	return o
}

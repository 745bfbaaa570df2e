package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The publication-order pass: the static half of the ROADMAP's arm64
// weak-memory validation item. On x86-TSO every store is a release and
// every load an acquire, so the tree can pass every test there while
// violating the ordering the algorithm actually needs on arm. Go's memory
// model gives the needed edge only between an atomic store and the atomic
// load that observes it: the initializing plain stores to an object must be
// program-ordered *before* the atomic store that publishes its address, and
// nothing may plainly store to the object afterward. The pass proves the
// store side per function:
//
//   - latestore: a plain store to a field of an object *after* the object
//     was published by an atomic Store/Swap/CompareAndSwap — the classic
//     unordered publish; readers holding the pointer can observe the field
//     update without any happens-before edge.
//
//   - plainpublish: a freshly allocated object whose address is stored into
//     another object's field by a *plain* store — the publish itself lacks
//     release semantics, so the object's initialization may be observed
//     out of order.
//
//   - fence: a plain store to a word other sites access atomically (the
//     x86 hazard publish) must reach a sync/atomic Add or CompareAndSwap
//     before any other shared access (puborder_fence.go).
//
//   - pairing: every atomic load site names a word that some store (atomic
//     anywhere, or plain inside an initialization function) actually
//     writes. A load with no paired store is dead protocol — usually a
//     refactor that moved the store and left the acquire behind.
//
// The acquire side needs no separate pass: the atomic-hygiene pass already
// forces every read of a published word through sync/atomic, and a pointer
// obtained from an atomic load is by construction dereferenced after the
// acquire. Reports are confined to wait-free packages; evidence (stores,
// init functions) is collected across all analyzed packages. The pass runs
// once per GOARCH because build tags can select different files per target.

// pubOrder runs the four publication-order sub-checks over pkgs.
func pubOrder(cfg Config, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	stores := collectWordStores(pkgs)
	fields := collectAtomicFields(pkgs)
	idx := buildFuncIndex(pkgs)
	for _, p := range pkgs {
		if cfg.Tiers[p.Path] != TierWaitFree {
			continue
		}
		for _, f := range p.Files {
			fname := p.Fset.Position(f.Pos()).Filename
			anns := p.Anns[fname]
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if !isInitFunc(fd, p.Fset, anns) {
					diags = append(diags, lateStores(p, fd, anns)...)
					diags = append(diags, plainPublishes(p, fd, anns)...)
					diags = append(diags, plainPublishFences(p, fd, anns, fields, idx)...)
				}
				diags = append(diags, unpairedLoads(p, fd, anns, stores)...)
			}
		}
	}
	return diags
}

// atomicWordCall decodes a call touching an atomic word and returns the
// field it addresses (nil when the word is not a struct field), the
// operation name ("Load", "Store", "Swap", "CompareAndSwap", "Add", ...)
// and the index of the published-value argument (-1 when the operation
// publishes nothing). Both spellings are handled: address form
// (atomic.StorePointer(&x.f, v)) and method form (x.f.Store(v)).
func atomicWordCall(info *types.Info, call *ast.CallExpr) (fv *types.Var, op string, valIdx int) {
	if isSyncAtomicCall(info, call) && len(call.Args) > 0 {
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		name := sel.Sel.Name
		op = opPrefix(name)
		if op == "" {
			return nil, "", -1
		}
		switch op {
		case "Store", "Swap":
			valIdx = 1
		case "CompareAndSwap":
			valIdx = 2
		default:
			valIdx = -1
		}
		return addrOfField(info, call.Args[0]), op, valIdx
	}
	// Method form: x.f.Store(v) with f of a sync/atomic type.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", -1
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil, "", -1
	}
	op = opPrefix(fn.Name())
	if op == "" {
		return nil, "", -1
	}
	switch op {
	case "Store", "Swap":
		valIdx = 0
	case "CompareAndSwap":
		valIdx = 1
	default:
		valIdx = -1
	}
	rsel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, op, valIdx
	}
	s := info.Selections[rsel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil, op, valIdx
	}
	return s.Obj().(*types.Var), op, valIdx
}

// opPrefix maps a sync/atomic function/method name to its operation class.
func opPrefix(name string) string {
	for _, p := range []string{"CompareAndSwap", "Load", "Store", "Swap", "Add", "Or", "And"} {
		if strings.HasPrefix(name, p) {
			return p
		}
	}
	return ""
}

// publishedLocal unwraps conversions (unsafe.Pointer(s), (*T)(s)) around a
// published value and returns the function-local or parameter variable it
// names, or nil.
func publishedLocal(info *types.Info, e ast.Expr) *types.Var {
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			break
		}
		tv, ok := info.Types[call.Fun]
		if !ok || !tv.IsType() {
			break
		}
		e = call.Args[0]
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return nil // package-level variable, not a local
	}
	// Only pointer-ish locals can publish an object.
	switch u := v.Type().Underlying().(type) {
	case *types.Pointer:
		return v
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return v
		}
	}
	return nil
}

// rootIdentVar resolves the base variable of an lvalue chain
// (s.cells[i].val -> s), or nil.
func rootIdentVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// pubRegion is a source interval in which an object is known published.
type pubRegion struct {
	obj      *types.Var
	from, to token.Pos
	pubPos   token.Position
}

// lateStores flags plain stores to fields of an object after the function
// published it with an atomic store. For a CompareAndSwap used as an if
// condition, only the success arm (and the code after the if) counts as
// published; a failed CAS publishes nothing, and the retry arm legitimately
// re-initializes.
func lateStores(p *Package, fd *ast.FuncDecl, anns *fileAnns) []Diagnostic {
	var regions []pubRegion
	reassigns := map[*types.Var][]token.Pos{}

	inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if v := identVar(p.Info, id); v != nil {
						reassigns[v] = append(reassigns[v], x.Pos())
					}
				}
			}
		case *ast.CallExpr:
			fv, op, valIdx := atomicWordCall(p.Info, x)
			if op == "" || valIdx < 0 || valIdx >= len(x.Args) {
				return true
			}
			_ = fv // the published word itself may be any shared location
			obj := publishedLocal(p.Info, x.Args[valIdx])
			if obj == nil {
				return true
			}
			for _, r := range casRegions(fd, stack, x, op) {
				r.obj = obj
				r.pubPos = p.Fset.Position(x.Pos())
				regions = append(regions, r)
			}
		}
		return true
	})
	if len(regions) == 0 {
		return nil
	}

	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			s := p.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				continue
			}
			base := rootIdentVar(p.Info, sel.X)
			if base == nil {
				continue
			}
			for _, r := range regions {
				if r.obj != base || lhs.Pos() < r.from || lhs.Pos() > r.to {
					continue
				}
				// A rebinding between the publish and the store means the
				// store targets a different object.
				if rebound(reassigns[base], r.from, lhs.Pos()) {
					continue
				}
				pos := p.Fset.Position(lhs.Pos())
				if anns != nil && anns.allowedAt(pos.Line, "puborder") {
					continue
				}
				diags = append(diags, Diagnostic{
					Pass: "puborder",
					Pos:  pos,
					Msg: fmt.Sprintf("plain store to %s.%s after %s was published by an atomic store at line %d: readers can observe it unordered on weak memory",
						base.Name(), s.Obj().Name(), base.Name(), r.pubPos.Line),
				})
				break
			}
		}
		return true
	})
	return diags
}

func identVar(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

func rebound(positions []token.Pos, from, until token.Pos) bool {
	for _, p := range positions {
		if p > from && p < until {
			return true
		}
	}
	return false
}

// casRegions computes where a publish is in effect. Plain Store/Swap: from
// the call to the end of the function. CompareAndSwap inside an if
// condition: the success arm plus everything after the if statement (under
// `if cas {...}` the then-arm; under `if !cas {...}` the else-arm).
func casRegions(fd *ast.FuncDecl, stack []ast.Node, call *ast.CallExpr, op string) []pubRegion {
	if op == "CompareAndSwap" {
		for i := len(stack) - 1; i >= 0; i-- {
			ifs, ok := stack[i].(*ast.IfStmt)
			if !ok || !within(call, ifs.Cond) {
				continue
			}
			negated := false
			if u, ok := ast.Unparen(ifs.Cond).(*ast.UnaryExpr); ok && u.Op == token.NOT && within(call, u.X) {
				negated = true
			}
			regions := []pubRegion{{from: ifs.End(), to: fd.Body.End()}}
			if negated {
				if ifs.Else != nil {
					regions = append(regions, pubRegion{from: ifs.Else.Pos(), to: ifs.Else.End()})
				}
			} else {
				regions = append(regions, pubRegion{from: ifs.Body.Pos(), to: ifs.Body.End()})
			}
			return regions
		}
	}
	return []pubRegion{{from: call.End(), to: fd.Body.End()}}
}

func within(n ast.Node, outer ast.Node) bool {
	return outer != nil && n.Pos() >= outer.Pos() && n.End() <= outer.End()
}

// plainPublishes flags plain stores that publish a freshly allocated object
// into a field of a non-fresh object.
func plainPublishes(p *Package, fd *ast.FuncDecl, anns *fileAnns) []Diagnostic {
	fresh := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) || !freshAlloc(p.Info, rhs) {
				continue
			}
			if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
				if v := identVar(p.Info, id); v != nil {
					fresh[v] = true
				}
			}
		}
		return true
	})
	if len(fresh) == 0 {
		return nil
	}
	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			v := publishedLocal(p.Info, as.Rhs[i])
			if v == nil || !fresh[v] {
				continue
			}
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			s := p.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				continue
			}
			// Wiring the object into another fresh (still-private) object
			// is initialization, not publication.
			if base := rootIdentVar(p.Info, sel.X); base != nil && fresh[base] {
				continue
			}
			pos := p.Fset.Position(lhs.Pos())
			if anns != nil && anns.allowedAt(pos.Line, "puborder") {
				continue
			}
			diags = append(diags, Diagnostic{
				Pass: "puborder",
				Pos:  pos,
				Msg: fmt.Sprintf("freshly allocated %s is published by a plain store to %s: the publish needs release semantics (atomic store or CAS)",
					v.Name(), s.Obj().Name()),
			})
		}
		return true
	})
	return diags
}

// freshAlloc reports whether e allocates a new object: &T{...}, new(T), or
// a call to new via parens.
func freshAlloc(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return false
		}
		_, isLit := ast.Unparen(x.X).(*ast.CompositeLit)
		return isLit
	case *ast.CallExpr:
		id, ok := ast.Unparen(x.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := info.Uses[id].(*types.Builtin)
		return ok && b.Name() == "new"
	}
	return false
}

// wordStores is the set of struct fields some store writes, plus fields
// written plainly anywhere (initialization counts as a pairing store; the
// hygiene pass separately polices which plain stores are legal).
func collectWordStores(pkgs []*Package) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					fv, op, _ := atomicWordCall(p.Info, x)
					if fv != nil && op != "" && op != "Load" {
						out[fv] = true
					}
					if op == "" {
						// A field address handed to an ordinary function
						// (popNode(&p.head)) may be stored through inside
						// the callee; count the escape as a store.
						for _, a := range x.Args {
							if fv := addrOfField(p.Info, a); fv != nil {
								out[fv] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
								out[s.Obj().(*types.Var)] = true
							}
						}
					}
				case *ast.CompositeLit:
					for _, el := range x.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := p.Info.Uses[id].(*types.Var); ok && v.IsField() {
								out[v] = true
							}
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
						if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
							out[s.Obj().(*types.Var)] = true
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// unpairedLoads flags atomic loads of struct fields no store ever writes.
func unpairedLoads(p *Package, fd *ast.FuncDecl, anns *fileAnns, stores map[*types.Var]bool) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fv, op, _ := atomicWordCall(p.Info, call)
		if fv == nil || op != "Load" || stores[fv] {
			return true
		}
		pos := p.Fset.Position(call.Pos())
		if anns != nil && anns.allowedAt(pos.Line, "puborder") {
			return true
		}
		diags = append(diags, Diagnostic{
			Pass: "puborder",
			Pos:  pos,
			Msg: fmt.Sprintf("atomic load of field %s pairs with no store anywhere in the analyzed packages: dead or half-moved protocol word",
				fv.Name()),
		})
		return true
	})
	return diags
}

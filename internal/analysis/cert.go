package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// The certification engine: wfqlint cert. The loop audit (loops.go) proves
// each loop bounded in isolation; this pass composes those bounds over the
// interprocedural call graph into one closed-form worst-case step bound per
// public operation — the machine-checked form of the paper's central claim
// and of DESIGN.md §3's per-operation statements.
//
// The model is deliberately simple enough to audit by hand:
//
//	cost(fn)        = 1 + cost(body)
//	cost(stmt seq)  = sum of statement costs
//	cost(branch)    = cost of the numerically larger arm at the reference
//	                  symbol values (the winner's symbolic form is kept)
//	cost(call)      = 1 + cost(args) + cost(callee)   [resolved statically]
//	cost(loop)      = bound · (1 + cost(one iteration)) + cost(init)
//
// where a loop's bound is, in order of preference: the symbolic cost of its
// //wfqlint:bounded(<cost>, <reason>) annotation, or a trip count that is
// constant in the syntax (both comparison operands constant-evaluable, or a
// range over an array). Anything else on a certified path is a diagnostic —
// the engine tells you exactly which loop needs an annotation. Calls that
// do not resolve to an analyzed function (stdlib, function values) count as
// one step; the no-block and escape passes separately bound what may hide
// there. Function-literal bodies are not charged to the enclosing call.
//
// Symbols come from Config.Symbols: constant-backed ones are resolved from
// package constants through go/types (so retuning PatienceCap reprices
// every dependent bound), parameter symbols carry documented reference
// values and surface per-operation as "assumes". The tuning knobs resolve
// to their option caps (PatienceCap, MaxSpinCap), so the bounds hold for
// every configuration New accepts.
//
// The composed certificate is serialized to artifacts/wfqcert.json and
// diffed against the committed baseline by CompareBaseline: a vanished
// operation, a numeric bound that grew, a new model assumption, or a grown
// symbol value each fail with the exact operation and position.

// CertSchema identifies the certificate JSON format.
const CertSchema = "wfqcert/v1"

// CertSymbol is one resolved symbol of the cost grammar.
type CertSymbol struct {
	Name   string `json:"name"`
	Value  uint64 `json:"value"`
	Source string `json:"source"` // "core.PatienceCap" or "model parameter"
	Param  bool   `json:"param,omitempty"`
	Doc    string `json:"doc"`
}

// CertObligation is one annotated loop whose bound feeds an operation.
type CertObligation struct {
	File string `json:"file"` // repo-relative, slash-separated
	Line int    `json:"line"`
	Func string `json:"func"`
	Cost string `json:"cost"`
}

// CertOp is the certified step bound of one public operation.
type CertOp struct {
	Pkg     string           `json:"pkg"` // package name: core, sharded, scq
	Op      string           `json:"op"`  // "(*Queue).Enqueue" style
	Bound   string           `json:"bound"`
	Steps   uint64           `json:"steps"`             // Bound at reference values
	Assumes []string         `json:"assumes,omitempty"` // parameter symbols in Bound
	Obls    []CertObligation `json:"obligations"`

	// Pos is the operation's declaration position, for diagnostics on the
	// freshly built side of a baseline comparison. Not serialized.
	Pos token.Position `json:"-"`
}

// Certificate is the full artifact.
type Certificate struct {
	Schema  string       `json:"schema"`
	Module  string       `json:"module"`
	Symbols []CertSymbol `json:"symbols"`
	Ops     []CertOp     `json:"ops"`
}

// JSON renders the certificate deterministically (fields and slices are
// sorted at build time) for committing as the baseline artifact.
func (c *Certificate) JSON() []byte {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic(err) // no cycles, no funcs: cannot fail
	}
	return append(b, '\n')
}

// ParseCertificate decodes a baseline previously written by JSON.
func ParseCertificate(data []byte) (*Certificate, error) {
	var c Certificate
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("parse certificate: %w", err)
	}
	if c.Schema != CertSchema {
		return nil, fmt.Errorf("certificate schema %q, want %q", c.Schema, CertSchema)
	}
	return &c, nil
}

// buildCertificate composes the per-operation bounds for cfg.CertOps.
// Returns (nil, nil) when the config certifies nothing.
func buildCertificate(cfg Config, pkgs []*Package) (*Certificate, []Diagnostic) {
	if len(cfg.CertOps) == 0 {
		return nil, nil
	}
	e := &certEngine{
		cfg:    cfg,
		idx:    buildFuncIndex(pkgs),
		memo:   map[*types.Func]*fnEntry{},
		stack:  map[*types.Func]bool{},
		vals:   map[string]uint64{},
		known:  map[string]bool{},
		params: map[string]bool{},
		seen:   map[string]bool{},
	}
	syms := e.resolveSymbols(pkgs)

	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	var paths []string
	for path := range cfg.CertOps {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	cert := &Certificate{Schema: CertSchema, Module: cfg.Module, Symbols: syms}
	for _, path := range paths {
		p := byPath[path]
		if p == nil {
			e.diag(token.Position{}, "certified package %s not loaded", path)
			continue
		}
		names := append([]string(nil), cfg.CertOps[path]...)
		sort.Strings(names)
		for _, name := range names {
			nodes := e.opDecls(p, name)
			if len(nodes) == 0 {
				e.diag(token.Position{}, "certified operation %s.%s has no declaration", p.Types.Name(), name)
				continue
			}
			for _, node := range nodes {
				entry := e.fnCost(node.obj)
				op := CertOp{
					Pkg:   p.Types.Name(),
					Op:    funcDisplayName(node.decl),
					Bound: entry.cost.String(),
					Steps: e.evalLoose(entry.cost),
					Pos:   p.Fset.Position(node.decl.Pos()),
				}
				for _, s := range entry.cost.Symbols() {
					if e.params[s] {
						op.Assumes = append(op.Assumes, s)
					}
				}
				for _, o := range entry.obls {
					op.Obls = append(op.Obls, o)
				}
				sort.Slice(op.Obls, func(i, j int) bool {
					a, b := op.Obls[i], op.Obls[j]
					if a.File != b.File {
						return a.File < b.File
					}
					return a.Line < b.Line
				})
				cert.Ops = append(cert.Ops, op)
			}
		}
	}
	sort.Slice(cert.Ops, func(i, j int) bool {
		a, b := cert.Ops[i], cert.Ops[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		return a.Op < b.Op
	})
	return cert, e.diags
}

// CompareBaseline diffs a freshly built certificate against the committed
// baseline. Growth fails; shrinkage is a baseline refresh away (make cert).
func CompareBaseline(cur, base *Certificate) []Diagnostic {
	var diags []Diagnostic
	add := func(pos token.Position, format string, args ...any) {
		diags = append(diags, Diagnostic{Pass: "cert", Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
	curOps := map[string]*CertOp{}
	for i := range cur.Ops {
		op := &cur.Ops[i]
		curOps[op.Pkg+"."+op.Op] = op
	}
	baseSyms := map[string]CertSymbol{}
	for _, s := range base.Symbols {
		baseSyms[s.Name] = s
	}
	for _, s := range cur.Symbols {
		if b, ok := baseSyms[s.Name]; ok && s.Value > b.Value {
			add(token.Position{}, "symbol %s grew beyond baseline: %d -> %d (refresh with make cert if intended)", s.Name, b.Value, s.Value)
		}
	}
	for _, b := range base.Ops {
		key := b.Pkg + "." + b.Op
		c, ok := curOps[key]
		if !ok {
			add(token.Position{}, "certified operation %s present in baseline but missing from tree", key)
			continue
		}
		if c.Steps > b.Steps {
			add(c.Pos, "step bound for %s grew beyond baseline: %d -> %d (bound %s, baseline %s)", key, b.Steps, c.Steps, c.Bound, b.Bound)
		}
		baseAssumes := map[string]bool{}
		for _, a := range b.Assumes {
			baseAssumes[a] = true
		}
		for _, a := range c.Assumes {
			if !baseAssumes[a] {
				add(c.Pos, "%s now assumes model parameter %s not in baseline", key, a)
			}
		}
	}
	sortDiags(diags)
	return diags
}

// fnEntry is the memoized certification state of one function.
type fnEntry struct {
	cost Cost
	obls map[string]CertObligation // keyed file:line
}

type certEngine struct {
	cfg    Config
	idx    map[*types.Func]*funcNode
	memo   map[*types.Func]*fnEntry
	stack  map[*types.Func]bool
	vals   map[string]uint64 // resolved symbol values
	known  map[string]bool   // declared symbol names
	params map[string]bool   // parameter symbol names
	seen   map[string]bool   // deduped diagnostics (unknown symbols, cycles)
	diags  []Diagnostic
}

func (e *certEngine) diag(pos token.Position, format string, args ...any) {
	e.diags = append(e.diags, Diagnostic{Pass: "cert", Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// resolveSymbols builds the value table from cfg.Symbols: constant-backed
// entries are looked up in their package's type-checked scope (unexported
// constants included), parameters take their reference value.
func (e *certEngine) resolveSymbols(pkgs []*Package) []CertSymbol {
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	var out []CertSymbol
	for _, def := range e.cfg.Symbols {
		cs := CertSymbol{Name: def.Name, Param: def.Param, Doc: def.Doc}
		if def.Pkg == "" {
			cs.Value = def.Value
			cs.Source = "model parameter"
		} else {
			p := byPath[def.Pkg]
			if p == nil {
				e.diag(token.Position{}, "symbol %s: package %s not loaded", def.Name, def.Pkg)
				continue
			}
			obj, ok := p.Types.Scope().Lookup(def.Const).(*types.Const)
			if !ok {
				e.diag(token.Position{}, "symbol %s: constant %s.%s not found", def.Name, p.Types.Name(), def.Const)
				continue
			}
			v, ok := constant.Uint64Val(constant.ToInt(obj.Val()))
			if !ok {
				e.diag(token.Position{}, "symbol %s: %s.%s is not a uint64-representable constant", def.Name, p.Types.Name(), def.Const)
				continue
			}
			cs.Value = v
			cs.Source = p.Types.Name() + "." + def.Const
		}
		e.vals[def.Name] = cs.Value
		e.known[def.Name] = true
		if def.Param {
			e.params[def.Name] = true
		}
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// evalLoose evaluates a cost at the reference values, substituting 1 for
// unknown symbols (each unknown symbol is already a diagnostic — the loose
// evaluation just keeps the engine total).
func (e *certEngine) evalLoose(c Cost) uint64 {
	if v, err := c.Eval(e.vals); err == nil {
		return v
	}
	vals := map[string]uint64{}
	for k, v := range e.vals {
		vals[k] = v
	}
	for _, s := range c.Symbols() {
		if !e.known[s] {
			vals[s] = 1
		}
	}
	v, _ := c.Eval(vals)
	return v
}

// opDecls returns the declared functions in p named name, sorted.
func (e *certEngine) opDecls(p *Package, name string) []*funcNode {
	var out []*funcNode
	for fn, node := range e.idx {
		if node.pkg == p && fn.Name() == name {
			out = append(out, node)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return funcDisplayName(out[i].decl) < funcDisplayName(out[j].decl)
	})
	return out
}

// fnCost computes (memoized) the symbolic cost of one declared function.
func (e *certEngine) fnCost(fn *types.Func) *fnEntry {
	if entry, ok := e.memo[fn]; ok {
		return entry
	}
	node, ok := e.idx[fn]
	if !ok {
		return &fnEntry{cost: constCost(1), obls: map[string]CertObligation{}}
	}
	if e.stack[fn] {
		key := "cycle:" + fn.FullName()
		if !e.seen[key] {
			e.seen[key] = true
			e.diag(node.pkg.Fset.Position(node.decl.Pos()), "recursive call cycle through %s on certified path: cost cannot be composed", funcDisplayName(node.decl))
		}
		return &fnEntry{cost: constCost(1), obls: map[string]CertObligation{}}
	}
	e.stack[fn] = true
	fname := node.pkg.Fset.Position(node.decl.Pos()).Filename
	w := &fnWalker{
		e:     e,
		p:     node.pkg,
		anns:  node.pkg.Anns[fname],
		fname: funcDisplayName(node.decl),
		entry: &fnEntry{obls: map[string]CertObligation{}},
	}
	w.entry.cost = constCost(1).add(w.stmtCost(node.decl.Body))
	delete(e.stack, fn)
	e.memo[fn] = w.entry
	return w.entry
}

// relFile renders a position's filename repo-relative with forward slashes.
func (e *certEngine) relFile(filename string) string {
	rel, err := filepath.Rel(e.cfg.Root, filename)
	if err != nil {
		return filepath.ToSlash(filename)
	}
	return filepath.ToSlash(rel)
}

// fnWalker computes statement/expression costs inside one function.
type fnWalker struct {
	e     *certEngine
	p     *Package
	anns  *fileAnns
	fname string
	entry *fnEntry
}

func (w *fnWalker) stmtCost(s ast.Stmt) Cost {
	switch x := s.(type) {
	case nil:
		return zeroCost()
	case *ast.BlockStmt:
		c := zeroCost()
		for _, st := range x.List {
			c = c.add(w.stmtCost(st))
		}
		return c
	case *ast.ExprStmt:
		return w.exprCost(x.X)
	case *ast.AssignStmt:
		c := zeroCost()
		for _, e := range x.Lhs {
			c = c.add(w.exprCost(e))
		}
		for _, e := range x.Rhs {
			c = c.add(w.exprCost(e))
		}
		return c
	case *ast.IncDecStmt:
		return w.exprCost(x.X)
	case *ast.IfStmt:
		c := w.stmtCost(x.Init).add(w.exprCost(x.Cond))
		return c.add(w.maxCost(w.stmtCost(x.Body), w.stmtCost(x.Else)))
	case *ast.ForStmt:
		return w.loopCost(x, x.Init, x.Cond, x.Post, x.Body)
	case *ast.RangeStmt:
		return w.rangeCost(x)
	case *ast.SwitchStmt:
		c := w.stmtCost(x.Init).add(w.exprCost(x.Tag))
		return c.add(w.caseMax(x.Body))
	case *ast.TypeSwitchStmt:
		c := w.stmtCost(x.Init).add(w.stmtCost(x.Assign))
		return c.add(w.caseMax(x.Body))
	case *ast.SelectStmt:
		// Unreachable on hot paths (the no-block pass flags selects);
		// cost the worst arm anyway so the engine stays total.
		return w.caseMax(x.Body)
	case *ast.ReturnStmt:
		c := zeroCost()
		for _, e := range x.Results {
			c = c.add(w.exprCost(e))
		}
		return c
	case *ast.SendStmt:
		return w.exprCost(x.Chan).add(w.exprCost(x.Value))
	case *ast.DeferStmt:
		return w.exprCost(x.Call)
	case *ast.GoStmt:
		// The spawned goroutine's steps are not the caller's steps.
		return w.exprCost(x.Call)
	case *ast.LabeledStmt:
		return w.stmtCost(x.Stmt)
	case *ast.DeclStmt:
		c := zeroCost()
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						c = c.add(w.exprCost(e))
					}
				}
			}
		}
		return c
	}
	return zeroCost()
}

// caseMax is the worst case-clause body of a switch/select.
func (w *fnWalker) caseMax(body *ast.BlockStmt) Cost {
	worst := zeroCost()
	for _, cl := range body.List {
		var stmts []ast.Stmt
		c := zeroCost()
		switch x := cl.(type) {
		case *ast.CaseClause:
			for _, e := range x.List {
				c = c.add(w.exprCost(e))
			}
			stmts = x.Body
		case *ast.CommClause:
			c = c.add(w.stmtCost(x.Comm))
			stmts = x.Body
		}
		for _, st := range stmts {
			c = c.add(w.stmtCost(st))
		}
		worst = w.maxCost(worst, c)
	}
	return worst
}

// maxCost picks the numerically larger cost at the reference symbol values
// and keeps its symbolic form (ties break toward the canonical-lesser
// string, so the choice is deterministic).
func (w *fnWalker) maxCost(a, b Cost) Cost {
	av, bv := w.e.evalLoose(a), w.e.evalLoose(b)
	switch {
	case av > bv:
		return a
	case bv > av:
		return b
	case a.String() <= b.String():
		return a
	}
	return b
}

// loopCost charges init once and bound·(step + cond + post + body).
func (w *fnWalker) loopCost(loop ast.Stmt, init ast.Stmt, cond ast.Expr, post ast.Stmt, body *ast.BlockStmt) Cost {
	bound := w.loopBound(loop, init, cond)
	iter := constCost(1).add(w.exprCost(cond)).add(w.stmtCost(post)).add(w.stmtCost(body))
	return w.stmtCost(init).add(bound.mul(iter))
}

func (w *fnWalker) rangeCost(x *ast.RangeStmt) Cost {
	bound := w.loopBound(x, nil, nil)
	iter := constCost(1).add(w.stmtCost(x.Body))
	return w.exprCost(x.X).add(bound.mul(iter))
}

// loopBound resolves a loop's worst-case trip count: an annotation first,
// then a syntactically constant count, else a diagnostic naming the loop.
func (w *fnWalker) loopBound(loop ast.Stmt, init ast.Stmt, cond ast.Expr) Cost {
	pos := w.p.Fset.Position(loop.Pos())
	if w.anns != nil {
		if a, ok := w.anns.boundedAt(pos.Line); ok {
			for _, s := range a.Cost.Symbols() {
				if !w.e.known[s] {
					key := fmt.Sprintf("sym:%s:%d:%s", pos.Filename, pos.Line, s)
					if !w.e.seen[key] {
						w.e.seen[key] = true
						w.e.diag(pos, "bounded cost uses undeclared symbol %s (declare it in the wfqlint symbol table)", s)
					}
				}
			}
			key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			w.entry.obls[key] = CertObligation{
				File: w.e.relFile(pos.Filename),
				Line: pos.Line,
				Func: w.fname,
				Cost: a.Cost.String(),
			}
			return a.Cost
		}
	}
	if n, ok := w.constTrips(loop, init, cond); ok {
		return constCost(n)
	}
	key := fmt.Sprintf("nobound:%s:%d", pos.Filename, pos.Line)
	if !w.e.seen[key] {
		w.e.seen[key] = true
		w.e.diag(pos, "loop on certified path has no machine-readable bound: annotate with //wfqlint:bounded(<cost>, <reason>)")
	}
	return constCost(1)
}

// constTrips extracts a constant trip count from loop syntax: a three-clause
// for whose init assigns a constant and whose condition compares against a
// constant, or a range over an array.
func (w *fnWalker) constTrips(loop ast.Stmt, init ast.Stmt, cond ast.Expr) (uint64, bool) {
	if r, ok := loop.(*ast.RangeStmt); ok {
		t := w.p.Info.TypeOf(r.X)
		if t == nil {
			return 0, false
		}
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if arr, ok := t.Underlying().(*types.Array); ok {
			return uint64(arr.Len()), true
		}
		return 0, false
	}
	as, ok := init.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return 0, false
	}
	lo, ok := w.constVal(as.Rhs[0])
	if !ok {
		return 0, false
	}
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return 0, false
	}
	hi, ok := w.constVal(be.Y)
	if !ok {
		// Constant on the left: hi op i.
		if hi, ok = w.constVal(be.X); !ok {
			return 0, false
		}
		lo, hi = hi, lo
	}
	var trips int64
	switch be.Op {
	case token.LSS, token.GTR:
		trips = hi - lo
	case token.LEQ, token.GEQ:
		trips = hi - lo + 1
	case token.NEQ:
		trips = hi - lo
	default:
		return 0, false
	}
	if trips < 0 {
		trips = -trips
	}
	return uint64(trips), true
}

// constVal evaluates an expression to an int64 through the type checker's
// constant folding (covers literals, named constants, and arithmetic).
func (w *fnWalker) constVal(e ast.Expr) (int64, bool) {
	tv, ok := w.p.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(tv.Value))
}

func (w *fnWalker) exprCost(e ast.Expr) Cost {
	if e == nil {
		return zeroCost()
	}
	c := zeroCost()
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// A literal's body runs when called, not where written; calls
			// through function values do not resolve statically and count
			// as the one step every opaque call gets.
			return false
		case *ast.CallExpr:
			if tv, ok := w.p.Info.Types[x.Fun]; ok && tv.IsType() {
				return true // conversion: free, cost the operand
			}
			fn := callee(w.p.Info, x)
			if fn == nil {
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
					if _, isBuiltin := w.p.Info.Uses[id].(*types.Builtin); isBuiltin {
						return true // len/cap/append: cost the operands
					}
				}
				c = c.add(constCost(1))
				return true
			}
			c = c.add(constCost(1))
			if _, ok := w.idxEntry(fn); ok {
				sub := w.e.fnCost(fn)
				c = c.add(sub.cost)
				for k, o := range sub.obls {
					w.entry.obls[k] = o
				}
			}
			return true
		}
		return true
	})
	return c
}

func (w *fnWalker) idxEntry(fn *types.Func) (*funcNode, bool) {
	node, ok := w.e.idx[fn]
	return node, ok
}

package analysis

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixtureConfig mirrors RepoConfig over the testdata fixture module. Every
// pass has at least one true positive and one suppressed case there, so
// these tests prove both directions: the pass fires on the defect and the
// sanctioned suppression actually applies.
func fixtureConfig() Config {
	return Config{
		Root:   filepath.Join("testdata", "src", "fixture"),
		Module: "fixture",
		Tiers: map[string]Tier{
			"fixture/atomics":  TierLockFree,
			"fixture/align":    TierLockFree,
			"fixture/layout":   TierLockFree,
			"fixture/annbad":   TierLockFree,
			"fixture/loops":    TierWaitFree,
			"fixture/coalesce": TierWaitFree,
			"fixture/hpool":    TierWaitFree,
			"fixture/ring":     TierWaitFree,
			"fixture/block":    TierWaitFree,
			"fixture/hot":      TierWaitFree,
			"fixture/pub":      TierWaitFree,
			"fixture/cert":     TierWaitFree,
		},
		Symbols: []SymbolDef{
			{Name: "T", Pkg: "fixture/cert", Const: "tries", Doc: "fixture retry cap"},
			{Name: "P", Value: 5, Param: true, Doc: "fixture batch-size model parameter"},
		},
		CertOps: map[string][]string{
			"fixture/cert": {"Op", "BadOp"},
		},
		HotPaths: map[string][]string{
			"fixture/block": {"Enqueue", "Dequeue", "Send", "Drain"},
		},
		EscapeHot: map[string][]string{
			"fixture/hot": {"Op", "Quiet"},
		},
		LayoutRules: []LayoutRule{
			{Pkg: "fixture/layout", Struct: "Bad", Gaps: []Gap{{From: "enqReq", To: "deqReq"}}},
			{Pkg: "fixture/layout", Struct: "Good", Gaps: []Gap{{From: "enqReq", To: "deqReq"}}},
		},
	}
}

var (
	fixtureOnce sync.Once
	fixtureRes  *Result
	fixtureErr  error
)

// fixtureResult runs the full suite over the fixture module once and shares
// the result across the per-pass tests.
func fixtureResult(t *testing.T) *Result {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureRes, fixtureErr = Run(fixtureConfig())
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureRes
}

// diagsIn filters a result by pass and (optionally) file basename suffix.
func diagsIn(res *Result, pass, file string) []Diagnostic {
	var out []Diagnostic
	for _, d := range res.Diags {
		if d.Pass == pass && (file == "" || strings.HasSuffix(d.Pos.Filename, file)) {
			out = append(out, d)
		}
	}
	return out
}

func TestFixtureAtomicPass(t *testing.T) {
	res := fixtureResult(t)
	ds := diagsIn(res, "atomic", "atomics.go")
	if len(ds) != 1 {
		t.Fatalf("want exactly 1 atomic diagnostic (Bad's plain increment; NewS and Allowed suppressed), got %d: %v", len(ds), ds)
	}
	if !strings.Contains(ds[0].Msg, "plain increment") || !strings.Contains(ds[0].Msg, "n") {
		t.Errorf("unexpected atomic diagnostic: %s", ds[0])
	}
}

func TestFixtureLoopsPass(t *testing.T) {
	res := fixtureResult(t)
	ds := diagsIn(res, "loops", "loops.go")
	if len(ds) != 1 {
		t.Fatalf("want exactly 1 loops diagnostic (Spin; Count/Walk bounded, Retry/Backoff annotated), got %d: %v", len(ds), ds)
	}
	var obls []Obligation
	for _, o := range res.Obligations {
		if strings.HasSuffix(o.Pos.Filename, "loops.go") {
			obls = append(obls, o)
		}
	}
	if len(obls) != 2 {
		t.Fatalf("want 2 loops obligations (Retry's unconditional loop, Backoff's cond-only pause loop), got %v", obls)
	}
	byFunc := map[string]Obligation{}
	for _, o := range obls {
		byFunc[o.Func] = o
	}
	if o, ok := byFunc["Retry"]; !ok || !strings.Contains(o.Reason, "done flips") {
		t.Errorf("want Retry's bounded annotation as an obligation, got %v", obls)
	}
	if o, ok := byFunc["Backoff"]; !ok || !strings.Contains(o.Reason, "constant-capped") {
		t.Errorf("want Backoff's cond-only loop annotation as an obligation, got %v", obls)
	}
}

// TestFixtureCoalesceLoops proves the audit handles the operation-coalescing
// flush-retry shape (DESIGN.md §8): the annotated drain discharges to an
// obligation, and the identical loop without its annotation is flagged.
func TestFixtureCoalesceLoops(t *testing.T) {
	res := fixtureResult(t)
	ds := diagsIn(res, "loops", "coalesce.go")
	if len(ds) != 1 {
		t.Fatalf("want exactly 1 loops diagnostic (BadDrain's unannotated flush retry; GoodDrain annotated), got %d: %v", len(ds), ds)
	}
	if !strings.Contains(ds[0].Msg, "BadDrain") && !strings.Contains(ds[0].Pos.Filename, "coalesce.go") {
		t.Errorf("unexpected coalesce diagnostic: %s", ds[0])
	}
	var obls []Obligation
	for _, o := range res.Obligations {
		if strings.HasSuffix(o.Pos.Filename, "coalesce.go") {
			obls = append(obls, o)
		}
	}
	if len(obls) != 1 || obls[0].Func != "(*B).GoodDrain" || !strings.Contains(obls[0].Reason, "flushes the pending buffer") {
		t.Errorf("want GoodDrain's flush-retry annotation as the one coalesce obligation, got %v", obls)
	}
}

// TestFixtureHandlePoolLoops proves the audit handles the lifecycle's
// generation-tagged free-list shape (DESIGN.md §6): the annotated tagged pop
// discharges to an obligation, and the identical push loop without its
// annotation is flagged.
func TestFixtureHandlePoolLoops(t *testing.T) {
	res := fixtureResult(t)
	ds := diagsIn(res, "loops", "hpool.go")
	if len(ds) != 1 {
		t.Fatalf("want exactly 1 loops diagnostic (BadPush's unannotated CAS retry; Pop annotated), got %d: %v", len(ds), ds)
	}
	if !strings.Contains(ds[0].Msg, "BadPush") && !strings.Contains(ds[0].Pos.Filename, "hpool.go") {
		t.Errorf("unexpected hpool diagnostic: %s", ds[0])
	}
	var obls []Obligation
	for _, o := range res.Obligations {
		if strings.HasSuffix(o.Pos.Filename, "hpool.go") {
			obls = append(obls, o)
		}
	}
	if len(obls) != 1 || obls[0].Func != "(*Pool).Pop" || !strings.Contains(obls[0].Reason, "CAS retry") {
		t.Errorf("want Pop's tagged-pop annotation as the one hpool obligation, got %v", obls)
	}
}

// TestFixtureRingLoops proves the audit handles the bounded SCQ ring shape
// (internal/scq, DESIGN.md §7): the annotated FAA-ticket retry discharges to
// an obligation, and the identical dequeue-side ticket loop without its
// annotation is flagged.
func TestFixtureRingLoops(t *testing.T) {
	res := fixtureResult(t)
	ds := diagsIn(res, "loops", "ring.go")
	if len(ds) != 1 {
		t.Fatalf("want exactly 1 loops diagnostic (BadTake's unannotated ticket loop; Put annotated), got %d: %v", len(ds), ds)
	}
	var obls []Obligation
	for _, o := range res.Obligations {
		if strings.HasSuffix(o.Pos.Filename, "ring.go") {
			obls = append(obls, o)
		}
	}
	if len(obls) != 1 || obls[0].Func != "(*R).Put" || !strings.Contains(obls[0].Reason, "ticket retry") {
		t.Errorf("want Put's ticket-retry annotation as the one ring obligation, got %v", obls)
	}
}

func TestFixtureBlockPass(t *testing.T) {
	res := fixtureResult(t)
	ds := diagsIn(res, "block", "block.go")
	if len(ds) != 3 {
		t.Fatalf("want 3 block diagnostics (Enqueue lock, Send send, Drain→slow lock; Dequeue suppressed), got %d: %v", len(ds), ds)
	}
	joined := ""
	for _, d := range ds {
		joined += d.Msg + "\n"
	}
	for _, want := range []string{
		"sync.Mutex.Lock reachable from hot path via block.(*Q).Enqueue",
		"channel send reachable from hot path via block.(*Q).Send",
		"block.(*Q).Drain → block.(*Q).slow",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing block diagnostic %q in:\n%s", want, joined)
		}
	}
}

func TestFixtureAlignmentPass(t *testing.T) {
	res := fixtureResult(t)
	ds := diagsIn(res, "padding", "align.go")
	// Bad.n is misaligned under both 32-bit loads (386 and arm); Good is
	// padded and Packed carries an allow(padding) suppression.
	if len(ds) != 2 {
		t.Fatalf("want 2 alignment diagnostics (Bad.n under 386 and arm), got %d: %v", len(ds), ds)
	}
	for _, d := range ds {
		if !strings.Contains(d.Msg, "Bad.n") || !strings.Contains(d.Msg, "not 8-aligned") {
			t.Errorf("unexpected alignment diagnostic: %s", d)
		}
		if strings.Contains(d.Msg, "Good") || strings.Contains(d.Msg, "Packed") {
			t.Errorf("suppressed/fixed struct flagged: %s", d)
		}
	}
}

func TestFixtureLayoutPass(t *testing.T) {
	res := fixtureResult(t)
	ds := diagsIn(res, "padding", "layout.go")
	// The PR 3 regression shape: enqReq and deqReq on one cache line.
	if len(ds) != 1 {
		t.Fatalf("want exactly 1 layout diagnostic (Bad's packed request blocks), got %d: %v", len(ds), ds)
	}
	d := ds[0]
	if !strings.Contains(d.Msg, "Bad") || !strings.Contains(d.Msg, "false sharing") {
		t.Errorf("unexpected layout diagnostic: %s", d)
	}
	if strings.Contains(d.Msg, "Good") {
		t.Errorf("well-padded struct flagged: %s", d)
	}
}

func TestFixtureAnnotationsPass(t *testing.T) {
	res := fixtureResult(t)
	ds := diagsIn(res, "annotations", "annbad.go")
	if len(ds) != 6 {
		t.Fatalf("want 6 annotation diagnostics (bare bounded, unknown verb, cost-less bounded, zero cost, dangling, near miss), got %d: %v", len(ds), ds)
	}
	wantSubstrings := []string{
		"malformed wfqlint annotation (unknown annotation form)", // //wfqlint:bounded
		"malformed wfqlint annotation (unknown annotation form)", // //wfqlint:frobnicate(x)
		"malformed wfqlint annotation (want bounded(<cost>, <reason>))",
		"malformed wfqlint annotation (cost must be positive)",
		"dangling wfqlint annotation",
		"not flush with //",
	}
	joined := ""
	for _, d := range ds {
		joined += d.Msg + "\n"
	}
	for _, want := range wantSubstrings {
		if !strings.Contains(joined, want) {
			t.Errorf("missing annotations diagnostic %q in:\n%s", want, joined)
		}
	}
}

// TestFixturePubOrder proves all three publication-order sub-checks: the
// late store after an atomic publish (plain Store and CAS success arm),
// the plain-store publish of a fresh object, and the unpaired atomic
// load — while the ordered writer, the failed-CAS re-init, the allow
// suppression, and the init-marked constructor stay clean.
func TestFixturePubOrder(t *testing.T) {
	res := fixtureResult(t)
	ds := diagsIn(res, "puborder", "pub.go")
	if len(ds) != 4 {
		t.Fatalf("want 4 puborder diagnostics (BadLate, BadCAS, BadPlainPublish, BadGhost), got %d: %v", len(ds), ds)
	}
	joined := ""
	for _, d := range ds {
		joined += d.Msg + "\n"
	}
	for _, want := range []string{
		"plain store to s.id after s was published by an atomic store",
		"freshly allocated s is published by a plain store to cache",
		"atomic load of field ghost pairs with no store",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing puborder diagnostic %q in:\n%s", want, joined)
		}
	}
	lines := map[int]bool{}
	for _, d := range ds {
		lines[d.Pos.Line] = true
	}
	for _, clean := range []int{24, 50, 59, 82} { // Good, GoodCASRetry, AllowedLate, wire
		if lines[clean] {
			t.Errorf("clean or suppressed site at pub.go:%d was flagged: %v", clean, ds)
		}
	}
}

// TestFixturePubFence proves the fence sub-check: a plain publish whose
// next shared access is a load (helpDeq's shape, and one arm of a branch)
// is flagged at the store, while a publish that reaches an FAA one call
// down and a constant clear stay clean.
func TestFixturePubFence(t *testing.T) {
	res := fixtureResult(t)
	ds := diagsIn(res, "puborder", "hazard.go")
	if len(ds) != 2 {
		t.Fatalf("want 2 fence diagnostics (HelpPublish, BranchPublish), got %d: %v", len(ds), ds)
	}
	for i, want := range []struct {
		line int
		next string
	}{{49, "atomic Load at hazard.go:50"}, {56, "atomic Load at hazard.go:60"}} {
		if ds[i].Pos.Line != want.line || !strings.Contains(ds[i].Msg, "plain store to hzdp is not ordered by a fence") ||
			!strings.Contains(ds[i].Msg, want.next) {
			t.Errorf("diagnostic %d: want plain hzdp store at hazard.go:%d with next access %q, got %s", i, want.line, want.next, ds[i])
		}
	}
}

// TestFixtureCert pins the certificate composition rule end to end: the
// constant-backed and parameter symbols resolve, Op's bound composes the
// annotated sweep, the constant-trip loop, and the callee's symbolic
// bound into a closed form, and BadOp's unannotated loop is a cert
// diagnostic at its exact position.
func TestFixtureCert(t *testing.T) {
	res := fixtureResult(t)
	if res.Cert == nil {
		t.Fatal("fixture config certifies fixture/cert but Result.Cert is nil")
	}
	syms := map[string]CertSymbol{}
	for _, s := range res.Cert.Symbols {
		syms[s.Name] = s
	}
	if s := syms["T"]; s.Value != 3 || s.Source != "cert.tries" || s.Param {
		t.Errorf("symbol T: want value 3 resolved from cert.tries, got %+v", s)
	}
	if s := syms["P"]; s.Value != 5 || !s.Param {
		t.Errorf("symbol P: want parameter with reference value 5, got %+v", s)
	}
	ops := map[string]CertOp{}
	for _, op := range res.Cert.Ops {
		ops[op.Op] = op
	}
	op, ok := ops["Op"]
	if !ok {
		t.Fatalf("certified operation Op missing: %v", res.Cert.Ops)
	}
	wantBound, err := parseCost("P + 4*T + 13")
	if err != nil {
		t.Fatal(err)
	}
	if op.Bound != wantBound.String() {
		t.Errorf("Op bound: want %q, got %q", wantBound.String(), op.Bound)
	}
	if op.Steps != 30 { // P=5, T=3: 5 + 12 + 13
		t.Errorf("Op steps at reference values: want 30, got %d", op.Steps)
	}
	if len(op.Assumes) != 1 || op.Assumes[0] != "P" {
		t.Errorf("Op assumes: want [P], got %v", op.Assumes)
	}
	if len(op.Obls) != 2 {
		t.Errorf("Op obligations: want the sweep and the retry annotation, got %v", op.Obls)
	}
	ds := diagsIn(res, "cert", "cert.go")
	if len(ds) != 1 || !strings.Contains(ds[0].Msg, "no machine-readable bound") {
		t.Fatalf("want exactly 1 cert diagnostic (BadOp's unannotated loop), got %v", ds)
	}
	if ds[0].Pos.Line != 27 {
		t.Errorf("cert diagnostic position: want cert.go:27, got %s", ds[0].Pos)
	}
}

// TestFixtureTotals pins the complete diagnostic census of the fixture
// module, so a pass that silently stops firing (or starts over-reporting)
// fails here even if its dedicated test above still passes.
func TestFixtureTotals(t *testing.T) {
	res := fixtureResult(t)
	want := map[string]int{
		"atomic":      1,
		"loops":       4, // Spin + hpool's BadPush + ring's BadTake + coalesce's BadDrain
		"block":       3,
		"padding":     3, // 2 alignment (386+arm) + 1 layout
		"annotations": 6, // annbad: bare, unknown verb, cost-less, zero cost, dangling, near miss
		"puborder":    6, // pub: BadLate, BadCAS, BadPlainPublish, BadGhost, HelpPublish, BranchPublish
		"cert":        1, // cert: BadOp's unannotated non-constant loop
	}
	got := map[string]int{}
	for _, d := range res.Diags {
		got[d.Pass]++
	}
	for pass, n := range want {
		if got[pass] != n {
			t.Errorf("pass %s: want %d diagnostics, got %d", pass, n, got[pass])
		}
	}
	for pass, n := range got {
		if want[pass] == 0 {
			t.Errorf("unexpected %s diagnostics (%d)", pass, n)
		}
	}
}

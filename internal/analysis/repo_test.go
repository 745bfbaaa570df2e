package analysis

import (
	"errors"
	"fmt"
	"go/build"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

var (
	repoOnce sync.Once
	repoCfg  Config
	repoRes  *Result
	repoErr  error
)

// repoResult runs the full suite over this repository once.
func repoResult(t *testing.T) (Config, *Result) {
	t.Helper()
	repoOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			repoErr = err
			return
		}
		repoCfg = RepoConfig(root)
		repoRes, repoErr = Run(repoCfg)
	})
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoCfg, repoRes
}

// TestRepoClean is the dogfood gate: the shipped tree produces zero
// diagnostics under every pass and every GOARCH the suite checks.
func TestRepoClean(t *testing.T) {
	_, res := repoResult(t)
	for _, d := range res.Diags {
		t.Errorf("%s", d)
	}
}

// TestRepoObligations pins the wait-freedom obligation list: the helping
// loops, the reclamation walks, and the handle pools' lock-free retries must
// each carry a bounded(reason) annotation, and nothing else in the wait-free
// packages may need one.
func TestRepoObligations(t *testing.T) {
	_, res := repoResult(t)
	want := map[string]int{
		"(*Queue).DequeueBatch":        1,
		"(*Queue).helpDeq":             2,
		"(*Queue).enqSlow":             1,
		"(*Queue).helpEnq":             2,
		"pause":                        1,
		"(*Queue).cleanup":             2,
		"verify":                       1,
		"(*Queue).freeSegments":        1,
		"advanceEndForLinearizability": 1,
		"DefaultLanes":                 1,
		// Handle lifecycle (DESIGN.md §6): the tagged free-list pops and
		// pushes behind Register/Release (core) and the shell pool
		// (sharded) are lock-free tagged-CAS retries, off every queue
		// operation's path. "(*Queue).Register" below counts core's pop
		// and scq's.
		"(*Queue).pushHandle": 1,
		"(*Queue).popShell":   1,
		"(*Queue).pushShell":  1,
		// The bounded SCQ ring (internal/scq, DESIGN.md §7): the ticket and
		// per-slot CAS retries of the ring primitive, the tail catchup, the
		// wCQ-style publish/help round loop, and the handle pool's tagged
		// pops and pushes ((*Queue).Register, counted with core's above, and
		// (*Handle).Release, whose core namesake has no loop of its own).
		// helpPeers' scan and dequeueSlow's donation spin are syntactically
		// bounded (range over the fixed handle array, constant-capped for)
		// and so never appear here.
		// Each ticket loop and the per-slot CAS retry of one ticket are
		// separate obligations: claimAt/visitAt run a ticket's slot protocol
		// and leave it with a plain return, so the ticket loops in
		// enqueue/dequeue read as "take a ticket, try its slot".
		"(*ring).enqueue":       1,
		"(*ring).claimAt":       1,
		"(*ring).dequeue":       1,
		"(*ring).visitAt":       1,
		"(*ring).catchup":       1,
		"(*Handle).dequeueSlow": 1,
		"(*Queue).Register":     2,
		"(*Handle).Release":     1,
		// Operation coalescing (DESIGN.md §8): the dequeue-side flush-retry
		// loop — at most two rounds, since the single flush empties the
		// producer buffer.
		"(*Queue).CoalescedDequeue": 1,
		// The exported spin primitive, clamped to ParkSpinMax (the PARK
		// symbol) on entry.
		"Pause": 1,
	}
	got := map[string]int{}
	for _, o := range res.Obligations {
		got[o.Func]++
		if strings.TrimSpace(o.Reason) == "" {
			t.Errorf("empty obligation reason at %s", o.Pos)
		}
	}
	for fn, n := range want {
		if got[fn] != n {
			t.Errorf("obligations for %s: want %d, got %d", fn, n, got[fn])
		}
	}
	for fn, n := range got {
		if want[fn] == 0 {
			t.Errorf("unexpected obligation in %s (%d) — update this census deliberately", fn, n)
		}
	}
}

// TestRepoBoundedAnnotationsLoadBearing strips every //wfqlint:bounded
// annotation from the wait-free packages in one overlay and asserts the
// suite then fails at exactly the positions the clean run discharged: each
// annotation is individually load-bearing (deleting any single one turns
// its obligation into a diagnostic at the same position).
func TestRepoBoundedAnnotationsLoadBearing(t *testing.T) {
	cfg, res := repoResult(t)
	overlay := map[string][]byte{}
	for _, rel := range []string{"internal/core", "internal/sharded", "internal/scq"} {
		dir := filepath.Join(cfg.Root, rel)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			full := filepath.Join(dir, e.Name())
			src, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(src), "//wfqlint:bounded(") {
				continue
			}
			// Same byte positions per line, so diagnostics land where the
			// obligations were.
			overlay[full] = []byte(strings.ReplaceAll(string(src), "//wfqlint:bounded(", "// was-bounded(("))
		}
	}
	if len(overlay) == 0 {
		t.Fatal("no files with bounded annotations found")
	}

	stripped, err := RunOverlay(cfg, overlay)
	if err != nil {
		t.Fatal(err)
	}
	wantAt := map[string]bool{}
	for _, o := range res.Obligations {
		wantAt[fmt.Sprintf("%s:%d", o.Pos.Filename, o.Pos.Line)] = true
	}
	gotAt := map[string]bool{}
	certDiags := 0
	for _, d := range stripped.Diags {
		switch d.Pass {
		case "loops":
			gotAt[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)] = true
		case "cert":
			// Stripping also de-certifies every annotated loop on a certified
			// path — including the syntactically bounded ones the loops pass
			// never needed an annotation for.
			certDiags++
		default:
			t.Errorf("unexpected diagnostic after stripping: %s", d)
		}
	}
	for at := range wantAt {
		if !gotAt[at] {
			t.Errorf("obligation at %s did not become a diagnostic when its annotation was stripped", at)
		}
	}
	for at := range gotAt {
		if !wantAt[at] {
			t.Errorf("stripping produced a loops diagnostic at %s with no matching obligation", at)
		}
	}
	if certDiags == 0 {
		t.Error("stripping every bounded annotation produced no cert diagnostics")
	}
	if len(stripped.Obligations) != 0 {
		t.Errorf("stripped run still discharged %d obligations", len(stripped.Obligations))
	}
}

// TestRepoCostExpressionsLoadBearing strips only the cost expression from
// every bounded annotation (reverting to the pre-certificate grammar) and
// asserts each annotation fails the parse at its own position: the costs
// are load-bearing, not decorative.
func TestRepoCostExpressionsLoadBearing(t *testing.T) {
	cfg, _ := repoResult(t)
	costRe := regexp.MustCompile(`//wfqlint:bounded\([^,]*, `)
	overlay := map[string][]byte{}
	wantAt := map[string]bool{}
	for _, rel := range []string{"internal/core", "internal/sharded", "internal/scq"} {
		dir := filepath.Join(cfg.Root, rel)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			full := filepath.Join(dir, e.Name())
			src, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			if !costRe.Match(src) {
				continue
			}
			for i, line := range strings.Split(string(src), "\n") {
				if costRe.MatchString(line) {
					wantAt[fmt.Sprintf("%s:%d", full, i+1)] = true
				}
			}
			overlay[full] = []byte(costRe.ReplaceAllString(string(src), "//wfqlint:bounded("))
		}
	}
	if len(overlay) == 0 {
		t.Fatal("no files with cost-carrying bounded annotations found")
	}

	stripped, err := RunOverlay(cfg, overlay)
	if err != nil {
		t.Fatal(err)
	}
	gotAt := map[string]bool{}
	for _, d := range stripped.Diags {
		if d.Pass != "annotations" {
			continue
		}
		if !strings.Contains(d.Msg, "malformed wfqlint annotation") {
			t.Errorf("unexpected annotations diagnostic after cost strip: %s", d)
			continue
		}
		gotAt[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)] = true
	}
	for at := range wantAt {
		if !gotAt[at] {
			t.Errorf("cost-stripped annotation at %s produced no malformed-annotation diagnostic", at)
		}
	}
	for at := range gotAt {
		if !wantAt[at] {
			t.Errorf("cost strip produced a malformed-annotation diagnostic at %s with no stripped site", at)
		}
	}
}

// TestRepoCertBaseline regenerates the certificate from the tree and holds
// it to the committed artifact byte for byte, then runs the comparison
// gate both ways: the clean diff is empty, and a doctored baseline (a
// shrunk step bound, a dropped assume) fails with the operation named.
func TestRepoCertBaseline(t *testing.T) {
	cfg, res := repoResult(t)
	if res.Cert == nil {
		t.Fatal("repo config certifies operations but Result.Cert is nil")
	}
	baselinePath := filepath.Join(cfg.Root, "artifacts", "wfqcert.json")
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatalf("committed certificate baseline missing (regenerate with make cert): %v", err)
	}
	base, err := ParseCertificate(data)
	if err != nil {
		t.Fatal(err)
	}
	if ds := CompareBaseline(res.Cert, base); len(ds) != 0 {
		for _, d := range ds {
			t.Errorf("%s", d)
		}
	}
	if got := string(res.Cert.JSON()); got != string(data) {
		t.Errorf("certificate drifted from committed baseline %s (regenerate with make cert)", baselinePath)
	}
	if len(res.Cert.Ops) == 0 || len(res.Cert.Symbols) == 0 {
		t.Fatalf("degenerate certificate: %d ops, %d symbols", len(res.Cert.Ops), len(res.Cert.Symbols))
	}

	// Doctor the baseline: shrink one op's steps and drop its assumes. The
	// gate must report the growth and the new assumption.
	doctored := *base
	doctored.Ops = append([]CertOp(nil), base.Ops...)
	victim := -1
	for i, op := range doctored.Ops {
		if len(op.Assumes) > 0 {
			victim = i
			break
		}
	}
	if victim == -1 {
		t.Fatal("no certified op with model assumptions to doctor")
	}
	doctored.Ops[victim].Steps = 0
	doctored.Ops[victim].Assumes = nil
	ds := CompareBaseline(res.Cert, &doctored)
	var growth, assume bool
	for _, d := range ds {
		if strings.Contains(d.Msg, "grew beyond baseline") {
			growth = true
		}
		if strings.Contains(d.Msg, "now assumes model parameter") {
			assume = true
		}
	}
	if !growth || !assume {
		t.Errorf("doctored baseline: want growth and new-assume diagnostics, got %v", ds)
	}
}

// TestRepoPaddingRegression re-introduces the false-sharing shape the
// padding pass exists to catch: deleting core.Handle's leading pad (the
// first pad in core.go) puts the owner's segment hints back on the struct
// header's cache line, and the suite must fail.
func TestRepoPaddingRegression(t *testing.T) {
	cfg, _ := repoResult(t)
	full := filepath.Join(cfg.Root, "internal", "core", "core.go")
	src, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	patched := strings.Replace(string(src), "pad.CacheLinePad", "[0]byte", 1)
	if patched == string(src) {
		t.Fatal("no pad.CacheLinePad occurrence found in core.go")
	}
	res, err := RunOverlay(cfg, map[string][]byte{full: []byte(patched)})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range res.Diags {
		if d.Pass == "padding" && strings.Contains(d.Msg, "Handle") {
			found = true
		}
	}
	if !found {
		t.Errorf("removing Handle's leading pad produced no padding diagnostic; got %v", res.Diags)
	}
}

// TestRepoSCQImporters keeps the SCQ ring deletable as one directory: no
// package of this module other than internal/scq may import it, whether
// from its sources, its in-package tests or its external tests. The
// wfqperf benchmark is a module of its own and is not walked.
func TestRepoSCQImporters(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	sawRing := false
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		pkg, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		if path.Join("wfqueue", filepath.ToSlash(rel)) == PkgSCQ {
			sawRing = true
			return nil
		}
		for _, imports := range [][]string{pkg.Imports, pkg.TestImports, pkg.XTestImports} {
			if slices.Contains(imports, PkgSCQ) {
				t.Errorf("%s imports %s; only internal/scq itself may", rel, PkgSCQ)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawRing {
		t.Errorf("walked %s without reaching %s", root, PkgSCQ)
	}
}

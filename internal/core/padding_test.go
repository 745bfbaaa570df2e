package core

import (
	"testing"

	"wfqueue/internal/analysis"
)

// The cache-line layout this package's performance rests on — T and H on
// private lines, the helper-CASed request words away from the owner-local
// fields — is declared once, in
// analysis.RepoLayoutRules, and proved by wfqlint's padding pass from
// go/types field offsets. This test is the package-local wrapper: it
// re-proves the rules for internal/core under every GOARCH the suite
// models, including the 32-bit alignment audit for the atomic 64-bit
// fields (the former hand-written unsafe.Offsetof assertions lived here).
func TestPadding(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	cfg := analysis.RepoConfig(root)
	for _, arch := range []string{"amd64", "386", "arm"} {
		diags, err := analysis.AuditLayout(cfg, analysis.PkgCore, arch)
		if err != nil {
			t.Fatalf("GOARCH=%s: %v", arch, err)
		}
		for _, d := range diags {
			t.Errorf("GOARCH=%s: %s", arch, d)
		}
	}
}

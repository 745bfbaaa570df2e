package sharded

import (
	"testing"

	"wfqueue/internal/analysis"
)

// The sharded layer's hot-word layout — lane descriptors on private lines,
// the registration words a line away from the descriptor fields, the
// handle's stats padded from neighboring allocations — is declared in analysis.RepoLayoutRules
// and proved by wfqlint's padding pass. This wrapper re-proves the rules
// for internal/sharded under every modeled GOARCH (the former hand-written
// unsafe.Offsetof assertions lived here).
func TestPadding(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	cfg := analysis.RepoConfig(root)
	for _, arch := range []string{"amd64", "386", "arm"} {
		diags, err := analysis.AuditLayout(cfg, analysis.PkgSharded, arch)
		if err != nil {
			t.Fatalf("GOARCH=%s: %v", arch, err)
		}
		for _, d := range diags {
			t.Errorf("GOARCH=%s: %s", arch, d)
		}
	}
}

package main

// CLI integration tests via the re-exec pattern: the test binary invokes
// itself with WFQBENCH_MAIN=1, which routes straight into main(), so every
// subcommand is exercised end-to-end (flag parsing, harness, formatting)
// with tiny workloads.

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("WFQBENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI invokes the test binary as if it were wfqbench.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WFQBENCH_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLIUsage(t *testing.T) {
	out, err := runCLI(t)
	if err == nil {
		t.Fatal("no subcommand should exit nonzero")
	}
	if !strings.Contains(out, "usage:") {
		t.Errorf("missing usage: %q", out)
	}
}

func TestCLIList(t *testing.T) {
	out, err := runCLI(t, "list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, q := range []string{"wf-10", "wf-0", "lcrq", "msqueue", "ccqueue", "kpqueue", "simqueue", "chan", "faa"} {
		if !strings.Contains(out, q) {
			t.Errorf("list missing %s:\n%s", q, out)
		}
	}
}

func TestCLILatency(t *testing.T) {
	out, err := runCLI(t, "latency", "-queues", "wf-10", "-threads", "2", "-nopin")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "latency distribution") || !strings.Contains(out, "wf-10") {
		t.Errorf("latency output malformed:\n%s", out)
	}
}

func TestCLIBadFlags(t *testing.T) {
	if out, err := runCLI(t, "latency", "-threads", "zero"); err == nil {
		t.Errorf("bad -threads should fail:\n%s", out)
	}
	if out, err := runCLI(t, "latency", "-threads", "1"); err == nil {
		t.Errorf("-threads 1 should fail:\n%s", out)
	}
	if out, err := runCLI(t, "nonsense"); err == nil {
		t.Errorf("unknown subcommand should fail:\n%s", out)
	}
	if out, err := runCLI(t, "latency", "-queues", "no-such", "-threads", "2", "-nopin"); err == nil {
		t.Errorf("unknown queue should fail:\n%s", out)
	}
}

package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("WFQSTRESS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WFQSTRESS_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestStressModeOK(t *testing.T) {
	out, err := runCLI(t, "-queue", "wf-10", "-threads", "4", "-duration", "300ms")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"produced", "consumed", "order violations: 0", "OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("stress output missing %q:\n%s", want, out)
		}
	}
}

func TestLincheckModeOK(t *testing.T) {
	out, err := runCLI(t, "-queue", "wf-0", "-mode", "lincheck", "-duration", "300ms")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "all linearizable") {
		t.Errorf("lincheck output malformed:\n%s", out)
	}
}

func TestRejectsMicrobenchmark(t *testing.T) {
	out, err := runCLI(t, "-queue", "faa", "-duration", "100ms")
	if err == nil {
		t.Fatalf("faa should be rejected:\n%s", out)
	}
}

func TestRejectsUnknownMode(t *testing.T) {
	if out, err := runCLI(t, "-mode", "bogus", "-duration", "100ms"); err == nil {
		t.Fatalf("bogus mode should fail:\n%s", out)
	}
}

func TestRejectsUnknownQueue(t *testing.T) {
	if out, err := runCLI(t, "-queue", "no-such", "-duration", "100ms"); err == nil {
		t.Fatalf("unknown queue should fail:\n%s", out)
	}
}

func TestStressModeBatched(t *testing.T) {
	for _, queue := range []string{"wf-10", "msqueue"} { // native + fallback
		out, err := runCLI(t, "-queue", queue, "-threads", "4", "-duration", "300ms", "-batch", "8")
		if err != nil {
			t.Fatalf("%s: %v\n%s", queue, err, out)
		}
		for _, want := range []string{"batch=8", "order violations: 0", "OK"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: batched stress output missing %q:\n%s", queue, want, out)
			}
		}
	}
}

func TestLincheckModeBatched(t *testing.T) {
	out, err := runCLI(t, "-queue", "wf-0", "-mode", "lincheck", "-duration", "300ms", "-batch", "3")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "batch=3") || !strings.Contains(out, "all linearizable") {
		t.Errorf("batched lincheck output malformed:\n%s", out)
	}
}

// -churn soaks Release/re-Register under load: full-FIFO queues keep their
// order checks across the lifecycle boundary, per-producer queues are
// demoted to loss/duplication accounting, and churn-incapable queues are
// rejected up front.
func TestStressChurn(t *testing.T) {
	out, err := runCLI(t, "-queue", "wf-10", "-threads", "4", "-duration", "300ms", "-churn")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"churn", "order violations: 0", "OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("churn stress output missing %q:\n%s", want, out)
		}
	}

	out, err = runCLI(t, "-queue", "wf-sharded", "-threads", "4", "-duration", "300ms", "-churn")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"demoting", "order unchecked", "OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("sharded churn stress output missing %q:\n%s", want, out)
		}
	}

	if out, err := runCLI(t, "-queue", "msqueue", "-duration", "100ms", "-churn"); err == nil {
		t.Fatalf("msqueue is not ChurnSafe; -churn should fail:\n%s", out)
	}
}

// -coalesce swaps in the operation-coalescing variant and tightens the audit
// to exact accounting: flush-on-idle producers publish every window, so the
// consumers plus the drain helper must recover every produced value exactly
// once, with per-producer FIFO intact.
func TestStressCoalesce(t *testing.T) {
	out, err := runCLI(t, "-queue", "wf-10", "-threads", "4", "-duration", "300ms", "-coalesce")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"wf-coalesce", "exact accounting", "exact recovery", "order violations: 0", "OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("coalesce stress output missing %q:\n%s", want, out)
		}
	}
}

func TestRejectsCoalesceMisuse(t *testing.T) {
	if out, err := runCLI(t, "-mode", "lincheck", "-coalesce", "-duration", "100ms"); err == nil {
		t.Fatalf("-coalesce outside stress mode should fail:\n%s", out)
	}
}

// A queue with no coalescing twin: -coalesce on msqueue is an error naming
// the one queue that has one, not a silent fallthrough.
func TestRejectsCoalesceBounded(t *testing.T) {
	out, err := runCLI(t, "-queue", "msqueue", "-coalesce", "-duration", "100ms")
	if err == nil {
		t.Fatalf("msqueue has no coalescing variant, should fail:\n%s", out)
	}
	if want := "msqueue has no operation-coalescing variant (have: wf-10)"; !strings.Contains(out, want) {
		t.Errorf("output missing %q:\n%s", want, out)
	}
}

func TestRejectsBadBatch(t *testing.T) {
	if out, err := runCLI(t, "-batch", "0", "-duration", "100ms"); err == nil {
		t.Fatalf("batch 0 should fail:\n%s", out)
	}
	if out, err := runCLI(t, "-mode", "lincheck", "-batch", "40", "-duration", "100ms"); err == nil {
		t.Fatalf("lincheck batch 40 should fail:\n%s", out)
	}
}

// Stall mode: the queue buffers whole phases and every drain balances.
func TestStallModeUnbounded(t *testing.T) {
	out, err := runCLI(t, "-queue", "wf-10", "-threads", "3", "-mode", "stall", "-duration", "300ms")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"order held across every stall", "OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("stall output missing %q:\n%s", want, out)
		}
	}
}

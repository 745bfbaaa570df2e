package main

// CLI integration tests via the re-exec pattern: the test binary invokes
// itself with WFQBENCH_MAIN=1, which routes straight into main(), so every
// subcommand is exercised end-to-end (flag parsing, harness, formatting)
// with tiny workloads.

import (
	"encoding/csv"
	"os"
	"os/exec"
	"path/filepath"
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

var quick = []string{"-ops", "20000", "-trials", "1", "-iters", "2", "-nowork", "-nopin"}

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
	out, err := runCLI(t, "table1", "-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, q := range []string{"wf-10", "wf-0", "lcrq", "msqueue", "ccqueue", "kpqueue", "simqueue", "chan", "faa"} {
		if !strings.Contains(out, q) {
			t.Errorf("list missing %s:\n%s", q, out)
		}
	}
}

func TestCLITable1(t *testing.T) {
	out, err := runCLI(t, "table1")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"Table 1", "Native FAA", "GOARCH"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestCLIFigure2WithPlotAndCSV(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "r.csv")
	args := append([]string{"figure2", "-bench", "pairs", "-queues", "wf-10,faa",
		"-threads", "1,2", "-plot", "-csv", csvPath}, quick...)
	out, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"Figure 2", "wf-10", "faa", "legend:", "threads"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure2 missing %q:\n%s", want, out)
		}
	}
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1 // checked below, with a better message
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatalf("csv does not parse: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("csv has %d rows, want a header and one row per thread count:\n%q", len(rows), rows)
	}
	header := rows[0]
	want := []string{"figure2", "enqueue-dequeue-pairs", "threads", "batch",
		"wf-10_excl", "wf-10_wall", "faa_excl", "faa_wall"}
	if strings.Join(header, ",") != strings.Join(want, ",") {
		t.Errorf("csv header = %q, want %q", header, want)
	}
	for i, row := range rows[1:] {
		if len(row) != len(header) {
			t.Errorf("csv row %d has %d fields, header has %d: %q", i+1, len(row), len(header), row)
		}
	}
}

func TestCLITable2(t *testing.T) {
	out, err := runCLI(t, append([]string{"table2"}, quick...)...)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"Table 2", "% slow enq", "% slow deq", "% empty deq"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q:\n%s", want, out)
		}
	}
}

func TestCLISingle(t *testing.T) {
	out, err := runCLI(t, append([]string{"single", "-bench", "pairs"}, quick...)...)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "wf-10 / lcrq") {
		t.Errorf("single missing headline ratio:\n%s", out)
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
	if out, err := runCLI(t, "figure2", "-threads", "zero"); err == nil {
		t.Errorf("bad -threads should fail:\n%s", out)
	}
	if out, err := runCLI(t, "figure2", "-bench", "nope"); err == nil {
		t.Errorf("bad -bench should fail:\n%s", out)
	}
	if out, err := runCLI(t, "nonsense"); err == nil {
		t.Errorf("unknown subcommand should fail:\n%s", out)
	}
	if out, err := runCLI(t, append([]string{"figure2", "-queues", "no-such"}, quick...)...); err == nil {
		t.Errorf("unknown queue should fail:\n%s", out)
	}
}

func TestCLIFigure2Batched(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "r.csv")
	args := append([]string{"figure2", "-bench", "pairs", "-queues", "wf-10,msqueue",
		"-threads", "2", "-batch", "8", "-csv", csv}, quick...)
	out, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// The report names the batched workload and the batch size; the CSV
	// rows carry batch as a column.
	for _, want := range []string{"enqueue-dequeue-pairs-batched", "batch=8"} {
		if !strings.Contains(out, want) {
			t.Errorf("batched figure2 missing %q:\n%s", want, out)
		}
	}
	b, err := os.ReadFile(csv)
	if err != nil || !strings.Contains(string(b), "figure2,enqueue-dequeue-pairs-batched,2,8,") {
		t.Errorf("batched csv row missing: %v %q", err, b)
	}
}

func TestCLIRejectsBadBatch(t *testing.T) {
	if out, err := runCLI(t, append([]string{"figure2", "-batch", "0"}, quick...)...); err == nil {
		t.Errorf("batch 0 should fail:\n%s", out)
	}
}

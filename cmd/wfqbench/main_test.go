package main

// CLI integration tests via the re-exec pattern: the test binary invokes
// itself with WFQBENCH_MAIN=1, which routes straight into main(), so every
// subcommand is exercised end-to-end (flag parsing, harness, formatting)
// with tiny workloads.

import (
	"encoding/json"
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
	return runCLIIn(t, "", args...)
}

// runCLIIn is runCLI with a working directory, for subcommands that read
// committed artifacts relative to the repository root.
func runCLIIn(t *testing.T, dir string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
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
	csv := filepath.Join(t.TempDir(), "r.csv")
	args := append([]string{"figure2", "-bench", "pairs", "-queues", "wf-10,faa",
		"-threads", "1,2", "-plot", "-csv", csv}, quick...)
	out, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"Figure 2", "wf-10", "faa", "legend:", "threads"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure2 missing %q:\n%s", want, out)
		}
	}
	b, err := os.ReadFile(csv)
	if err != nil || !strings.Contains(string(b), "figure2,enqueue-dequeue-pairs") {
		t.Errorf("csv not written correctly: %v %q", err, b)
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

func TestCLIJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_core.json")
	args := append([]string{"json", "-queues", "wf-10,wf-10-recycle",
		"-threads", "2", "-out", out}, quick...)
	stdout, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("baseline not written: %v", err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Core   struct {
			AllocsPerOp      float64 `json:"allocs_per_op"`
			RecycledSegments uint64  `json:"recycled_segments"`
		} `json:"core_steady_state"`
		Queues []struct {
			Name     string  `json:"name"`
			WallMops float64 `json:"wall_mops"`
		} `json:"queues"`
		Pairwise struct {
			Ratio float64 `json:"wf10_recycle_over_wf10_wall"`
		} `json:"pairwise"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("baseline is not valid JSON: %v\n%s", err, b)
	}
	if doc.Schema != "wfqueue/bench-core/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if doc.Core.AllocsPerOp != 0 {
		t.Errorf("core steady state allocated: %v allocs/op", doc.Core.AllocsPerOp)
	}
	if doc.Core.RecycledSegments == 0 {
		t.Error("core steady state recycled no segments; measurement is not exercising the pool")
	}
	names := map[string]bool{}
	for _, q := range doc.Queues {
		names[q.Name] = true
		if q.WallMops <= 0 {
			t.Errorf("%s: wall_mops = %v", q.Name, q.WallMops)
		}
	}
	if !names["wf-10"] || !names["wf-10-recycle"] {
		t.Errorf("pairwise pair missing from queues: %v", names)
	}
	if doc.Pairwise.Ratio <= 0 {
		t.Errorf("pairwise ratio = %v", doc.Pairwise.Ratio)
	}
}

// handles must write a schema-valid lifecycle baseline: zero-allocation
// lifecycle gates for both pool layers, churn throughput rows for the
// churn-safe queues (dropping churn-incapable selections instead of
// erroring).
func TestCLIHandles(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_handles.json")
	// lcrq is deliberately in the selection: it predates Release and must be
	// filtered out, not fail the run.
	args := append([]string{"handles", "-queues", "wf-10,lcrq",
		"-threads", "2", "-out", out}, quick...)
	stdout, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("baseline not written: %v", err)
	}
	var doc struct {
		Schema    string `json:"schema"`
		Lifecycle map[string]struct {
			Cycles         int     `json:"cycles"`
			AllocsPerCycle float64 `json:"allocs_per_cycle"`
		} `json:"lifecycle_steady_state"`
		Queues []struct {
			Name     string  `json:"name"`
			WallMops float64 `json:"wall_mops"`
		} `json:"queues"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("baseline is not valid JSON: %v\n%s", err, b)
	}
	if doc.Schema != "wfqueue/bench-handles/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	for _, layer := range []string{"core", "sharded"} {
		l, ok := doc.Lifecycle[layer]
		if !ok {
			t.Fatalf("lifecycle gate missing layer %q:\n%s", layer, b)
		}
		if l.AllocsPerCycle != 0 {
			t.Errorf("%s lifecycle allocated: %v allocs/cycle", layer, l.AllocsPerCycle)
		}
		if l.Cycles == 0 {
			t.Errorf("%s lifecycle measured zero cycles", layer)
		}
	}
	names := map[string]bool{}
	for _, q := range doc.Queues {
		names[q.Name] = true
		if q.WallMops <= 0 {
			t.Errorf("%s: wall_mops = %v", q.Name, q.WallMops)
		}
	}
	for _, want := range []string{"wf-10", "wf-sharded"} {
		if !names[want] {
			t.Errorf("queue rows missing %s: %v", want, names)
		}
	}
	if names["lcrq"] {
		t.Errorf("lcrq has no Release and must be filtered from the churn rows: %v", names)
	}
}

func TestCLIRejectsBadBatch(t *testing.T) {
	if out, err := runCLI(t, append([]string{"figure2", "-batch", "0"}, quick...)...); err == nil {
		t.Errorf("batch 0 should fail:\n%s", out)
	}
}

// coalesce must write a schema-valid operation-coalescing baseline: the
// per-window deterministic zero-allocation gates, a throughput row per
// window in {1,4,16,64} with its pairwise ratio over wf-10, and the shared
// wf-10 denominator. -tolerance 0.99 widens both ratio floors so the tiny
// smoke run cannot flap the gates; the allocation gates stay exact.
func TestCLICoalesce(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_coalesce.json")
	args := append([]string{"coalesce", "-threads", "2", "-tolerance", "0.99",
		"-out", out}, quick...)
	stdout, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("baseline not written: %v", err)
	}
	var doc struct {
		Schema       string  `json:"schema"`
		RunLength    int     `json:"run_length"`
		WF10WallMops float64 `json:"wf10_wall_mops"`
		Windows      []struct {
			Window            int     `json:"window"`
			Queue             string  `json:"queue"`
			SteadyAllocsPerOp float64 `json:"steady_allocs_per_op"`
			WallMops          float64 `json:"wall_mops"`
			OverWF10          float64 `json:"over_wf10_wall"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("baseline is not valid JSON: %v\n%s", err, b)
	}
	if doc.Schema != "wfqueue/bench-coalesce/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if doc.RunLength < 1 || doc.WF10WallMops <= 0 {
		t.Errorf("run_length %d / wf10_wall_mops %v malformed", doc.RunLength, doc.WF10WallMops)
	}
	windows := map[int]bool{}
	for _, w := range doc.Windows {
		windows[w.Window] = true
		if w.SteadyAllocsPerOp != 0 {
			t.Errorf("window %d: coalesced hot path allocated %v allocs/op at steady state", w.Window, w.SteadyAllocsPerOp)
		}
		if w.WallMops <= 0 || w.OverWF10 <= 0 {
			t.Errorf("window %d (%s): wall_mops %v over_wf10 %v", w.Window, w.Queue, w.WallMops, w.OverWF10)
		}
	}
	for _, want := range []int{1, 4, 16, 64} {
		if !windows[want] {
			t.Errorf("windows missing %d: %v", want, windows)
		}
	}

	// compare must recognize the coalesce schema and gate it. De-match the
	// platform so only the deterministic allocation gates are armed (tiny
	// single-trial ratios are a coin flip on a shared host).
	var full map[string]any
	if err := json.Unmarshal(b, &full); err != nil {
		t.Fatal(err)
	}
	full["platform"].(map[string]any)["gomaxprocs"] = 9999.0
	mod, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	modPath := filepath.Join(t.TempDir(), "BENCH_othermachine.json")
	if err := os.WriteFile(modPath, mod, 0o644); err != nil {
		t.Fatal(err)
	}
	cmpOut, err := runCLI(t, append([]string{"compare", "-baseline", modPath,
		"-tolerance", "0.99"}, quick...)...)
	if err != nil {
		t.Fatalf("compare failed: %v\n%s", err, cmpOut)
	}
	for _, want := range []string{"coalesce baseline", "informational", "compare: OK"} {
		if !strings.Contains(cmpOut, want) {
			t.Errorf("compare output missing %q:\n%s", want, cmpOut)
		}
	}
}

// topo must record a point at every sweep value on every curve: the curves
// once lost all their points to a pointer into a slice still being grown.
func TestCLITopo(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_topo.json")
	args := append([]string{"topo", "-threads", "1,2", "-tolerance", "0.99",
		"-out", out}, quick...)
	stdout, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("baseline not written: %v", err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Curves []struct {
			Queue  string `json:"queue"`
			Points []struct {
				Procs    int     `json:"procs"`
				WallMops float64 `json:"wall_mops"`
			} `json:"points"`
		} `json:"curves"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("baseline is not valid JSON: %v\n%s", err, b)
	}
	if doc.Schema != "wfqueue/bench-topo/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if len(doc.Curves) != len(topoQueues) {
		t.Fatalf("%d curves, want %d (%v)", len(doc.Curves), len(topoQueues), topoQueues)
	}
	for _, c := range doc.Curves {
		var procs []int
		for _, p := range c.Points {
			procs = append(procs, p.Procs)
			if p.WallMops <= 0 {
				t.Errorf("%s procs=%d: wall_mops = %v", c.Queue, p.Procs, p.WallMops)
			}
		}
		if len(procs) != 2 || procs[0] != 1 || procs[1] != 2 {
			t.Errorf("curve %s has points at procs %v, want [1 2]", c.Queue, procs)
		}
	}
}

// trajectory is a pure reader: it merges whatever committed baselines exist
// in the working directory into one schema-versioned document, skipping
// missing files and carrying the coalesce baseline's window tags through.
func TestCLITrajectory(t *testing.T) {
	dir := t.TempDir()
	core := `{"schema":"wfqueue/bench-core/v1","platform":{"model":"m","hw_threads":1,"gomaxprocs":1},
		"params":{"workload":"enqueue-dequeue-pairs","threads":2},
		"queues":[{"name":"wf-10","mops":1.5,"wall_mops":3.0,"allocs_per_op":0}]}`
	coal := `{"schema":"wfqueue/bench-coalesce/v1","platform":{"model":"m","hw_threads":1,"gomaxprocs":1},
		"params":{"workload":"run-grouped-pairs","threads":2},"run_length":16,"wf10_wall_mops":3.0,
		"windows":[{"window":16,"queue":"wf-coalesce","mops":2.0,"wall_mops":4.0,"allocs_per_op":0,"over_wf10_wall":1.33}]}`
	for name, body := range map[string]string{"BENCH_core.json": core, "BENCH_coalesce.json": coal} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stdout, err := runCLIIn(t, dir, "trajectory")
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	for _, want := range []string{"BENCH_sharded.json (PR 3) absent", "2 baselines merged"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("trajectory output missing %q:\n%s", want, stdout)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "BENCH_trajectory.json"))
	if err != nil {
		t.Fatalf("merged document not written: %v", err)
	}
	var doc struct {
		Schema  string `json:"schema"`
		Entries []struct {
			PR           int    `json:"pr"`
			Topic        string `json:"topic"`
			SourceSchema string `json:"source_schema"`
			Queues       []struct {
				Name     string  `json:"name"`
				Window   int     `json:"window"`
				WallMops float64 `json:"wall_mops"`
			} `json:"queues"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("merged document is not valid JSON: %v\n%s", err, b)
	}
	if doc.Schema != "wfqueue/bench-trajectory/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if len(doc.Entries) != 2 {
		t.Fatalf("merged %d entries, want 2:\n%s", len(doc.Entries), b)
	}
	if doc.Entries[0].PR != 2 || doc.Entries[0].Topic != "core" || doc.Entries[0].Queues[0].Name != "wf-10" {
		t.Errorf("core entry malformed: %+v", doc.Entries[0])
	}
	coalEntry := doc.Entries[1]
	if coalEntry.PR != 8 || len(coalEntry.Queues) != 1 ||
		coalEntry.Queues[0].Window != 16 || coalEntry.Queues[0].WallMops != 4.0 {
		t.Errorf("coalesce entry did not carry the window row through: %+v", coalEntry)
	}

	// An empty directory merges nothing and must fail loudly.
	if out, err := runCLIIn(t, t.TempDir(), "trajectory"); err == nil {
		t.Errorf("trajectory with no baselines should fail:\n%s", out)
	}
}

// scq must write a schema-valid bounded-ring baseline: the warm-ring
// zero-allocation gate, throughput rows for the bounded variants plus the
// wf-10 reference, the pairwise ratio, and stall rows where every bounded
// queue saw backpressure and stayed under its capacity-derived retention
// bound while wf-10's growth was recorded.
func TestCLISCQ(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_scq.json")
	args := append([]string{"scq", "-queues", "wf-10",
		"-threads", "2", "-out", out}, quick...)
	stdout, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("baseline not written: %v", err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Ring   struct {
			AllocsPerOp float64 `json:"allocs_per_op"`
			RingWraps   uint64  `json:"ring_wraps"`
		} `json:"scq_steady_state"`
		Queues []struct {
			Name     string  `json:"name"`
			WallMops float64 `json:"wall_mops"`
		} `json:"queues"`
		Pairwise struct {
			Ratio float64 `json:"wf_scq_over_wf10_wall"`
		} `json:"pairwise"`
		Stall []struct {
			Queue         string `json:"queue"`
			Bounded       bool   `json:"bounded"`
			Capacity      int    `json:"capacity"`
			Rejected      uint64 `json:"rejected"`
			RetainedBytes uint64 `json:"retained_bytes"`
			RetainedBound uint64 `json:"retained_bound"`
		} `json:"stall"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("baseline is not valid JSON: %v\n%s", err, b)
	}
	if doc.Schema != "wfqueue/bench-scq/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if doc.Ring.AllocsPerOp != 0 {
		t.Errorf("warm ring allocated: %v allocs/op", doc.Ring.AllocsPerOp)
	}
	if doc.Ring.RingWraps == 0 {
		t.Error("ring measurement crossed zero wraps; it proves nothing about slot recycling")
	}
	names := map[string]bool{}
	for _, q := range doc.Queues {
		names[q.Name] = true
		if q.WallMops <= 0 {
			t.Errorf("%s: wall_mops = %v", q.Name, q.WallMops)
		}
	}
	for _, want := range []string{"wf-scq", "wf-sharded-scq", "wf-10"} {
		if !names[want] {
			t.Errorf("queue rows missing %s: %v", want, names)
		}
	}
	if doc.Pairwise.Ratio <= 0 {
		t.Errorf("pairwise ratio = %v", doc.Pairwise.Ratio)
	}
	stalls := map[string]bool{}
	for _, s := range doc.Stall {
		stalls[s.Queue] = true
		if s.Bounded {
			if s.Capacity == 0 || s.Rejected == 0 {
				t.Errorf("bounded stall row %s saw no backpressure: %+v", s.Queue, s)
			}
			if s.RetainedBytes > s.RetainedBound {
				t.Errorf("%s retained %d > bound %d", s.Queue, s.RetainedBytes, s.RetainedBound)
			}
		} else if s.Queue == "wf-10" && s.RetainedBytes == 0 {
			t.Error("wf-10 stall row recorded no growth; the adversary is not buffering")
		}
	}
	for _, want := range []string{"wf-scq", "wf-sharded-scq", "wf-10"} {
		if !stalls[want] {
			t.Errorf("stall rows missing %s: %v", want, stalls)
		}
	}
}

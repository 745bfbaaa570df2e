// Command wfqbench regenerates the paper's evaluation (§5): Table 1
// (platform summary), Figure 2 (throughput vs. threads for WF-10, WF-0,
// FAA, CC-Queue, MS-Queue and LCRQ under both workloads), Table 2 (the
// breakdown of WF-0 execution paths, including oversubscribed thread
// counts) and the single-core §5.2 comparison.
//
// Usage:
//
//	wfqbench table1
//	wfqbench figure2 [-bench pairs|half|both] [flags]
//	wfqbench table2  [flags]
//	wfqbench single  [flags]
//	wfqbench latency [flags]
//	wfqbench all     [flags]
//
// The repository benchmark with its per-layer ladder is wfqperf
// (BENCHMARK.json); the zero-allocation and stall-retention gates are
// go tests beside the code they gate.
//
// Common flags:
//
//	-queues  comma-separated registry names (default: the paper's series)
//	-threads comma-separated thread counts (default: host sweep ×2 oversub)
//	-ops     operations per iteration (default 1e6; -paper uses 1e7)
//	-batch   values per batched operation; >1 drives the pairs workload
//	         through EnqueueBatch/DequeueBatch (one FAA reserves the batch
//	         on the wait-free queue; baselines use the single-op fallback)
//	-trials  trials per cell (default 3; -paper uses 10)
//	-iters   max iterations per trial (default 8; -paper uses 20)
//	-paper   use the paper's full parameters (slow!)
//	-nowork  drop the 50-100ns random inter-operation work
//	-nopin   do not pin workers to hardware threads
//	-csv     append rows as CSV to the given file
//	-list    list registered queue implementations and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"wfqueue/internal/bench"
	"wfqueue/internal/plot"
	"wfqueue/internal/qiface"
	"wfqueue/internal/registry"
	"wfqueue/internal/workload"
)

type options struct {
	plot    bool
	queues  []string
	threads []int
	ops     int
	batch   int
	trials  int
	iters   int
	paper   bool
	nowork  bool
	nopin   bool
	csvPath string
	benchKs []workload.Kind
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	queues := fs.String("queues", strings.Join(registry.FigureSeries, ","), "queue implementations to run")
	threads := fs.String("threads", "", "comma-separated thread counts (default: host sweep)")
	ops := fs.Int("ops", 1_000_000, "operations per iteration")
	batch := fs.Int("batch", 1, "values per batched operation; >1 drives the pairs workload through EnqueueBatch/DequeueBatch")
	trials := fs.Int("trials", 3, "trials per cell")
	iters := fs.Int("iters", 8, "max iterations per trial")
	paper := fs.Bool("paper", false, "use the paper's full parameters (10^7 ops, 10 trials, 20 iters)")
	nowork := fs.Bool("nowork", false, "no random work between operations")
	nopin := fs.Bool("nopin", false, "do not pin threads")
	csvPath := fs.String("csv", "", "append results as CSV to this file")
	benchSel := fs.String("bench", "both", "workload: pairs, half, or both")
	doPlot := fs.Bool("plot", false, "render figure2 as ASCII charts")
	list := fs.Bool("list", false, "list registered queues and exit")
	fs.Parse(os.Args[2:])

	if *list {
		listQueues()
		return
	}

	o := options{
		plot:    *doPlot,
		ops:     *ops,
		batch:   *batch,
		trials:  *trials,
		iters:   *iters,
		paper:   *paper,
		nowork:  *nowork,
		nopin:   *nopin,
		csvPath: *csvPath,
	}
	if *paper {
		o.ops = workload.DefaultOps
		o.trials = 10
		o.iters = 20
	}
	o.queues = strings.Split(*queues, ",")
	if *threads != "" {
		for _, s := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				fatalf("bad -threads value %q", s)
			}
			o.threads = append(o.threads, n)
		}
	} else {
		o.threads = bench.ThreadSweep(true)
	}
	switch *benchSel {
	case "pairs":
		o.benchKs = []workload.Kind{workload.Pairs}
	case "half":
		o.benchKs = []workload.Kind{workload.HalfHalf}
	case "both":
		o.benchKs = []workload.Kind{workload.Pairs, workload.HalfHalf}
	default:
		fatalf("bad -bench %q (pairs|half|both)", *benchSel)
	}
	if o.batch < 1 {
		fatalf("bad -batch %d (must be >= 1)", o.batch)
	}
	if o.batch > 1 {
		// Batching applies to the pairs workload: each round is one
		// EnqueueBatch of -batch values then one DequeueBatch.
		for i, k := range o.benchKs {
			if k == workload.Pairs {
				o.benchKs[i] = workload.PairsBatched
			}
		}
	}

	switch cmd {
	case "table1":
		runTable1()
	case "figure2":
		runFigure2(o)
	case "table2":
		runTable2(o)
	case "single":
		runSingle(o)
	case "latency":
		runLatency(o)
	case "all":
		runTable1()
		runFigure2(o)
		runTable2(o)
		runSingle(o)
		runLatency(o)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wfqbench {table1|figure2|table2|single|latency|all} [flags]  (see -h per subcommand)")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wfqbench: "+format+"\n", args...)
	os.Exit(1)
}

func listQueues() {
	fmt.Println("registered queue implementations:")
	for _, n := range qiface.Names() {
		f, _ := qiface.Lookup(n)
		wf := " "
		if f.WaitFree {
			wf = "W"
		}
		fmt.Printf("  %-14s %s %s\n", n, wf, f.Doc)
	}
}

func (o options) config(queue string, k workload.Kind, threads int) bench.Config {
	cfg := bench.DefaultConfig(queue, k, threads)
	cfg.Ops = o.ops
	cfg.Batch = o.batch
	cfg.Trials = o.trials
	cfg.Iters = o.iters
	if o.nowork {
		cfg.WorkMinNS, cfg.WorkMaxNS = 0, 0
	}
	if o.nopin {
		cfg.Pin = false
	}
	return cfg
}

func (o options) csv(line string) {
	if o.csvPath == "" {
		return
	}
	f, err := os.OpenFile(o.csvPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fatalf("csv: %v", err)
	}
	defer f.Close()
	fmt.Fprintln(f, line)
}

// --- Table 1 -------------------------------------------------------------

func runTable1() {
	p := bench.DetectPlatform()
	fmt.Println("## Table 1: experimental platform")
	fmt.Println()
	fmt.Println("Processor Model | Clock Speed | # of Processors | # of Cores | # of Threads | Native FAA")
	fmt.Println("--- | --- | --- | --- | --- | ---")
	fmt.Println(p.Table1Row())
	fmt.Printf("\n(GOOS=%s GOARCH=%s GOMAXPROCS=%d)\n\n", p.GOOS, p.GOARCH, runtime.GOMAXPROCS(0))
}

// --- Figure 2 ------------------------------------------------------------

func runFigure2(o options) {
	for _, k := range o.benchKs {
		fmt.Printf("## Figure 2: %s, batch=%d (%s)\n\n", k, o.batch, benchHost())
		header := append([]string{"threads"}, o.queues...)
		fmt.Println(strings.Join(header, " | "))
		fmt.Println(strings.Repeat("--- | ", len(header)-1) + "---")
		csvHeader := []string{"figure2", k.String(), "threads", "batch"}
		for _, qn := range o.queues {
			csvHeader = append(csvHeader, qn+"_excl", qn+"_wall")
		}
		o.csv(strings.Join(csvHeader, ","))
		series := make([]plot.Series, len(o.queues))
		for i, qn := range o.queues {
			series[i].Name = qn
		}
		for _, t := range o.threads {
			row := []string{strconv.Itoa(t)}
			csv := []string{"figure2", k.String(), strconv.Itoa(t), strconv.Itoa(o.batch)}
			for i, qn := range o.queues {
				res, err := bench.Run(o.config(qn, k, t))
				if err != nil {
					fatalf("%s T=%d: %v", qn, t, err)
				}
				// First number: paper-style work-excluded throughput;
				// "w" number: wall-clock (work included), the stabler
				// signal when the injected work dominates the wall time.
				row = append(row, fmt.Sprintf("%.2f ±%.2f (w %.2f)",
					res.Mops(), res.Interval.Half(), res.WallInterval.Mean))
				csv = append(csv, fmt.Sprintf("%.4f", res.Mops()),
					fmt.Sprintf("%.4f", res.WallInterval.Mean))
				series[i].X = append(series[i].X, t)
				series[i].Y = append(series[i].Y, res.WallInterval.Mean)
				series[i].E = append(series[i].E, res.WallInterval.Half())
			}
			fmt.Println(strings.Join(row, " | "))
			o.csv(strings.Join(csv, ","))
		}
		fmt.Println()
		if o.plot {
			fmt.Println(plot.Chart(
				fmt.Sprintf("Figure 2 (%s) — wall-clock throughput", k), series, 78, 16))
		}
	}
}

// --- latency (wait-freedom's practical payoff; extends the paper) ---------

func runLatency(o options) {
	fmt.Println("## Operation latency distribution (ns)")
	fmt.Println()
	fmt.Println("queue | threads | enq p50 | enq p99 | enq p99.9 | enq max | deq p50 | deq p99 | deq p99.9 | deq max")
	fmt.Println("--- | --- | --- | --- | --- | --- | --- | --- | --- | ---")
	threads := o.threads[len(o.threads)-1]
	for _, qn := range o.queues {
		if qn == "faa" {
			continue
		}
		cfg := bench.DefaultLatencyConfig(qn, threads)
		if o.nopin {
			cfg.Pin = false
		}
		res, err := bench.MeasureLatency(cfg)
		if err != nil {
			fatalf("latency %s: %v", qn, err)
		}
		e, d := res.EnqueueP, res.DequeueP
		fmt.Printf("%s | %d | %d | %d | %d | %d | %d | %d | %d | %d\n",
			qn, threads, e.P50, e.P99, e.P999, e.Max, d.P50, d.P99, d.P999, d.Max)
		o.csv(fmt.Sprintf("latency,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d",
			qn, threads, e.P50, e.P99, e.P999, e.Max, d.P50, d.P99, d.P999, d.Max))
	}
	fmt.Println()
}

// --- Table 2 -------------------------------------------------------------

func runTable2(o options) {
	n := runtime.NumCPU()
	threads := []int{n / 2, n, 2 * n, 4 * n} // paper: 36, 72, 144*, 288*
	if n == 1 {
		threads = []int{1, 2, 4, 8}
	}
	fmt.Printf("## Table 2: breakdown of execution paths of WF-0 (50%%-enqueues)\n")
	fmt.Println()
	fmt.Println("# of threads | " + joinInts(threads, " | "))
	fmt.Println(strings.Repeat("--- | ", len(threads)) + "---")
	rows := map[string][]string{"% slow enq": nil, "% slow deq": nil, "% empty deq": nil}
	for _, t := range threads {
		res, err := bench.Run(o.config("wf-0", workload.HalfHalf, t))
		if err != nil {
			fatalf("table2 T=%d: %v", t, err)
		}
		st := res.QueueStats
		enq := float64(st["enq_fast"] + st["enq_slow"])
		deq := float64(st["deq_fast"] + st["deq_slow"] + st["deq_empty"])
		pct := func(num uint64, den float64) string {
			if den == 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.3f", 100*float64(num)/den)
		}
		rows["% slow enq"] = append(rows["% slow enq"], pct(st["enq_slow"], enq))
		rows["% slow deq"] = append(rows["% slow deq"], pct(st["deq_slow"], deq))
		rows["% empty deq"] = append(rows["% empty deq"], pct(st["deq_empty"], deq))
		o.csv(fmt.Sprintf("table2,%d,%s,%s,%s", t,
			pct(st["enq_slow"], enq), pct(st["deq_slow"], deq), pct(st["deq_empty"], deq)))
	}
	for _, name := range []string{"% slow enq", "% slow deq", "% empty deq"} {
		fmt.Printf("%s | %s\n", name, strings.Join(rows[name], " | "))
	}
	fmt.Println()
}

// --- §5.2 single-thread comparison ----------------------------------------

func runSingle(o options) {
	fmt.Println("## §5.2 single-thread performance (WF-10 vs LCRQ vs CC-Queue)")
	fmt.Println()
	queues := []string{"wf-10", "lcrq", "ccqueue", "msqueue", "faa"}
	for _, k := range o.benchKs {
		fmt.Printf("%s, batch=%d (wall-clock Mops/s):\n", k, o.batch)
		type entry struct {
			name string
			mops float64
			half float64
		}
		var es []entry
		for _, qn := range queues {
			res, err := bench.Run(o.config(qn, k, 1))
			if err != nil {
				fatalf("single %s: %v", qn, err)
			}
			es = append(es, entry{qn, res.WallInterval.Mean, res.WallInterval.Half()})
			o.csv(fmt.Sprintf("single,%s,%s,%d,%.4f,%.4f", k, qn, o.batch, res.Mops(), res.WallInterval.Mean))
		}
		sort.Slice(es, func(i, j int) bool { return es[i].mops > es[j].mops })
		for _, e := range es {
			fmt.Printf("  %-10s %8.2f ±%.2f Mops/s\n", e.name, e.mops, e.half)
		}
		// The paper's headline ratio.
		var wf, lc float64
		for _, e := range es {
			if e.name == "wf-10" {
				wf = e.mops
			}
			if e.name == "lcrq" {
				lc = e.mops
			}
		}
		if lc > 0 {
			fmt.Printf("  wf-10 / lcrq = %.2fx (paper: ~1.65x pairs, ~1.35x 50%% on Haswell)\n", wf/lc)
		}
		fmt.Println()
	}
}

func benchHost() string {
	p := bench.DetectPlatform()
	return fmt.Sprintf("%s, %d hw threads", p.Model, p.Threads)
}

func joinInts(xs []int, sep string) string {
	ss := make([]string, len(xs))
	for i, x := range xs {
		ss[i] = strconv.Itoa(x)
	}
	return strings.Join(ss, sep)
}

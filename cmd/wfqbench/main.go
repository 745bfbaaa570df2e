// Command wfqbench measures per-operation latency tails, the practical
// payoff of wait-freedom (an extension of the paper's §5), and lists the
// registered queue implementations.
//
// Usage:
//
//	wfqbench latency [-queues q1,q2] [-threads n] [-nopin]
//	wfqbench list
//
// The paper's own tables (Table 1, Figure 2, Table 2 and the §5.2
// single-thread comparison) are `go test -bench` families in the root
// package (bench_test.go, indexed in DESIGN.md §10). The repository
// benchmark with its per-layer ladder is wfqperf (BENCHMARK.json).
//
// latency flags:
//
//	-queues  comma-separated registry names (default: the paper's series)
//	-threads workers, half producing and half consuming (default 2×NumCPU)
//	-nopin   do not pin workers to hardware threads
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"wfqueue/internal/bench"
	"wfqueue/internal/qiface"
	"wfqueue/internal/registry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "latency":
		fs := flag.NewFlagSet("latency", flag.ExitOnError)
		queues := fs.String("queues", strings.Join(registry.FigureSeries, ","), "queue implementations to run")
		threads := fs.Int("threads", 2*runtime.NumCPU(), "workers, half producing and half consuming")
		nopin := fs.Bool("nopin", false, "do not pin threads")
		fs.Parse(os.Args[2:])
		if *threads < 2 {
			fatalf("bad -threads %d (must be >= 2)", *threads)
		}
		runLatency(strings.Split(*queues, ","), *threads, !*nopin)
	case "list":
		listQueues()
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wfqbench {latency|list} [flags]  (see -h per subcommand)")
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

func runLatency(queues []string, threads int, pin bool) {
	fmt.Println("## Operation latency distribution (ns)")
	fmt.Println()
	fmt.Println("queue | threads | enq p50 | enq p99 | enq p99.9 | enq max | deq p50 | deq p99 | deq p99.9 | deq max")
	fmt.Println("--- | --- | --- | --- | --- | --- | --- | --- | --- | ---")
	for _, qn := range queues {
		if qn == "faa" {
			continue
		}
		cfg := bench.DefaultLatencyConfig(qn, threads)
		cfg.Pin = cfg.Pin && pin
		res, err := bench.MeasureLatency(cfg)
		if err != nil {
			fatalf("latency %s: %v", qn, err)
		}
		e, d := res.EnqueueP, res.DequeueP
		fmt.Printf("%s | %d | %d | %d | %d | %d | %d | %d | %d | %d\n",
			qn, threads, e.P50, e.P99, e.P999, e.Max, d.P50, d.P99, d.P999, d.Max)
	}
	fmt.Println()
}

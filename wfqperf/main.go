// Command wfqperf is the repository's benchmark: it drives the public
// façade (wfqueue.New, wfqueue.NewBounded) through one workload with two
// pinned workers, checks every value that comes out, and prints the
// end-to-end metrics; with --trace 1 it instead drives each layer of the
// stack through its own API and prints the per-layer metrics.
//
// Usage, from the repository root:
//
//	bash wfqperf/run.sh --workload pairs|half|handoff|bounded --seed N \
//	    --seconds S --trace 0|1 [--spans FILE]
//
// run.sh builds this package into .bench_build/ and runs it. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// The exit status is 0 when every value was delivered exactly once and in
// per-producer order, 1 when the check failed (after printing the result),
// and 2 when the run could not be made. See BENCHMARK.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"wfqueue/internal/affinity"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload *workload
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
}

func parse(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("wfqperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "length of the timed window (shared by the rungs when tracing)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", "", "where --trace 1 writes its spans (default .bench_build/spans-<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{workload: workloadByName(*name), seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case o.workload == nil:
		return o, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	case *trace != 0 && *trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	case !(o.seconds > 0 && o.seconds <= 600):
		return o, fmt.Errorf("--seconds must be in (0, 600], not %g", o.seconds)
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans-"+o.workload.name+".jsonl")
	}
	return o, nil
}

func workloadNames() []string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return names
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setups is how many times the end-to-end run sets its queue up; setup_s
// is their median.
const setups = 21

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parse(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "wfqperf:", err)
		return 2
	}
	fmt.Fprintf(stdout, "wfqperf: workload %s, seed %d, %g s, trace %v, GOMAXPROCS %d, %d workers pinned over CPUs %v\n",
		o.workload.name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), workers, affinity.CompactOrder())
	var res result
	if o.trace {
		res, err = traced(o, stdout)
	} else {
		res, err = endToEndRun(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "wfqperf:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "wfqperf:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func endToEndRun(o options, out io.Writer) (result, error) {
	r, err := runPhase(o.workload, o.workload.facade, o.seconds, false, setups, o.seed)
	if err != nil {
		return result{}, err
	}
	vals := endToEndValues(r)
	lat, soj, late := summarize(nsOf(r.latAll())), summarize(nsOf(r.soj)), summarize(nsOf(r.late))
	fmt.Fprintf(out, "rung %s: %d calls, %d value-moving ops, %d EMPTY dequeues, %d full rejections in the window\n",
		r.rung, r.calls, r.done, r.empty, r.full)
	fmt.Fprintf(out, "setup_s         %.6f s  (median of %d set-ups: %v)\n", vals["setup_s"], len(r.setups), fmtList(r.setups, "%.3g"))
	fmt.Fprintf(out, "throughput_mops %.4f Mops/s  (median of %d intervals: %v)\n", vals["throughput_mops"], len(r.rates), fmtList(r.rates, "%.3f"))
	fmt.Fprintf(out, "op_p50_ns       %.1f ns  (Enqueue %.1f ns, Dequeue %.1f ns; all calls %s)\n",
		vals["op_p50_ns"], p50(r.latEnq), p50(r.latDeq), fmtDist(lat, 1, "ns"))
	fmt.Fprintf(out, "handoff_p50_us  %.3f us  %s\n", vals["handoff_p50_us"], fmtDist(soj, 1e3, "us"))
	fmt.Fprintf(out, "diagnostics: %.5f allocs/op, %.2f B/op, %.4f MB live heap, %d GC cycles, GC CPU %.4f; generator lateness %s\n",
		div(float64(r.allocs), float64(r.done)), div(float64(r.bytes), float64(r.done)), r.retained/1e6, r.gcCycles, r.gcCPUFrac,
		fmtDist(late, 1e3, "us"))
	fmt.Fprintf(out, "check: %s\n", r.tally)
	return result{
		Correct:   r.tally.failed() == 0,
		Attempted: r.tally.sent,
		Failed:    r.tally.failed(),
		Metrics:   pick(endToEnd, vals),
	}, nil
}

// traced runs every rung for an equal share of the window, tracing on,
// plus the workload's façade once more with tracing off for the overhead.
func traced(o options, out io.Writer) (result, error) {
	share := o.seconds / float64(len(rungs)+1)
	phases := map[string]*phaseResult{}
	var order []*phaseResult
	var t tally
	for _, rg := range rungs {
		r, err := runPhase(o.workload, rg, share, true, 1, o.seed)
		if err != nil {
			return result{}, err
		}
		phases[rg.name] = r
		order = append(order, r)
		t.add(r.tally)
		fmt.Fprintf(out, "rung %-16s %8.3f Mops/s  enq p50 %6.0f ns  deq p50 %6.0f ns  handoff p50 %8.3f us  %s\n",
			rg.name, r.mops(), p50(r.latEnq), p50(r.latDeq), p50(r.soj)/1e3, r.tally)
	}
	untraced, err := runPhase(o.workload, o.workload.facade, share, false, 1, o.seed)
	if err != nil {
		return result{}, err
	}
	t.add(untraced.tally)
	vals := perLayerValues(phases, phases[o.workload.facade.name], untraced)
	if err := writeSpans(o.spans, o.workload.name, order); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "spans written to %s\n", o.spans)
	for _, d := range perLayer {
		fmt.Fprintf(out, "%-30s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
	return result{
		Correct:   t.failed() == 0,
		Attempted: t.sent,
		Failed:    t.failed(),
		Metrics:   pick(perLayer, vals),
	}, nil
}

func pick(defs []metricDef, vals map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.name] = metricValue{vals[d.name], d.unit}
	}
	return m
}

func fmtList(xs []float64, f string) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(s, " ") + "]"
}

func fmtDist(d dist, scale float64, unit string) string {
	if d.TailQ == 0 {
		return fmt.Sprintf("(n=%d, p50 %.3f %s, too few samples for a tail)", d.N, d.P50/scale, unit)
	}
	return fmt.Sprintf("(n=%d, p50 %.3f %s, p%g %.3f %s)", d.N, d.P50/scale, unit, d.TailQ*100, d.Tail/scale, unit)
}

// writeSpans writes every kept op sample as two spans, a workload.op parent
// and its <rung>.enqueue|dequeue child, one JSON object per line.
func writeSpans(path, workload string, phases []*phaseResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var id uint64
	for i, r := range phases {
		for _, s := range r.spans {
			trace := uint64(i)<<48 | s.trace
			child := r.rung + ".enqueue"
			if s.deq {
				child = r.rung + ".dequeue"
			}
			id += 2
			fmt.Fprintf(w, `{"trace_id":%d,"span_id":%d,"name":"workload.op","workload":%q,"start_ns":%d,"end_ns":%d,"parent":0}`+"\n",
				trace, id-1, workload, s.opStart, s.opEnd)
			fmt.Fprintf(w, `{"trace_id":%d,"span_id":%d,"name":%q,"workload":%q,"start_ns":%d,"end_ns":%d,"parent":%d}`+"\n",
				trace, id, child, workload, s.callStart, s.callEnd, id-1)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

// The topo subcommand: the topology-placement baseline (BENCH_topo.json).
// One document records, for a single run on a single host:
//
//   - the platform and whether the sweep is degenerate (one hardware
//     thread: every curve is a single point and there is no cross-domain
//     traffic for placement to save — recorded honestly, never
//     extrapolated),
//   - the deterministic zero-allocation gate over the topology surface
//     (placement tables, distance-ordered sweeps, the parking ladder; any
//     nonzero allocs/op exits 1),
//   - Figure-2-style throughput-vs-threads curves for wf-10, wf-sharded
//     and wf-sharded-topo over a GOMAXPROCS sweep (1, 2, 4, ... up to the
//     host's hardware threads): each point sets GOMAXPROCS to the thread
//     count so the scheduler's view of the machine shrinks with the sweep,
//     the configuration under which lane placement actually changes,
//   - pairwise ratios at the top of the sweep from interleaved best-of
//     rounds: wf-sharded-topo over wf-sharded (what topology awareness
//     buys over blind sharding) and over wf-10 (the lane-scaling headline
//     carried for continuity with BENCH_sharded.json).
//
// Gates: the allocation gate always; the topo-over-sharded pairwise floor
// (within -tolerance of blind sharding — topology placement must never tax
// the queue it guides) only on multi-core hosts, because on one hardware
// thread both variants collapse to the same single-lane schedule and the
// ratio measures scheduler noise, not placement.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"wfqueue/internal/bench"
	"wfqueue/internal/workload"
)

const topoSchema = "wfqueue/bench-topo/v1"

// topoQueues are the three curves of the sweep: the single-queue baseline,
// blind sharding, and topology-aware sharding.
var topoQueues = []string{"wf-10", "wf-sharded", "wf-sharded-topo"}

type topoDoc struct {
	Schema   string       `json:"schema"`
	Platform jsonPlatform `json:"platform"`
	Params   jsonParams   `json:"params"`
	// Degenerate marks a one-hardware-thread host: the curves are single
	// points and the pairwise ratios are informational, never gated.
	Degenerate bool `json:"degenerate"`
	// Steady is the deterministic zero-allocation measurement over the
	// topology hot path (bench.TopoSteadyStateAllocs).
	Steady jsonCore `json:"topo_steady_state"`
	// Queues holds the top-of-sweep measurement per curve in the common
	// trajectory row shape.
	Queues []jsonQueue `json:"queues"`
	// Curves are the full throughput-vs-threads sweeps.
	Curves []topoCurve `json:"curves"`
	// TopoOverSharded / TopoOverWF10 are interleaved best-of pairwise wall
	// ratios at the top of the sweep.
	TopoOverSharded float64 `json:"topo_over_sharded_wall"`
	TopoOverWF10    float64 `json:"topo_over_wf10_wall"`
	// PairProcs is the GOMAXPROCS/thread count the pairwise ratios ran at.
	PairProcs int `json:"pair_procs"`
}

type topoCurve struct {
	Queue  string      `json:"queue"`
	Points []topoPoint `json:"points"`
}

type topoPoint struct {
	Procs       int     `json:"procs"` // GOMAXPROCS == worker threads
	Mops        float64 `json:"mops"`
	WallMops    float64 `json:"wall_mops"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// topoSweep returns the GOMAXPROCS points: powers of two up to the host's
// hardware threads, plus the full count when it is not itself a power of
// two. On a one-thread host the sweep is the single degenerate point.
func topoSweep() []int {
	n := runtime.NumCPU()
	var pts []int
	for p := 1; p <= n; p *= 2 {
		pts = append(pts, p)
	}
	if last := pts[len(pts)-1]; last != n {
		pts = append(pts, n)
	}
	return pts
}

func runTopo(o options, tolerance float64) {
	sweep := topoSweep()
	if o.threadsSet {
		sweep = o.threads
	}
	top := sweep[len(sweep)-1]

	doc := topoDoc{Schema: topoSchema, Degenerate: runtime.NumCPU() == 1, PairProcs: top}
	p := bench.DetectPlatform()
	doc.Platform = jsonPlatform{
		Model:      p.Model,
		HWThreads:  p.Threads,
		GOOS:       p.GOOS,
		GOARCH:     p.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	doc.Params = jsonParams{
		Workload: workload.Pairs.String(),
		Threads:  top,
		Ops:      o.ops,
		Trials:   o.trials,
		Iters:    o.iters,
	}

	var failures []string

	// The deterministic allocation gate first: cheap, exact, host-independent
	// (fake topology inside).
	const steadyOps = 200_000
	st := bench.TopoSteadyStateAllocs(steadyOps)
	doc.Steady = jsonCore{Ops: st.Ops, AllocsPerOp: st.AllocsPerOp, BytesPerOp: st.BytesPerOp}
	fmt.Printf("topo: steady state %.6f allocs/op over %d ops (placement + sweeps + parking)\n",
		st.AllocsPerOp, st.Ops)
	if st.AllocsPerOp > 0 {
		failures = append(failures, fmt.Sprintf(
			"topology hot path allocated %.6f objects/op at steady state, want 0, at:\n%s",
			st.AllocsPerOp, st.AllocSites()))
	}

	// The curves: per sweep point, GOMAXPROCS is pinned to the point for
	// every queue's run, then restored. doc.Curves is sized once, so the
	// points go into its final backing array.
	prev := runtime.GOMAXPROCS(0)
	doc.Curves = make([]topoCurve, len(topoQueues))
	for i, qn := range topoQueues {
		doc.Curves[i].Queue = qn
	}
	for _, procs := range sweep {
		runtime.GOMAXPROCS(procs)
		for i, qn := range topoQueues {
			res, err := bench.Run(o.config(qn, workload.Pairs, procs))
			if err != nil {
				runtime.GOMAXPROCS(prev)
				fatalf("topo %s procs=%d: %v", qn, procs, err)
			}
			doc.Curves[i].Points = append(doc.Curves[i].Points, topoPoint{
				Procs:       procs,
				Mops:        res.Mops(),
				WallMops:    res.WallInterval.Mean,
				AllocsPerOp: res.AllocsPerOp,
			})
			fmt.Printf("topo: procs=%2d %-16s %8.2f wall Mops/s  %.6f allocs/op\n",
				procs, qn, res.WallInterval.Mean, res.AllocsPerOp)
		}
	}

	// Pairwise at the top of the sweep: interleaved best-of rounds (see
	// pairwiseRounds) so machine-load drift, which only ever slows a round,
	// cancels out of the ratio.
	runtime.GOMAXPROCS(top)
	best := map[string]float64{}
	bestRes := map[string]bench.Result{}
	for r := 0; r < pairwiseRounds; r++ {
		for _, qn := range topoQueues {
			res, err := bench.Run(o.config(qn, workload.Pairs, top))
			if err != nil {
				runtime.GOMAXPROCS(prev)
				fatalf("topo pairwise %s: %v", qn, err)
			}
			if res.WallInterval.Mean > best[qn] {
				best[qn] = res.WallInterval.Mean
				bestRes[qn] = res
			}
		}
	}
	runtime.GOMAXPROCS(prev)
	for _, qn := range topoQueues {
		res := bestRes[qn]
		doc.Queues = append(doc.Queues, jsonQueue{
			Name:        qn,
			Mops:        res.Mops(),
			MopsCIHalf:  res.Interval.Half(),
			WallMops:    best[qn],
			AllocsPerOp: res.AllocsPerOp,
			BytesPerOp:  res.BytesPerOp,
			GCPauseNS:   res.GCPauseNS,
			GCCycles:    res.GCCycles,
		})
	}
	if best["wf-sharded"] > 0 {
		doc.TopoOverSharded = best["wf-sharded-topo"] / best["wf-sharded"]
	}
	if best["wf-10"] > 0 {
		doc.TopoOverWF10 = best["wf-sharded-topo"] / best["wf-10"]
	}
	fmt.Printf("topo: pairwise at procs=%d: topo/sharded %.2fx, topo/wf-10 %.2fx%s\n",
		top, doc.TopoOverSharded, doc.TopoOverWF10,
		map[bool]string{true: " (degenerate 1-thread host: informational)", false: ""}[doc.Degenerate])

	// Throughput gate only on multi-core hosts: with one hardware thread
	// both sharded variants run the same single-lane schedule and the ratio
	// is scheduler noise.
	if !doc.Degenerate && doc.TopoOverSharded > 0 && doc.TopoOverSharded < 1-tolerance {
		failures = append(failures, fmt.Sprintf(
			"wf-sharded-topo runs %.2fx wf-sharded at procs=%d, below the %.2f floor (topology placement taxes the sharded queue)",
			doc.TopoOverSharded, top, 1-tolerance))
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("topo: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(o.outPath, buf, 0o644); err != nil {
		fatalf("topo: %v", err)
	}
	fmt.Printf("topo: wrote %s (%d curve points per queue, degenerate=%v)\n",
		o.outPath, len(sweep), doc.Degenerate)

	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "wfqbench topo: GATE FAILED: %s\n", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

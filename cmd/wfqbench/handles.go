package main

// The handles subcommand: the handle-lifecycle perf baseline
// (BENCH_handles.json). One document records, for a single run on a single
// host:
//
//   - the platform,
//   - the exact allocation gates: AcquireHandle/Release on the core pool and
//     Register/Release on the sharded pool must both be allocation-free
//     (DESIGN.md §6) — any nonzero allocs/cycle exits 1,
//   - handle-churn throughput (workload.Churn: register → pairs → release
//     cycles) for every selected churn-safe queue.
//
// Like the json subcommand, absolute Mops/s across runs are trajectory, not
// gates; the gates here are the deterministic allocation counts.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"

	"wfqueue/internal/bench"
	"wfqueue/internal/qiface"
	"wfqueue/internal/workload"
)

const handlesSchema = "wfqueue/bench-handles/v1"

type handlesDoc struct {
	Schema   string       `json:"schema"`
	Platform jsonPlatform `json:"platform"`
	Params   jsonParams   `json:"params"`
	// Lifecycle holds the deterministic allocation measurements the gate
	// keys on, by layer ("core", "sharded").
	Lifecycle map[string]handlesLifecycle `json:"lifecycle_steady_state"`
	Queues    []jsonQueue                 `json:"queues"`
}

type handlesLifecycle struct {
	Cycles         int     `json:"cycles"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	BytesPerCycle  float64 `json:"bytes_per_cycle"`
}

// handlesQueueSet returns the churn-capable subset of the selection with
// wf-10 and wf-sharded always included. Queues without the churn contract are
// dropped (the default -queues set carries the paper's baselines, which
// predate Release) rather than erroring, so `wfqbench handles` composes with
// the same flags as every other subcommand.
func handlesQueueSet(selected []string) []string {
	var qs []string
	for _, qn := range selected {
		if f, err := qiface.Lookup(qn); err == nil && f.ChurnSafe {
			qs = append(qs, qn)
		}
	}
	for _, need := range []string{"wf-10", "wf-sharded"} {
		if !slices.Contains(qs, need) {
			qs = append(qs, need)
		}
	}
	return qs
}

func runHandles(o options) {
	threads := runtime.NumCPU()
	if threads > 4 {
		threads = 4
	}
	if o.threadsSet {
		threads = o.threads[0]
	}

	// Exact gates first: cheap and deterministic.
	const cycles = 100_000
	coreChurn := bench.CoreChurnAllocs(cycles)
	shardedChurn := bench.ShardedChurnAllocs(cycles)
	doc := handlesDoc{
		Schema: handlesSchema,
		Lifecycle: map[string]handlesLifecycle{
			"core": {
				Cycles:         coreChurn.Cycles,
				AllocsPerCycle: coreChurn.AllocsPerCycle,
				BytesPerCycle:  coreChurn.BytesPerCycle,
			},
			"sharded": {
				Cycles:         shardedChurn.Cycles,
				AllocsPerCycle: shardedChurn.AllocsPerCycle,
				BytesPerCycle:  shardedChurn.BytesPerCycle,
			},
		},
	}
	p := bench.DetectPlatform()
	doc.Platform = jsonPlatform{
		Model:      p.Model,
		HWThreads:  p.Threads,
		GOOS:       p.GOOS,
		GOARCH:     p.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	doc.Params = jsonParams{
		Workload: workload.Churn.String(),
		Threads:  threads,
		Ops:      o.ops,
		Trials:   o.trials,
		Iters:    o.iters,
	}

	for _, qn := range handlesQueueSet(o.queues) {
		res, err := bench.Run(o.config(qn, workload.Churn, threads))
		if err != nil {
			fatalf("handles %s: %v", qn, err)
		}
		row := jsonQueue{
			Name:        qn,
			Mops:        res.Mops(),
			MopsCIHalf:  res.Interval.Half(),
			WallMops:    res.WallInterval.Mean,
			AllocsPerOp: res.AllocsPerOp,
			BytesPerOp:  res.BytesPerOp,
			GCPauseNS:   res.GCPauseNS,
			GCCycles:    res.GCCycles,
		}
		doc.Queues = append(doc.Queues, row)
		fmt.Printf("handles: %-16s %8.2f Mops/s churn (wall %.2f)  %.4f allocs/op\n",
			qn, row.Mops, row.WallMops, row.AllocsPerOp)
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("handles: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(o.outPath, buf, 0o644); err != nil {
		fatalf("handles: %v", err)
	}
	fmt.Printf("handles: wrote %s (core %.4f allocs/cycle, sharded %.4f allocs/cycle)\n",
		o.outPath, coreChurn.AllocsPerCycle, shardedChurn.AllocsPerCycle)

	if coreChurn.AllocsPerCycle > 0 {
		fatalf("core AcquireHandle/Release allocated %.4f objects/cycle, want 0 (gate failed), at:\n%s",
			coreChurn.AllocsPerCycle, coreChurn.AllocSites())
	}
	if shardedChurn.AllocsPerCycle > 0 {
		fatalf("sharded Register/Release allocated %.4f objects/cycle, want 0 (gate failed), at:\n%s",
			shardedChurn.AllocsPerCycle, shardedChurn.AllocSites())
	}
}

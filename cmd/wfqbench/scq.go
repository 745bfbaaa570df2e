package main

// The scq subcommand: the bounded-ring perf baseline (BENCH_scq.json). One
// document records, for a single run on a single host:
//
//   - the platform,
//   - the exact zero-allocation gate: TryEnqueue/Dequeue on a warm SCQ ring
//     must allocate nothing across hundreds of ring wraps (any nonzero
//     allocs/op exits 1),
//   - pairs throughput for the bounded variants next to wf-10,
//   - the pairwise wf-scq / wf-10 wall ratio from interleaved best-of
//     rounds — the bounded fast path must stay within -tolerance of the
//     unbounded queue it shadows (a drop past the floor exits 1),
//   - the stalled-consumer adversary (workload.StalledConsumer) for each
//     bounded variant and for wf-10: bounded rows must retain no more than
//     a capacity-derived byte bound while the consumer is parked (the
//     flat-RSS gate — exceeding the bound exits 1); the wf-10 row records
//     the linear growth the bound is protecting against, informationally.
//
// Like the other emitters, absolute Mops/s across runs are trajectory, not
// gates; the gates here are the deterministic allocation count, the same-run
// pairwise ratio, and the capacity-derived retention bound.

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

const scqSchema = "wfqueue/bench-scq/v1"

type scqDoc struct {
	Schema   string       `json:"schema"`
	Platform jsonPlatform `json:"platform"`
	Params   jsonParams   `json:"params"`
	// Ring holds the deterministic zero-allocation measurement the gate
	// keys on (bench.SCQSteadyStateAllocs).
	Ring     scqRing       `json:"scq_steady_state"`
	Queues   []jsonQueue   `json:"queues"`
	Pairwise scqPairwise   `json:"pairwise"`
	Stall    []scqStallRow `json:"stall"`
}

type scqRing struct {
	Ops         int     `json:"ops"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	RingWraps   uint64  `json:"ring_wraps"`
}

type scqPairwise struct {
	// SCQOverWF10 is wf-scq's pairs wall throughput over wf-10's, best-of-R
	// with the sides interleaved (see pairwiseRounds for why): the cost of
	// bounded indirection against the unbounded queue under identical
	// conditions.
	SCQOverWF10  float64 `json:"wf_scq_over_wf10_wall"`
	SCQWallMops  float64 `json:"wf_scq_wall_mops"`
	WF10WallMops float64 `json:"wf10_wall_mops"`
	Threads      int     `json:"threads"`
}

type scqStallRow struct {
	Queue     string `json:"queue"`
	Bounded   bool   `json:"bounded"`
	Capacity  int    `json:"capacity,omitempty"`
	Producers int    `json:"producers"`
	StallOps  int    `json:"stall_ops"`
	Accepted  uint64 `json:"accepted"`
	Rejected  uint64 `json:"rejected"`
	// RetainedBytes is the GC-settled live-heap growth across the stall;
	// RetainedBound is the capacity-derived ceiling gated for bounded rows
	// (absent on unbounded rows, whose growth is the recorded trajectory).
	RetainedBytes uint64 `json:"retained_bytes"`
	RetainedBound uint64 `json:"retained_bound,omitempty"`
	// Informational RSS snapshots (0 when /proc is unavailable): the Go
	// runtime does not promptly return freed pages, so these are context
	// for the gated live-heap numbers, not gates themselves.
	BaselineRSS uint64 `json:"baseline_rss_bytes,omitempty"`
	StalledRSS  uint64 `json:"stalled_rss_bytes,omitempty"`
}

// scqRetainedBound is the flat-retention ceiling for a bounded queue of the
// given capacity: a generous per-slot byte budget (boxed values, ring
// metadata, accounting) plus a fixed slack for GC jitter. A bounded queue
// that honors its capacity sits far below this; an unbounded queue under
// the default stall blows through it by an order of magnitude.
func scqRetainedBound(capacity int) uint64 {
	return uint64(capacity)*64 + 1<<20
}

// scqQueueSet returns the selection restricted to what this baseline is
// about — every registered Bounded queue plus the wf-10 reference — so the
// subcommand composes with -queues without dragging the full paper series
// through the stall adversary.
func scqQueueSet(selected []string) []string {
	var qs []string
	for _, qn := range selected {
		if f, err := qiface.Lookup(qn); err == nil && f.Bounded {
			qs = append(qs, qn)
		}
	}
	for _, need := range []string{"wf-scq", "wf-sharded-scq", "wf-10"} {
		if !slices.Contains(qs, need) {
			qs = append(qs, need)
		}
	}
	return qs
}

func runSCQ(o options, tolerance float64) {
	threads := runtime.NumCPU()
	if threads > 4 {
		threads = 4
	}
	if o.threadsSet {
		threads = o.threads[0]
	}

	// The exact gate first: cheap and deterministic.
	const ringOps = 200_000
	ring := bench.SCQSteadyStateAllocs(ringOps)
	doc := scqDoc{
		Schema: scqSchema,
		Ring: scqRing{
			Ops:         ring.Ops,
			AllocsPerOp: ring.AllocsPerOp,
			BytesPerOp:  ring.BytesPerOp,
			RingWraps:   ring.Recycled,
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
		Workload: workload.Pairs.String(),
		Threads:  threads,
		Ops:      o.ops,
		Trials:   o.trials,
		Iters:    o.iters,
	}

	queues := scqQueueSet(o.queues)
	for _, qn := range queues {
		res, err := bench.Run(o.config(qn, workload.Pairs, threads))
		if err != nil {
			fatalf("scq %s: %v", qn, err)
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
		fmt.Printf("scq: %-16s %8.2f Mops/s pairs (wall %.2f)  %.4f allocs/op\n",
			qn, row.Mops, row.WallMops, row.AllocsPerOp)
	}

	// Pairwise: interleaved best-of rounds — machine-load drift only slows
	// rounds down, so the best round per side under interleaving is the
	// fairest same-run comparison (see pairwiseRounds).
	var scqWall, wf10Wall float64
	for r := 0; r < pairwiseRounds; r++ {
		sq, err := bench.Run(o.config("wf-scq", workload.Pairs, threads))
		if err != nil {
			fatalf("scq pairwise wf-scq: %v", err)
		}
		base, err := bench.Run(o.config("wf-10", workload.Pairs, threads))
		if err != nil {
			fatalf("scq pairwise wf-10: %v", err)
		}
		scqWall = max(scqWall, sq.WallInterval.Mean)
		wf10Wall = max(wf10Wall, base.WallInterval.Mean)
	}
	doc.Pairwise = scqPairwise{
		SCQWallMops:  scqWall,
		WF10WallMops: wf10Wall,
		Threads:      threads,
	}
	if wf10Wall > 0 {
		doc.Pairwise.SCQOverWF10 = scqWall / wf10Wall
	}

	// The stalled-consumer adversary: the bounded-memory half of the claim.
	var failures []string
	for _, qn := range queues {
		sres, err := bench.RunStall(bench.DefaultStallConfig(qn))
		if err != nil {
			fatalf("scq stall %s: %v", qn, err)
		}
		row := scqStallRow{
			Queue:         qn,
			Bounded:       sres.Bounded,
			Capacity:      sres.Capacity,
			Producers:     sres.Config.Producers,
			StallOps:      sres.Config.StallOps,
			Accepted:      sres.Accepted,
			Rejected:      sres.Rejected,
			RetainedBytes: sres.RetainedBytes,
			BaselineRSS:   sres.BaselineRSS,
			StalledRSS:    sres.StalledRSS,
		}
		note := "growth recorded (unbounded)"
		if sres.Bounded {
			row.RetainedBound = scqRetainedBound(sres.Capacity)
			note = fmt.Sprintf("bound %d B", row.RetainedBound)
			if row.RetainedBytes > row.RetainedBound {
				failures = append(failures, fmt.Sprintf(
					"%s: stall retained %d bytes, above the capacity-derived bound %d (flat-retention gate failed)",
					qn, row.RetainedBytes, row.RetainedBound))
			}
			if row.Rejected == 0 {
				failures = append(failures, fmt.Sprintf(
					"%s: the stall never saw backpressure; the adversary did not test the bound", qn))
			}
		}
		doc.Stall = append(doc.Stall, row)
		fmt.Printf("scq stall: %-16s accepted %7d  rejected %7d  retained %9d B  (%s)\n",
			qn, row.Accepted, row.Rejected, row.RetainedBytes, note)
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("scq: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(o.outPath, buf, 0o644); err != nil {
		fatalf("scq: %v", err)
	}
	fmt.Printf("scq: wrote %s (ring %.4f allocs/op over %d ops, %d wraps; wf-scq/wf-10 = %.2fx at T=%d)\n",
		o.outPath, ring.AllocsPerOp, ring.Ops, ring.Recycled, doc.Pairwise.SCQOverWF10, threads)

	if ring.AllocsPerOp > 0 {
		failures = append(failures, fmt.Sprintf(
			"warm SCQ ring allocated %.4f objects/op at steady state, want 0, at:\n%s",
			ring.AllocsPerOp, ring.AllocSites()))
	}
	if doc.Pairwise.SCQOverWF10 < 1-tolerance {
		failures = append(failures, fmt.Sprintf(
			"wf-scq pairs throughput is %.2fx wf-10, below the %.2f floor",
			doc.Pairwise.SCQOverWF10, 1-tolerance))
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "wfqbench scq: GATE FAILED: %s\n", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

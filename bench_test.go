// Benchmarks regenerating the paper's evaluation artifacts with testing.B,
// one benchmark family per table/figure (see DESIGN.md §10 for the index):
//
//	BenchmarkFigure2Pairs       Figure 2, enqueue-dequeue pairs rows
//	BenchmarkFigure2Half        Figure 2, 50%-enqueues rows
//	BenchmarkTable2Breakdown    Table 2 (WF-0 path percentages as metrics)
//	BenchmarkSingleThread       §5.2 single-thread comparison
//	BenchmarkTable1Platform     Table 1 (platform detection; prints once)
//	BenchmarkAblation*          design-choice ablations called out in DESIGN.md
//
// These benches run the raw operation loops without the 50–100 ns random
// work and without the COV/CI machinery — `go test -bench` supplies its own
// measurement discipline. The full §5.1 methodology (work injection, steady
// state detection, confidence intervals, pinning) lives in cmd/wfqbench,
// which regenerates the tables exactly as the paper reports them.
package wfqueue_test

import (
	"fmt"
	"sync"
	"testing"

	"wfqueue"
	"wfqueue/internal/bench"
	"wfqueue/internal/qiface"
	"wfqueue/internal/registry"
	"wfqueue/internal/workload"
)

// benchThreads is the goroutine sweep used by the Figure 2 benches. On the
// paper's machines this would be the hardware-thread sweep; on small hosts
// the larger counts exercise oversubscription.
var benchThreads = []int{1, 2, 4, 8}

// runQueueBench drives b.N operations of workload k through nthreads
// goroutines on a fresh instance of the named queue.
func runQueueBench(b *testing.B, name string, k workload.Kind, nthreads int) {
	b.Helper()
	f, err := qiface.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	q, err := f.New(nthreads)
	if err != nil {
		b.Fatal(err)
	}
	workers := make([]qiface.Ops, nthreads)
	for w := range workers {
		ops, err := q.Register()
		if err != nil {
			b.Fatal(err)
		}
		workers[w] = ops
	}
	plans := workload.Split(k, b.N, nthreads, 0x5EED)

	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < nthreads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops := workers[w]
			rng := workload.NewRNG(plans[w].Seed)
			switch k {
			case workload.Pairs:
				for i := 0; i < plans[w].Ops/2; i++ {
					ops.Enqueue(uint64(i) + 1)
					ops.Dequeue()
				}
			case workload.HalfHalf:
				for i := 0; i < plans[w].Ops; i++ {
					if rng.Bool() {
						ops.Enqueue(uint64(i) + 1)
					} else {
						ops.Dequeue()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkFigure2Pairs regenerates the Figure 2 enqueue-dequeue-pairs
// series (WF-10, WF-0, FAA, CC-Queue, MS-Queue, LCRQ) over the thread
// sweep.
func BenchmarkFigure2Pairs(b *testing.B) {
	for _, qn := range registry.FigureSeries {
		for _, t := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", qn, t), func(b *testing.B) {
				runQueueBench(b, qn, workload.Pairs, t)
			})
		}
	}
}

// BenchmarkFigure2Half regenerates the Figure 2 50%-enqueues series.
func BenchmarkFigure2Half(b *testing.B) {
	for _, qn := range registry.FigureSeries {
		for _, t := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", qn, t), func(b *testing.B) {
				runQueueBench(b, qn, workload.HalfHalf, t)
			})
		}
	}
}

// BenchmarkTable2Breakdown reruns WF-0 under the 50%-enqueues workload at
// the Table 2 thread counts (half, full, 2× and 4× the hardware threads)
// and reports the slow-path and EMPTY percentages as benchmark metrics.
func BenchmarkTable2Breakdown(b *testing.B) {
	for _, t := range benchThreads {
		b.Run(fmt.Sprintf("wf-0/threads=%d", t), func(b *testing.B) {
			f, err := qiface.Lookup("wf-0")
			if err != nil {
				b.Fatal(err)
			}
			q, err := f.New(t)
			if err != nil {
				b.Fatal(err)
			}
			workers := make([]qiface.Ops, t)
			for w := range workers {
				workers[w], err = q.Register()
				if err != nil {
					b.Fatal(err)
				}
			}
			plans := workload.Split(workload.HalfHalf, b.N, t, 7)
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < t; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := workload.NewRNG(plans[w].Seed)
					for i := 0; i < plans[w].Ops; i++ {
						if rng.Bool() {
							workers[w].Enqueue(uint64(i) + 1)
						} else {
							workers[w].Dequeue()
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			st := q.(qiface.StatsProvider).Stats()
			enq := float64(st["enq_fast"] + st["enq_slow"])
			deq := float64(st["deq_fast"] + st["deq_slow"] + st["deq_empty"])
			if enq > 0 {
				b.ReportMetric(100*float64(st["enq_slow"])/enq, "%slow-enq")
			}
			if deq > 0 {
				b.ReportMetric(100*float64(st["deq_slow"])/deq, "%slow-deq")
				b.ReportMetric(100*float64(st["deq_empty"])/deq, "%empty-deq")
			}
		})
	}
}

// BenchmarkSingleThread regenerates the §5.2 single-thread comparison
// (WF-10 vs LCRQ vs CC-Queue vs MS-Queue vs raw FAA).
func BenchmarkSingleThread(b *testing.B) {
	for _, qn := range []string{"wf-10", "lcrq", "ccqueue", "msqueue", "kpqueue", "faa"} {
		b.Run(qn+"/pairs", func(b *testing.B) {
			runQueueBench(b, qn, workload.Pairs, 1)
		})
	}
}

// BenchmarkTable1Platform measures platform detection and, more usefully,
// prints the Table 1 row once.
func BenchmarkTable1Platform(b *testing.B) {
	b.ReportAllocs()
	var row string
	for i := 0; i < b.N; i++ {
		row = bench.DetectPlatform().Table1Row()
	}
	b.StopTimer()
	b.Logf("Table 1: %s", row)
}

// --- ablation benches (design choices called out in DESIGN.md) -----------

// BenchmarkAblationPatience sweeps PATIENCE, the fast-path/slow-path
// trade-off of §3.2 (WF-0 vs WF-10 up to the cap of 16).
func BenchmarkAblationPatience(b *testing.B) {
	for _, p := range []int{0, 1, 2, 10, 16} {
		b.Run(fmt.Sprintf("patience=%d", p), func(b *testing.B) {
			q := wfqueue.New[int](4, wfqueue.WithPatience(p))
			benchFacadePairs(b, q, 4)
		})
	}
}

// BenchmarkAblationSegmentSize sweeps the segment size N of §3.3.
func BenchmarkAblationSegmentSize(b *testing.B) {
	for _, s := range []uint{6, 10, 14} {
		b.Run(fmt.Sprintf("shift=%d", s), func(b *testing.B) {
			q := wfqueue.New[int](4, wfqueue.WithSegmentShift(s))
			benchFacadePairs(b, q, 4)
		})
	}
}

// BenchmarkShardedLanes compares the sharded queue (one lane, and its
// default lane per CPU) against the single-queue wf-10 under the pairs
// workload (EXPERIMENTS.md sharded section): on a many-core host the
// multi-lane queue should pull away from wf-10 as threads grow; on one
// hardware thread the series stay within noise of each other.
func BenchmarkShardedLanes(b *testing.B) {
	for _, qn := range []string{"wf-10", "wf-sharded-1", "wf-sharded"} {
		for _, t := range benchThreads {
			b.Run(fmt.Sprintf("%s/T=%d", qn, t), func(b *testing.B) {
				runQueueBench(b, qn, workload.Pairs, t)
			})
		}
	}
}

// BenchmarkAblationReclamation compares hazard-pointer reclamation against
// GC-only reclamation for the two baselines the paper instrumented.
func BenchmarkAblationReclamation(b *testing.B) {
	for _, qn := range []string{"msqueue", "msqueue-gc", "lcrq", "lcrq-gc"} {
		b.Run(qn, func(b *testing.B) {
			runQueueBench(b, qn, workload.Pairs, 2)
		})
	}
}

// BenchmarkFacadeBoxing measures the public generic API (which boxes every
// value) against the raw uint64 adapters used above.
func BenchmarkFacadeBoxing(b *testing.B) {
	q := wfqueue.New[int](1)
	benchFacadePairs(b, q, 1)
}

func benchFacadePairs(b *testing.B, q *wfqueue.Queue[int], nthreads int) {
	b.Helper()
	handles := make([]*wfqueue.Handle[int], nthreads)
	for i := range handles {
		h, err := q.Register()
		if err != nil {
			b.Fatal(err)
		}
		handles[i] = h
	}
	per := b.N / (2 * nthreads)
	if per < 1 {
		per = 1
	}
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < nthreads; w++ {
		wg.Add(1)
		go func(h *wfqueue.Handle[int]) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Enqueue(i)
				h.Dequeue()
			}
		}(handles[w])
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(2*per*nthreads)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkAblationMaxGarbage sweeps the reclamation threshold of §3.6:
// small values reclaim eagerly (more cleanup scans), large values batch
// reclamation (more retained memory).
func BenchmarkAblationMaxGarbage(b *testing.B) {
	for _, g := range []int64{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("maxGarbage=%d", g), func(b *testing.B) {
			q := wfqueue.New[int](4, wfqueue.WithMaxGarbage(g), wfqueue.WithSegmentShift(6))
			benchFacadePairs(b, q, 4)
		})
	}
}

// --- batched-operation benches -------------------------------------------

// batchSizes is the batch sweep for the Batch* families; 1 is included as
// the baseline that must stay within noise of the single-op path.
var batchSizes = []int{1, 4, 16, 64}

// runQueueBenchBatched drives b.N values of PairsBatched through nthreads
// goroutines: each round is one EnqueueBatch of `batch` values followed by
// one DequeueBatch of the same size.
func runQueueBenchBatched(b *testing.B, name string, nthreads, batch int) {
	b.Helper()
	f, err := qiface.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	q, err := f.New(nthreads)
	if err != nil {
		b.Fatal(err)
	}
	workers := make([]qiface.Ops, nthreads)
	for w := range workers {
		ops, err := q.Register()
		if err != nil {
			b.Fatal(err)
		}
		workers[w] = qiface.WithBatchFallback(ops)
	}
	plans := workload.Split(workload.PairsBatched, b.N, nthreads, 0x5EED)

	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < nthreads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops := workers[w]
			vs := make([]uint64, batch)
			dst := make([]uint64, batch)
			for i := 0; i < plans[w].Ops/(2*batch); i++ {
				for j := range vs {
					vs[j] = uint64(i*batch+j) + 1
				}
				ops.EnqueueBatch(vs)
				ops.DequeueBatch(dst)
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkBatchPairs sweeps batch size over the wait-free queue (native
// single-FAA reservations) and two fallback-adapter baselines, at 1 and 4
// threads. batch=1 is the degenerate case and must stay within noise of
// BenchmarkFigure2Pairs' single-op loop.
func BenchmarkBatchPairs(b *testing.B) {
	for _, qn := range []string{"wf-10", "wf-0", "lcrq", "msqueue"} {
		for _, t := range []int{1, 4} {
			for _, k := range batchSizes {
				b.Run(fmt.Sprintf("%s/threads=%d/batch=%d", qn, t, k), func(b *testing.B) {
					runQueueBenchBatched(b, qn, t, k)
				})
			}
		}
	}
}

// BenchmarkBatchFacade measures the public generic batched API, whose
// boxing cycles through recycled boxes (zero steady-state allocations).
func BenchmarkBatchFacade(b *testing.B) {
	for _, k := range batchSizes {
		b.Run(fmt.Sprintf("batch=%d", k), func(b *testing.B) {
			q := wfqueue.New[int](1)
			h, err := q.Register()
			if err != nil {
				b.Fatal(err)
			}
			defer h.Release()
			vs := make([]int, k)
			dst := make([]int, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N/(2*k); i++ {
				for j := range vs {
					vs[j] = i*k + j
				}
				h.EnqueueBatch(vs)
				h.DequeueBatch(dst)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
		})
	}
}

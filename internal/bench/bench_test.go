package bench

import (
	"runtime"
	"strings"
	"testing"

	_ "wfqueue/internal/registry" // register all queue implementations
	"wfqueue/internal/workload"
)

// smallConfig is a fast configuration for tests: tiny op counts, few trials.
func smallConfig(queue string, k workload.Kind, threads int) Config {
	cfg := DefaultConfig(queue, k, threads)
	cfg.Ops = 20000
	cfg.Trials = 2
	cfg.Iters = 3
	cfg.WorkMinNS = 0
	cfg.WorkMaxNS = 0
	cfg.Pin = false
	return cfg
}

func TestRunPairsAllCoreQueues(t *testing.T) {
	for _, q := range []string{"wf-10", "wf-0", "lcrq", "msqueue", "ccqueue", "faa"} {
		res, err := Run(smallConfig(q, workload.Pairs, 2))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.Mops() <= 0 {
			t.Errorf("%s: nonpositive throughput %v", q, res.Mops())
		}
		if len(res.TrialMops) != 2 {
			t.Errorf("%s: %d trials, want 2", q, len(res.TrialMops))
		}
		if res.Enqueues == 0 || res.Dequeues == 0 {
			t.Errorf("%s: op accounting empty: %+v", q, res)
		}
	}
}

func TestRunHalfHalf(t *testing.T) {
	res, err := Run(smallConfig("wf-10", workload.HalfHalf, 2))
	if err != nil {
		t.Fatal(err)
	}
	// 50% split: enqueues and dequeues within a loose band.
	total := res.Enqueues + res.Dequeues
	if total == 0 {
		t.Fatal("no operations recorded")
	}
	ratio := float64(res.Enqueues) / float64(total)
	if ratio < 0.40 || ratio > 0.60 {
		t.Errorf("enqueue ratio = %.2f, want ~0.5", ratio)
	}
}

func TestQueueStatsExposed(t *testing.T) {
	res, err := Run(smallConfig("wf-0", workload.HalfHalf, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueStats == nil {
		t.Fatal("wf-0 must expose queue stats for Table 2")
	}
	if res.QueueStats["enq_fast"]+res.QueueStats["enq_slow"] == 0 {
		t.Error("stats recorded no enqueues")
	}
}

func TestRunBadConfig(t *testing.T) {
	if _, err := Run(Config{Queue: "wf-10", Threads: 0, Ops: 100}); err == nil {
		t.Error("Threads=0 should fail")
	}
	if _, err := Run(smallConfigBadQueue()); err == nil {
		t.Error("unknown queue should fail")
	}
}

func smallConfigBadQueue() Config {
	cfg := smallConfig("wf-10", workload.Pairs, 1)
	cfg.Queue = "no-such-queue"
	return cfg
}

func TestRunWithWorkAndPinning(t *testing.T) {
	cfg := smallConfig("wf-10", workload.Pairs, 2)
	cfg.WorkMinNS = 50
	cfg.WorkMaxNS = 100
	cfg.Pin = true
	cfg.Ops = 4000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mops() <= 0 {
		t.Errorf("throughput %v", res.Mops())
	}
}

func TestThreadSweep(t *testing.T) {
	ts := ThreadSweep(true)
	n := runtime.NumCPU()
	if ts[0] != 1 {
		t.Errorf("sweep should start at 1, got %v", ts)
	}
	if ts[len(ts)-1] != 2*n {
		t.Errorf("oversubscribed sweep should end at 2×NumCPU, got %v", ts)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Errorf("sweep not increasing: %v", ts)
		}
	}
	ts2 := ThreadSweep(false)
	if ts2[len(ts2)-1] != n {
		t.Errorf("plain sweep should end at NumCPU, got %v", ts2)
	}
}

func TestDetectPlatform(t *testing.T) {
	p := DetectPlatform()
	if p.Threads != runtime.NumCPU() {
		t.Errorf("threads = %d, want %d", p.Threads, runtime.NumCPU())
	}
	if p.GOARCH == "amd64" && !p.NativeFAA {
		t.Error("amd64 has native FAA")
	}
	row := p.Table1Row()
	if !strings.Contains(row, "|") {
		t.Errorf("Table1Row malformed: %q", row)
	}
}

func TestResultString(t *testing.T) {
	res, err := Run(smallConfig("faa", workload.Pairs, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "Mops/s") {
		t.Errorf("Result.String malformed: %q", res.String())
	}
}

func TestMeasureLatency(t *testing.T) {
	cfg := DefaultLatencyConfig("wf-10", 2)
	cfg.OpsPerSide = 5000
	cfg.Pin = false
	res, err := MeasureLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Fatal("no latency samples collected")
	}
	for _, p := range []Percentiles{res.EnqueueP, res.DequeueP} {
		if p.P50 <= 0 || p.P50 > p.P99 || p.P99 > p.P999 || p.P999 > p.Max {
			t.Errorf("percentiles not monotone: %+v", p)
		}
	}
	if res.EnqueueP.String() == "" {
		t.Error("empty percentile string")
	}
}

func TestMeasureLatencyUnknownQueue(t *testing.T) {
	cfg := DefaultLatencyConfig("nope", 2)
	if _, err := MeasureLatency(cfg); err == nil {
		t.Fatal("unknown queue should error")
	}
}

func TestPercentilesEmpty(t *testing.T) {
	if p := percentiles(nil); p.Max != 0 {
		t.Error("empty percentiles should be zero")
	}
}

func TestRunPairsBatched(t *testing.T) {
	for _, q := range []string{"wf-10", "lcrq"} { // native + fallback path
		for _, batch := range []int{1, 8} {
			cfg := smallConfig(q, workload.PairsBatched, 2)
			cfg.Batch = batch
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s batch=%d: %v", q, batch, err)
			}
			if res.Mops() <= 0 {
				t.Errorf("%s batch=%d: nonpositive throughput", q, batch)
			}
			if res.Enqueues == 0 || res.Enqueues != res.Dequeues {
				t.Errorf("%s batch=%d: accounting enq=%d deq=%d", q, batch, res.Enqueues, res.Dequeues)
			}
		}
	}
}

// The batched workload with the native path must show batch FAA counters in
// the exposed queue stats.
func TestRunPairsBatchedStats(t *testing.T) {
	cfg := smallConfig("wf-10", workload.PairsBatched, 2)
	cfg.Batch = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueStats["enq_batch_calls"] == 0 || res.QueueStats["deq_batch_calls"] == 0 {
		t.Errorf("batch counters missing from stats: %v", res.QueueStats)
	}
	// Amortization: far fewer enqueue-side FAAs than enqueued values.
	if res.QueueStats["enq_batch_faas"] >= res.Enqueues {
		t.Errorf("no FAA amortization: faas=%d enqueues=%d",
			res.QueueStats["enq_batch_faas"], res.Enqueues)
	}
}

// TestSegAllocRate makes the core's heap fallback visible: two goroutines
// run wf-10 in the pairs and half shapes, and the log reports heap segment
// allocations (seg_allocs) beside segments linked (segments) per thousand
// operations. Only reuse is asserted — fewer allocations than links.
func TestSegAllocRate(t *testing.T) {
	for _, k := range []workload.Kind{workload.Pairs, workload.HalfHalf} {
		cfg := smallConfig("wf-10", k, 2)
		cfg.Ops = 400000
		cfg.Trials = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		kops := float64(res.Enqueues+res.Dequeues) / 1000
		allocs, linked := res.QueueStats["seg_allocs"], res.QueueStats["segments"]
		t.Logf("%s T=2: %.3f seg_allocs/kop, %.3f segments/kop (%d of %d linked segments heap-allocated, %d slot hits, %d cache hits)",
			k, float64(allocs)/kops, float64(linked)/kops, allocs, linked, res.QueueStats["seg_pool_hits"], res.QueueStats["seg_cache_hits"])
		if allocs >= linked {
			t.Errorf("%s: %d of %d linked segments were heap-allocated; none were reused", k, allocs, linked)
		}
	}
}

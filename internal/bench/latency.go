// Package bench holds what cmd/wfqbench and the root Table 1 benchmark run:
// the per-operation latency harness (MeasureLatency, behind `wfqbench
// latency`) and the host summary of the paper's Table 1 (DetectPlatform).
// The paper's throughput tables are `go test -bench` families in the root
// package.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wfqueue/internal/affinity"
	"wfqueue/internal/qiface"
	"wfqueue/internal/workload"
)

// LatencyResult holds the distribution of individual operation latencies —
// the practical face of wait-freedom: the paper's progress guarantee bounds
// the *steps* of every operation, which shows up as a bounded tail where
// lock-free designs can starve an unlucky thread and blocking designs stall
// everyone behind a preempted combiner.
type LatencyResult struct {
	Queue    string
	Threads  int
	Samples  int
	EnqueueP Percentiles
	DequeueP Percentiles
}

// Percentiles are latency quantiles in nanoseconds.
type Percentiles struct {
	P50, P90, P99, P999, Max int64
}

func percentiles(sorted []int64) Percentiles {
	if len(sorted) == 0 {
		return Percentiles{}
	}
	at := func(p float64) int64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	return Percentiles{
		P50:  at(0.50),
		P90:  at(0.90),
		P99:  at(0.99),
		P999: at(0.999),
		Max:  sorted[len(sorted)-1],
	}
}

func (p Percentiles) String() string {
	return fmt.Sprintf("p50=%dns p90=%dns p99=%dns p99.9=%dns max=%dns",
		p.P50, p.P90, p.P99, p.P999, p.Max)
}

// LatencyConfig drives MeasureLatency.
type LatencyConfig struct {
	Queue       string
	Threads     int // total workers; even split producers/consumers
	OpsPerSide  int
	SampleEvery int
	Pin         bool
	Seed        uint64
}

// DefaultLatencyConfig returns a config with 200,000 operations per side,
// about one operation in four timed, and workers pinned where the host
// allows.
func DefaultLatencyConfig(queue string, threads int) LatencyConfig {
	return LatencyConfig{
		Queue:       queue,
		Threads:     threads,
		OpsPerSide:  200_000,
		SampleEvery: 4,
		Pin:         affinity.Supported(),
		Seed:        7,
	}
}

// maxLatencyLead is how many values MeasureLatency lets the producers run
// ahead of the consumers. The registry queues hand out each enqueued value
// from a per-handle ring arena of 2^16 slots, so a producer further ahead
// than that would overwrite slots whose values the consumers have not read
// yet. A quarter of the arena leaves margin for the producers that pass the
// check together.
const maxLatencyLead = 1 << 14

// MeasureLatency samples per-operation latencies of the named queue under a
// producer/consumer load. A producer waits (yielding, untimed) while the
// values sent minus those consumed reach maxLatencyLead.
func MeasureLatency(cfg LatencyConfig) (LatencyResult, error) {
	if cfg.Threads < 2 {
		cfg.Threads = 2
	}
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	producers := cfg.Threads / 2
	consumers := cfg.Threads - producers
	f, err := qiface.Lookup(cfg.Queue)
	if err != nil {
		return LatencyResult{}, err
	}
	q, err := f.New(cfg.Threads)
	if err != nil {
		return LatencyResult{}, err
	}
	order := affinity.CompactOrder()

	enqSamples := make([][]int64, producers)
	deqSamples := make([][]int64, consumers)
	var sent, consumed atomic.Int64
	target := int64(producers * cfg.OpsPerSide)
	var wg sync.WaitGroup

	for p := 0; p < producers; p++ {
		ops, err := q.Register()
		if err != nil {
			return LatencyResult{}, err
		}
		wg.Add(1)
		go func(p int, ops qiface.Ops) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			if cfg.Pin {
				affinity.PinCompact(order, p)
			}
			local := make([]int64, 0, cfg.OpsPerSide/cfg.SampleEvery+1)
			for i := 0; i < cfg.OpsPerSide; i++ {
				// Reading consumed also orders each consumer's read of an
				// arena slot before this producer's reuse of it.
				for s := sent.Add(1); s-consumed.Load() > maxLatencyLead; {
					runtime.Gosched()
				}
				if i%cfg.SampleEvery == 0 {
					t0 := time.Now()
					ops.Enqueue(uint64(i) + 1)
					local = append(local, time.Since(t0).Nanoseconds())
				} else {
					ops.Enqueue(uint64(i) + 1)
				}
			}
			enqSamples[p] = local
		}(p, ops)
	}
	for c := 0; c < consumers; c++ {
		ops, err := q.Register()
		if err != nil {
			return LatencyResult{}, err
		}
		wg.Add(1)
		go func(c int, ops qiface.Ops) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			if cfg.Pin {
				affinity.PinCompact(order, producers+c)
			}
			rng := workload.NewRNG(cfg.Seed + uint64(c))
			local := make([]int64, 0, cfg.OpsPerSide/cfg.SampleEvery+1)
			for consumed.Load() < target {
				sample := rng.Intn(cfg.SampleEvery) == 0
				var ok bool
				if sample {
					t0 := time.Now()
					_, ok = ops.Dequeue()
					local = append(local, time.Since(t0).Nanoseconds())
				} else {
					_, ok = ops.Dequeue()
				}
				if ok {
					consumed.Add(1)
				} else {
					runtime.Gosched()
				}
			}
			deqSamples[c] = local
		}(c, ops)
	}
	wg.Wait()

	var enqAll, deqAll []int64
	for _, s := range enqSamples {
		enqAll = append(enqAll, s...)
	}
	for _, s := range deqSamples {
		deqAll = append(deqAll, s...)
	}
	sort.Slice(enqAll, func(i, j int) bool { return enqAll[i] < enqAll[j] })
	sort.Slice(deqAll, func(i, j int) bool { return deqAll[i] < deqAll[j] })

	return LatencyResult{
		Queue:    cfg.Queue,
		Threads:  cfg.Threads,
		Samples:  len(enqAll) + len(deqAll),
		EnqueueP: percentiles(enqAll),
		DequeueP: percentiles(deqAll),
	}, nil
}

package bench

import (
	"fmt"
	"runtime"
	"sync"

	"wfqueue/internal/qiface"
)

// StallConfig describes one run of the workload.StalledConsumer adversary:
// producers keep offering values while the consumer is parked, and the
// harness snapshots live-heap retention at the peak of the stall.
type StallConfig struct {
	Queue     string // registry name
	Producers int
	// StallOps is the number of values each producer enqueues while the
	// consumer is parked. The queue buffers all of them, so retention
	// grows linearly in StallOps.
	StallOps int
	// WarmOps is the number of enqueue–dequeue pairs per producer run
	// before the baseline snapshot, so lazily-grown structures (segments,
	// arenas, ring metadata) reach steady state and are charged to the
	// baseline, not to the stall.
	WarmOps int
	Seed    uint64
}

// DefaultStallConfig returns the default stall parameters: enough values
// that an unbounded queue's linear growth dwarfs the harness's own heap
// jitter by orders of magnitude.
func DefaultStallConfig(queue string) StallConfig {
	return StallConfig{Queue: queue, Producers: 2, StallOps: 200_000, WarmOps: 2_048, Seed: 0x5EED}
}

// StallResult is the outcome of one RunStall.
type StallResult struct {
	Config  StallConfig
	Drained uint64 // values recovered after the consumer resumed

	// Live-heap retention: runtime.MemStats.HeapAlloc after a forced GC,
	// before and at the peak of the stall. RetainedBytes is the growth —
	// the memory the queue holds on behalf of the parked consumer, and the
	// number TestRunStall checks: GC-settled live heap is deterministic
	// where RSS depends on allocator behavior.
	BaselineHeap  uint64
	StalledHeap   uint64
	RetainedBytes uint64
}

// RunStall executes the stalled-consumer adversary against one queue:
//
//  1. warmup — producers and consumer move WarmOps pairs each so every
//     lazily-allocated structure exists; forced GC; baseline snapshot;
//  2. stall — the consumer parks while every producer enqueues StallOps
//     values; forced GC; peak snapshot;
//  3. drain — the consumer resumes and dequeues until EMPTY; the drained
//     count must equal the enqueued count, or the queue lost values across
//     the stall and RunStall errors.
func RunStall(cfg StallConfig) (StallResult, error) {
	if cfg.Producers < 1 {
		return StallResult{}, fmt.Errorf("bench: stall needs at least 1 producer, got %d", cfg.Producers)
	}
	if cfg.StallOps < 1 || cfg.WarmOps < 0 {
		return StallResult{}, fmt.Errorf("bench: bad stall config: %+v", cfg)
	}
	factory, err := qiface.Lookup(cfg.Queue)
	if err != nil {
		return StallResult{}, err
	}
	res := StallResult{Config: cfg}

	q, err := factory.New(cfg.Producers + 1)
	if err != nil {
		return StallResult{}, err
	}
	consumer, err := q.Register()
	if err != nil {
		return StallResult{}, err
	}
	producers := make([]qiface.Ops, cfg.Producers)
	for i := range producers {
		ops, err := q.Register()
		if err != nil {
			return StallResult{}, err
		}
		producers[i] = ops
	}

	// Warmup: move pairs through every producer's handle, never letting
	// occupancy exceed one value per producer.
	for i := 0; i < cfg.WarmOps; i++ {
		for p, ops := range producers {
			ops.Enqueue(uint64(p)<<32 | uint64(i) + 1)
		}
		for range producers {
			if _, ok := consumer.Dequeue(); !ok {
				return StallResult{}, fmt.Errorf("bench: stall warmup lost a value (round %d)", i)
			}
		}
	}

	res.BaselineHeap = settledHeap()

	// Stall: the consumer parks; producers keep enqueueing.
	var wg sync.WaitGroup
	for p, ops := range producers {
		wg.Add(1)
		go func(p int, ops qiface.Ops) {
			defer wg.Done()
			for i := 0; i < cfg.StallOps; i++ {
				ops.Enqueue(uint64(p)<<32 | uint64(i) + 1)
			}
		}(p, ops)
	}
	wg.Wait()

	res.StalledHeap = settledHeap()
	if res.StalledHeap > res.BaselineHeap {
		res.RetainedBytes = res.StalledHeap - res.BaselineHeap
	}

	// Drain: the consumer resumes. Producers have joined, so the first
	// EMPTY observation is definitive.
	for {
		if _, ok := consumer.Dequeue(); !ok {
			break
		}
		res.Drained++
	}
	if enqueued := uint64(cfg.Producers * cfg.StallOps); res.Drained != enqueued {
		return StallResult{}, fmt.Errorf("bench: stall enqueued %d values but drained %d", enqueued, res.Drained)
	}

	for _, ops := range producers {
		if ops.Release != nil {
			ops.Release()
		}
	}
	if consumer.Release != nil {
		consumer.Release()
	}
	return res, nil
}

// settledHeap forces collection and returns the live heap. Two GC cycles
// let finalizer-revived garbage settle before the read.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

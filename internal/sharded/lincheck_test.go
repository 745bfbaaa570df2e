package sharded

import (
	"sync"
	"testing"
	"unsafe"

	"wfqueue/internal/lincheck"
	"wfqueue/internal/workload"
)

// The Lanes(1) configuration promises strict single-queue semantics: every
// operation passes straight through to one core.Queue, so the sharded
// queue must be linearizable to a FIFO queue. These tests verify that
// promise empirically with the same recorded-history checker the registry
// uses, driving the sharded API directly (including the batched surface,
// whose DequeueBatch shortfall is an EMPTY claim).

func boxU(v uint64) unsafe.Pointer {
	p := new(uint64)
	*p = v
	return unsafe.Pointer(p)
}

func runLane1Scenario(t *testing.T, nthreads, opsPerThread int, seed uint64, opts ...Option) {
	t.Helper()
	q := New(nthreads, append([]Option{WithLanes(1)}, opts...)...)
	col := lincheck.NewCollector(nthreads)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < nthreads; i++ {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		log := col.Thread(i)
		rng := workload.NewRNG(seed + uint64(i)*977)
		done.Add(1)
		go func(i int, h *Handle) {
			defer done.Done()
			start.Wait()
			for k := 0; k < opsPerThread; k++ {
				if rng.Bool() {
					v := uint64(i)<<32 | uint64(k) + 1
					log.Enq(v, func() { q.Enqueue(h, boxU(v)) })
				} else {
					log.Deq(func() (uint64, bool) {
						p, ok := q.Dequeue(h)
						if !ok {
							return 0, false
						}
						return *(*uint64)(p), true
					})
				}
			}
		}(i, h)
	}
	start.Done()
	done.Wait()

	h := col.History()
	ok, err := lincheck.Check(h)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("Lanes(1): non-linearizable history:\n%v", h)
	}
}

func runLane1BatchScenario(t *testing.T, nthreads, opsPerThread, maxBatch int, seed uint64) {
	t.Helper()
	q := New(nthreads, WithLanes(1))
	col := lincheck.NewCollector(nthreads)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < nthreads; i++ {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		log := col.Thread(i)
		rng := workload.NewRNG(seed + uint64(i)*977)
		done.Add(1)
		go func(i int, h *Handle) {
			defer done.Done()
			start.Wait()
			next := uint64(1)
			for k := 0; k < opsPerThread; k++ {
				b := int(rng.Next()%uint64(maxBatch)) + 1
				if rng.Bool() {
					vs := make([]uint64, b)
					ps := make([]unsafe.Pointer, b)
					for j := range vs {
						vs[j] = uint64(i)<<32 | next
						ps[j] = boxU(vs[j])
						next++
					}
					log.EnqBatch(vs, func() { q.EnqueueBatch(h, ps) })
				} else {
					dst := make([]unsafe.Pointer, b)
					log.DeqBatch(func() []uint64 {
						n := q.DequeueBatch(h, dst)
						out := make([]uint64, n)
						for j := 0; j < n; j++ {
							out[j] = *(*uint64)(dst[j])
						}
						return out
					}, b)
				}
			}
		}(i, h)
	}
	start.Done()
	done.Wait()

	h := col.History()
	ok, err := lincheck.Check(h)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("Lanes(1): non-linearizable batched history:\n%v", h)
	}
}

func TestLane1Linearizable(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		runLane1Scenario(t, 3, 6, uint64(trial)*131+7)
	}
	for trial := 0; trial < trials/4; trial++ {
		runLane1Scenario(t, 6, 3, uint64(trial)*733+1)
	}
}

// TestLane1BatchLinearizable runs batches of 1..3 values. A history holds
// at most 3 threads * 2 ops * (3+1) = 24 recorded ops (each batch value
// plus a short dequeue's EMPTY), the size of the registry's batch
// scenarios: the checker's memo grows exponentially in history length, and
// at 48 ops it took the race-instrumented binary past 2 GB of RSS.
func TestLane1BatchLinearizable(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		runLane1BatchScenario(t, 3, 2, 3, uint64(trial)*389+11)
	}
}

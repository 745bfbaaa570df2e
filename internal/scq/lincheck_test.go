package scq

import (
	"errors"
	"sync"
	"testing"

	"wfqueue/internal/lincheck"
	"wfqueue/internal/workload"
)

// runRecordedScenario drives a ring at capacity 4, the construction
// minimum, with an enqueue-heavy mix of TryEnqueue and Dequeue calls, so
// the ring is often full and ErrFull verdicts appear in the history.
// CheckBoundedInFlight then checks both halves of the capacity contract: no
// interleaving may hold more than capacity values, and every rejection must
// linearize in a state where the queued values plus the operations
// overlapping it reach capacity. That is what FULL means here (DESIGN.md
// §7.2, "What FULL counts"): each operation between its two ring calls
// holds one index outside both rings.
func runRecordedScenario(t *testing.T, nthreads, opsPerThread int, seed uint64) {
	t.Helper()
	q, err := New(nthreads, MinCapacity)
	if err != nil {
		t.Fatal(err)
	}
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
			defer h.Release()
			start.Wait()
			for k := 0; k < opsPerThread; k++ {
				// 3:1 enqueue bias keeps the tiny ring near full.
				if rng.Next()%4 != 0 {
					v := uint64(i)<<32 | uint64(k) + 1
					log.TryEnq(v, func() bool {
						err := h.TryEnqueue(box(v))
						if err != nil && !errors.Is(err, ErrFull) {
							panic(err)
						}
						return err == nil
					})
				} else {
					log.Deq(func() (uint64, bool) {
						p, ok := h.Dequeue()
						if !ok {
							return 0, false
						}
						return unbox(p), true
					})
				}
			}
		}(i, h)
	}
	start.Done()
	done.Wait()

	h := col.History()
	ok, err := lincheck.CheckBoundedInFlight(h, q.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("cap %d: non-linearizable bounded history:\n%v", q.Capacity(), h)
	}
}

// TestBoundedLinearizability records many small histories at the smallest
// capacity, so full states are actually exercised.
func TestBoundedLinearizability(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		runRecordedScenario(t, 3, 6, uint64(trial)*131+7)
	}
	for trial := 0; trial < trials/4; trial++ {
		runRecordedScenario(t, 6, 3, uint64(trial)*733+1)
	}
}

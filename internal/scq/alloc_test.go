package scq

import (
	"runtime"
	"testing"
)

// mallocs returns the fewest heap allocations (MemStats.Mallocs) that any
// of three windows of runs calls of f made, at GOMAXPROCS 1 and after one
// warm-up call. MemStats is process-wide, so now and then another goroutine
// allocates inside a window; an allocation on f's own path lands in every
// window, so the fewest is exact for it.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := ^uint64(0)
	for w := 0; w < 3 && least != 0; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestSteadyStateZeroAllocs gates the warm ring's TryEnqueue/Dequeue pair at
// exactly 0 allocations. The window wraps the 64-slot ring thousands of
// times, so it covers the whole cycle — free-ring dequeue, slot publish,
// allocated-ring ticket, slot recycle — not just the first lap; the queue
// allocates only in New.
func TestSteadyStateZeroAllocs(t *testing.T) {
	const capacity = 64
	q, err := New(1, capacity)
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	p := box(42)
	pair := func() {
		if err := h.TryEnqueue(p); err != nil {
			panic(err) // a lone producer never fills 64 slots
		}
		h.Dequeue()
	}
	// Warm past several full ring wraps so every slot's cycle bits have
	// advanced off their initial values.
	for i := 0; i < 4*capacity; i++ {
		pair()
	}
	if n := mallocs(200_000, pair); n != 0 {
		t.Errorf("200000 warm TryEnqueue+Dequeue pairs allocated %d objects, want 0", n)
	}
}

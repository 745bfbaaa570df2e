package core

import (
	"runtime"
	"testing"
	"unsafe"

	"wfqueue/internal/ctr"
)

// mallocs returns the heap allocations (MemStats.Mallocs) made across runs
// calls of f, measured as testing.AllocsPerRun does (GOMAXPROCS 1, one
// warm-up call first) but reported for the whole window: AllocsPerRun
// divides by runs and rounds down, so a window that allocates one segment
// every few pairs reads 0 there. MemStats is process-wide, and now and then
// another goroutine (the runtime, the test runner) allocates
// inside a window; an allocation on f's own path lands in every window, so
// the fewest over three windows is exact for it.
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

// TestSteadyStateZeroAllocs asserts the tentpole property: the
// enqueue/dequeue hot path performs zero heap allocations at steady state,
// even though the measured window crosses many segment boundaries (shift 3
// → every 8 cells) and runs many reclamation cycles.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	q := New(1, WithSegmentShift(3), WithMaxGarbage(1))
	h := mustRegister(t, q)
	p := box(42)

	// Warm through several reclamation cycles so the spare slots and the
	// handle cache hold every segment the steady state needs.
	for i := 0; i < 1024; i++ {
		q.Enqueue(h, p)
		q.Dequeue(h)
	}
	before := q.ReclaimedSegments()

	if n := mallocs(10000, func() {
		q.Enqueue(h, p)
		q.Dequeue(h)
	}); n != 0 {
		t.Errorf("10000 steady-state enqueue+dequeue pairs allocated %d objects, want 0", n)
	}
	if rec := q.ReclaimedSegments() - before; rec == 0 {
		t.Error("measured window recycled no segments; the zero-alloc claim did not cover the segment path")
	}
}

// TestSteadyStateZeroAllocsBatch is the batched analogue.
func TestSteadyStateZeroAllocsBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	q := New(1, WithSegmentShift(3), WithMaxGarbage(1))
	h := mustRegister(t, q)
	vs := boxN(6)
	dst := make([]unsafe.Pointer, 6)
	for i := 0; i < 512; i++ {
		q.EnqueueBatch(h, vs)
		q.DequeueBatch(h, dst)
	}
	if n := mallocs(5000, func() {
		q.EnqueueBatch(h, vs)
		q.DequeueBatch(h, dst)
	}); n != 0 {
		t.Errorf("5000 steady-state batch enqueue+dequeue pairs allocated %d objects, want 0", n)
	}
}

// TestSegCacheServesOwner checks the per-handle cache: a cleaner's first
// reclaimed segment parks in its own cache and the very next segment that
// handle needs comes from there, touching no shared state.
func TestSegCacheServesOwner(t *testing.T) {
	q := New(1, WithSegmentShift(2), WithMaxGarbage(1))
	h := mustRegister(t, q)
	p := box(7)
	for i := 0; i < 256; i++ {
		q.Enqueue(h, p)
		q.Dequeue(h)
	}
	if h.segCache == nil {
		t.Fatal("after reclamation cycles the cleaner's segment cache is empty")
	}
	if got := ctr.Load(&h.stats.SegCacheHits); got == 0 {
		t.Error("no segment was ever served from the handle cache")
	}
	allocs := ctr.Load(&h.stats.SegAllocs)
	if allocs > 4 {
		t.Errorf("steady single-thread traffic heap-allocated %d segments, want a handful at startup only", allocs)
	}
	// One handle never loses a findCell CAS, so every segment it linked came
	// from exactly one of the cache, the spare slots, or the heap.
	cache, slots := ctr.Load(&h.stats.SegCacheHits), ctr.Load(&h.stats.SegPoolHits)
	if linked := ctr.Load(&h.stats.Segments); cache+slots+allocs != linked {
		t.Errorf("cache %d + slot %d + heap %d segments != %d linked", cache, slots, allocs, linked)
	}
}

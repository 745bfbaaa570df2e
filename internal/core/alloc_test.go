package core

import (
	"testing"
	"unsafe"

	"wfqueue/internal/ctr"
	"wfqueue/internal/qtest"
)

// coreFrames is the frame prefix qtest.QueueAllocs counts allocations
// under: this package's code.
const coreFrames = "wfqueue/internal/core."

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

	if a := qtest.QueueAllocs(10000, func() {
		q.Enqueue(h, p)
		q.Dequeue(h)
	}, coreFrames); a.Objects != 0 {
		t.Errorf("10000 steady-state enqueue+dequeue pairs allocated %d objects, want 0, at:\n%s", a.Objects, a.Sites())
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
	if a := qtest.QueueAllocs(5000, func() {
		q.EnqueueBatch(h, vs)
		q.DequeueBatch(h, dst)
	}, coreFrames); a.Objects != 0 {
		t.Errorf("5000 steady-state batch enqueue+dequeue pairs allocated %d objects, want 0, at:\n%s", a.Objects, a.Sites())
	}
}

// TestCoalesceSteadyStateAllocsZero is the coalescing zero-allocation gate
// at windows 1 (passthrough), 4, 16 (the wf-coalesce default) and 64. The
// coalescing buffers are fixed arrays inside the handle, so the coalesced
// hot path must allocate nothing at steady state, with segments small
// enough (shift 6, maxGarbage 1) that the window crosses many segment
// boundaries. Each round is a run of window enqueues, then window
// dequeues, so the window actually fills rather than degenerating through
// the dequeue-side flush.
func TestCoalesceSteadyStateAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	for _, w := range []int{1, 4, 16, 64} {
		q := New(1, WithSegmentShift(6), WithMaxGarbage(1), WithCoalescing(w))
		h := mustRegister(t, q)
		p := box(42)
		round := func() {
			for j := 0; j < w; j++ {
				q.CoalescedEnqueue(h, p)
			}
			for j := 0; j < w; j++ {
				q.CoalescedDequeue(h)
			}
		}
		// Warm past the first reclamation cycle.
		for i := 0; i < (4<<6)/w; i++ {
			round()
		}
		rounds := 200_000 / w
		if a := qtest.QueueAllocs(rounds, round, coreFrames); a.Objects != 0 {
			t.Errorf("window %d: %d coalesced enqueue+dequeue pairs allocated %d objects at steady state, want 0, at:\n%s",
				w, rounds*w, a.Objects, a.Sites())
		}
	}
}

// TestChurnAllocsZero is the handle-lifecycle gate: the lock-free handle
// pool pre-allocates every handle at construction, so a Register/Release
// pair must not touch the heap (DESIGN.md §6). It counts only allocations
// under this package's frames, so it holds under -race too.
func TestChurnAllocsZero(t *testing.T) {
	q := New(2)
	a := qtest.QueueAllocs(100000, func() {
		h, err := q.Register()
		if err != nil {
			panic(err) // cannot happen: capacity 2, one handle in flight
		}
		h.Release()
	}, coreFrames)
	if a.Objects != 0 || a.Bytes != 0 {
		t.Errorf("100000 Register+Release cycles allocated %d objects, %d bytes, want exactly 0, at:\n%s",
			a.Objects, a.Bytes, a.Sites())
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

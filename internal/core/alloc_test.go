package core

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
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

	// Warm through several reclamation cycles so the pool and the handle
	// cache hold every segment the steady state needs.
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

// --- segPool whitebox -----------------------------------------------------

func TestSegPoolPushPop(t *testing.T) {
	p := newSegPool(4)
	if got := p.pop(); got != nil {
		t.Fatalf("pop on empty pool = %p, want nil", got)
	}
	segs := make([]*segment, 4)
	for i := range segs {
		segs[i] = &segment{id: int64(i), cells: make([]cell, 4)}
		if !p.push(segs[i]) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if p.push(&segment{}) {
		t.Fatal("push accepted past capacity")
	}
	if got, want := p.size(), 4; got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
	// LIFO: segments come back newest-first.
	for i := 3; i >= 0; i-- {
		if got := p.pop(); got != segs[i] {
			t.Fatalf("pop = %p, want segs[%d]=%p", got, i, segs[i])
		}
	}
	if got := p.pop(); got != nil {
		t.Fatalf("pop on drained pool = %p, want nil", got)
	}
}

// TestSegPoolGeneration pins the ABA defense: every successful pop advances
// the head generation, so a CAS armed with a pre-pop head word can never
// succeed after the node has cycled through the pool.
func TestSegPoolGeneration(t *testing.T) {
	p := newSegPool(2)
	s := &segment{cells: make([]cell, 4)}
	p.push(s)
	g0 := p.head.Load() >> segPoolIdxBits
	p.pop()
	p.push(s) // same node index back on top, as in an ABA interleaving
	g1 := p.head.Load() >> segPoolIdxBits
	if g1 <= g0 {
		t.Fatalf("head generation did not advance across pop/re-push: %d -> %d", g0, g1)
	}
}

// TestSegPoolConcurrent hammers a tiny pool from many goroutines; every
// segment pushed must be popped exactly once (no loss, no duplication), the
// property an ABA corruption would violate.
func TestSegPoolConcurrent(t *testing.T) {
	const (
		workers = 8
		rounds  = 20000
	)
	p := newSegPool(3) // tiny: constant contention and node reuse
	var wg sync.WaitGroup
	var mu sync.Mutex
	held := make(map[*segment]int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := &segment{id: int64(w), cells: make([]cell, 1)}
			for r := 0; r < rounds; r++ {
				if s != nil && p.push(s) {
					s = nil
				}
				if s == nil {
					s = p.pop()
				}
			}
			if s != nil {
				mu.Lock()
				held[s]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for s := p.pop(); s != nil; s = p.pop() {
		held[s]++
	}
	for s, n := range held {
		if n != 1 {
			t.Fatalf("segment %p surfaced %d times, want exactly once (ABA duplication)", s, n)
		}
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
	if got := ctrLoad(&h.stats.SegCacheHits); got == 0 {
		t.Error("no segment was ever served from the handle cache")
	}
	if got := ctrLoad(&h.stats.SegAllocs); got > 4 {
		t.Errorf("steady single-thread traffic heap-allocated %d segments, want a handful at startup only", got)
	}
}

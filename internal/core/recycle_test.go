package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"wfqueue/internal/ctr"
	"wfqueue/internal/workload"
)

// drive pushes the queue through enough enqueue/dequeue pairs on h to cross
// several segment boundaries and give cleanup (invoked by every dequeue)
// ample opportunity to reclaim.
func drive(q *Queue, h *Handle, pairs int) {
	p := box(1)
	for i := 0; i < pairs; i++ {
		q.Enqueue(h, p)
		q.Dequeue(h)
	}
}

// TestRecycleBlockedByHazard pins the interleaving the clear(s.cells) in
// newSegment's recycle path must survive: a slow-path reader still holds
// segment 0 through an outdated hint while other threads retire it. The
// hazard protocol must keep the segment out of recycling — and therefore
// keep clear() from running — for as long as the hazard id is published,
// and must release it for reuse once the hazard is cleared.
//
// The "outdated hint" is constructed literally: the reader's head/tail
// still point at segment 0 and its hzdp publishes id 0, exactly the state
// an operation is in between publishing its hazard pointer and reading
// cells (enqueue.go:18, dequeue.go:14). Everything cleanup consults —
// hzdp, head, tail — says the segment is live.
//
// It runs at shift 2, where findCell's slot map is the identity, and at
// shift 4, where the map is active.
func TestRecycleBlockedByHazard(t *testing.T) {
	for _, shift := range []uint{2, 4} {
		t.Run(fmt.Sprintf("shift%d", shift), func(t *testing.T) { recycleBlockedByHazard(t, shift) })
	}
}

func recycleBlockedByHazard(t *testing.T, shift uint) {
	q := New(2, WithSegmentShift(shift), WithMaxGarbage(1))
	reader := mustRegister(t, q)
	worker := mustRegister(t, q)

	s0 := q.oldestSegmentForTest()
	if sid(s0) != 0 {
		t.Fatalf("fresh queue's oldest segment has id %d, want 0", sid(s0))
	}

	// The reader is mid-operation on segment 0: hazard published, cells
	// about to be read.
	atomic.StoreInt64(&reader.hzdp, 0)

	// The worker pushes the queue far past segment 0 and triggers many
	// cleanup passes (every dequeue attempts one; maxGarbage=1).
	drive(q, worker, 512)

	// While the hazard stands, segment 0 must not have been recycled: its
	// id is still 0 (a recycled segment is re-id'd by newSegment before its
	// cells are cleared — observing id 0 throughout means clear never ran),
	// and the reclamation front I never moved past it.
	if got := sid(s0); got != 0 {
		t.Fatalf("segment 0 was recycled (id now %d) while a hazard pointer protected it", got)
	}
	if got := q.OldestSegmentID(); got != 0 {
		t.Fatalf("cleanup advanced the oldest segment to %d past a published hazard", got)
	}

	// Reader finishes its operation: hazard cleared. Its stale head/tail
	// hints are now fair game for cleanup's update() protocol.
	atomic.StoreInt64(&reader.hzdp, -1)
	drive(q, worker, 512)

	if q.ReclaimedSegments() == 0 {
		t.Fatal("clearing the hazard did not unblock reclamation")
	}
	if got := q.OldestSegmentID(); got == 0 {
		t.Fatal("oldest segment still 0 after hazard cleared and 512 further pairs")
	}
	// With recycling on, retired segment 0 must eventually be served again
	// under a new id — the id rewrite newSegment performs atomically.
	for i := 0; i < 4096 && sid(s0) == 0; i++ {
		drive(q, worker, 8)
	}
	if got := sid(s0); got == 0 {
		t.Fatal("retired segment was never recycled after its hazard cleared")
	}
	// And the reader's hints were advanced off the dead segment by
	// update(), so the reader cannot wander into the recycled memory via
	// its own handle state.
	if got := sid((*segment)(atomic.LoadPointer(&reader.head))); got == 0 {
		t.Fatal("reader's head hint still points at the recycled segment")
	}
	if got := sid((*segment)(atomic.LoadPointer(&reader.tail))); got == 0 {
		t.Fatal("reader's tail hint still points at the recycled segment")
	}
}

// TestRecycleHazardRace is the concurrent version: readers continuously
// publish/retract hazards on their current head segment while workers
// drive traffic that recycles tiny segments as fast as possible. Each
// reader re-resolves its hazard id after publication (the Dijkstra
// handshake of §3.6, mirrored from helpDeq's re-read) and then asserts the
// protected segment's id never changes while protected — the invariant
// clear(s.cells) relies on. Run with -race for the memory-model half of
// the argument. Like TestRecycleBlockedByHazard it runs with the slot map
// off (shift 2) and on (shift 4).
func TestRecycleHazardRace(t *testing.T) {
	for _, shift := range []uint{2, 4} {
		t.Run(fmt.Sprintf("shift%d", shift), func(t *testing.T) { recycleHazardRace(t, shift) })
	}
}

func recycleHazardRace(t *testing.T, shift uint) {
	const (
		readers = 2
		workers = 2
		pairs   = 4000
	)
	q := New(readers+workers, WithSegmentShift(shift), WithMaxGarbage(1))
	var readerWG, workerWG sync.WaitGroup
	var stop atomic.Bool

	for r := 0; r < readers; r++ {
		h := mustRegister(t, q)
		readerWG.Add(1)
		go func(h *Handle) {
			defer readerWG.Done()
			defer atomic.StoreInt64(&h.hzdp, -1)
			for !stop.Load() {
				// Publish a hazard for the current head segment, then
				// re-read the head: if it moved, the publication may have
				// come too late to protect the old segment (cleanup might
				// already have passed it), so retry — this is exactly the
				// operation-start protocol.
				s := (*segment)(atomic.LoadPointer(&h.head))
				id := sid(s)
				atomic.StoreInt64(&h.hzdp, id)
				s2 := (*segment)(atomic.LoadPointer(&h.head))
				if s2 != s || sid(s2) != id {
					atomic.StoreInt64(&h.hzdp, -1)
					continue
				}
				// Protected: the segment's id must stay put, and its cells
				// must stay readable without tripping -race against
				// clear().
				for i := 0; i < 64; i++ {
					if got := sid(s); got != id {
						t.Errorf("protected segment id changed %d -> %d under hazard", id, got)
						stop.Store(true)
						break
					}
					_ = atomic.LoadPointer(&s.cells[i%len(s.cells)].val)
				}
				atomic.StoreInt64(&h.hzdp, -1)
			}
		}(h)
	}
	var last *Handle
	for w := 0; w < workers; w++ {
		h := mustRegister(t, q)
		last = h
		workerWG.Add(1)
		go func(h *Handle) {
			defer workerWG.Done()
			drive(q, h, pairs)
		}(h)
	}

	workerWG.Wait()
	stop.Store(true)
	readerWG.Wait()

	// The readers may have held a hazard on the oldest segment through
	// every cleanup of the race, which legitimately blocks reclamation.
	// With their hazards cleared, one worker keeps going until a segment is
	// recycled; only a config that never recycles exhausts the bound.
	const witnessPairs = 100_000
	for i := 0; q.ReclaimedSegments() == 0 && i < witnessPairs; i++ {
		drive(q, last, 1)
	}
	if q.ReclaimedSegments() == 0 {
		t.Fatalf("no segment recycled after %d further pairs with every hazard cleared; tiny-segment config broken", witnessPairs)
	}
}

// TestHazardStallRetention prices what a bounded queue built on the core
// gives up against a fixed ring: a handle descheduled inside an operation
// holds its hazard, and that pins every segment after it while the other
// handles keep linking new ones. Here at most capacity values are queued
// throughout, yet N pairs grow the live list by N/S segments (S cells per
// segment: a pair moves both indices one cell along the same list), plus
// one cell per handle per empty streak when dequeues find the queue empty
// and burn a cell the enqueues must skip (the backlog here keeps every
// dequeue non-empty). Clearing the hazard gives it all back: the list
// shrinks to a few segments and the spare slots plus the handle caches
// keep at most 2·maxGarbage + 2·maxThreads, the bound TestPoolRetentionBound
// pins.
func TestHazardStallRetention(t *testing.T) {
	const maxThreads, capacity, pairs = 2, 8, 4096
	q := New(maxThreads, WithSegmentShift(4))
	stalled := mustRegister(t, q)
	worker := mustRegister(t, q)
	segCells := q.SegmentSize()
	live := func() int64 {
		return sid((*segment)(atomic.LoadPointer(&worker.tail))) - q.OldestSegmentID() + 1
	}
	p := box(1)
	for i := 0; i < capacity; i++ {
		q.Enqueue(worker, p)
	}

	// The stalled handle is mid-operation on segment 0: hazard published.
	atomic.StoreInt64(&stalled.hzdp, 0)
	before := live()
	drive(q, worker, pairs)
	growth := live() - before
	t.Logf("hazard held: %d pairs at %d queued grew the live list by %d segments of %d cells", pairs, capacity, growth, segCells)
	if q.OldestSegmentID() != 0 {
		t.Fatalf("cleanup advanced the oldest segment to %d past a published hazard", q.OldestSegmentID())
	}
	if lo, hi := pairs/segCells, 2*pairs/segCells+2; growth < lo || growth > hi {
		t.Errorf("live list grew by %d segments under the hazard, want between N/S = %d and 2N/S+2 = %d", growth, lo, hi)
	}

	// The stalled handle resumes and finishes: hazard cleared. A few more
	// segments of traffic give cleanup its passes.
	atomic.StoreInt64(&stalled.hzdp, -1)
	drive(q, worker, int(4*segCells))
	t.Logf("hazard cleared: live list %d segments, %d reclaimed in all", live(), q.ReclaimedSegments())
	if n := live(); n > q.maxGarbage+2 {
		t.Errorf("live list still %d segments after the hazard cleared, want at most maxGarbage+2 = %d", n, q.maxGarbage+2)
	}
	pooled := q.spareCount()
	for _, h := range []*Handle{stalled, worker} {
		if h.segCache != nil {
			pooled++
		}
	}
	if bound := int(2*q.maxGarbage) + 2*maxThreads; pooled > bound {
		t.Errorf("after the hazard cleared, %d segments stay pooled, want at most 2·maxGarbage + 2·maxThreads = %d", pooled, bound)
	}
	for i := 0; i < capacity; i++ {
		if _, ok := q.Dequeue(worker); !ok {
			t.Fatalf("backlog value %d lost across the stall", i)
		}
	}
}

// spareCount reports how many spare slots hold a segment (racy while
// handles run).
func (q *Queue) spareCount() int {
	n := 0
	for i := range q.spares {
		if atomic.LoadPointer(&q.spares[i]) != nil {
			n++
		}
	}
	return n
}

// TestRecycleSlotsConcurrent hammers the spare slots from many goroutines.
// Each round a worker takes two segments through newSegment, stamping them
// with ids of its own, and gives both back through recycleSegment: one
// lands in its handle's cache, the other goes through the slots, so every
// round puts into and takes from the shared array. A segment handed to two
// goroutines at once would carry the other one's id at the check. After the
// run every segment still held — in a cache or a slot — surfaces exactly
// once. A put that finds every slot full drops its segment, so the ledger
// is: heap allocations = surfaced + dropped.
func TestRecycleSlotsConcurrent(t *testing.T) {
	const workers, rounds = 8, 20000
	q := New(workers, WithSegmentShift(1), WithMaxGarbage(1))
	hs := make([]*Handle, workers)
	for w := range hs {
		hs[w] = mustRegister(t, q)
	}
	var wg sync.WaitGroup
	for w, h := range hs {
		wg.Add(1)
		go func(w int64, h *Handle) {
			defer wg.Done()
			var held [2]*segment
			for r := int64(0); r < rounds; r++ {
				for i := range held {
					held[i] = q.newSegment(h, w<<32|2*r+int64(i))
				}
				for i, s := range held {
					if got, want := sid(s), w<<32|2*r+int64(i); got != want {
						t.Errorf("worker %d holds a segment stamped %#x, want %#x: handed out twice", w, got, want)
						return
					}
					q.recycleSegment(h, s)
				}
			}
		}(int64(w), h)
	}
	wg.Wait()

	seen := map[*segment]int{}
	for _, h := range hs {
		if h.segCache != nil {
			seen[h.segCache]++
		}
	}
	for i := range q.spares {
		if s := (*segment)(q.spares[i]); s != nil {
			seen[s]++
		}
	}
	for s, n := range seen {
		if n != 1 {
			t.Errorf("segment %p surfaced %d times, want exactly once", s, n)
		}
	}
	st := q.Stats()
	dropped := int64(st.SegAllocs) - int64(len(seen))
	t.Logf("%d slot hits, %d cache hits, %d heap allocations, %d surfaced, %d dropped",
		st.SegPoolHits, st.SegCacheHits, st.SegAllocs, len(seen), dropped)
	if dropped < 0 {
		t.Errorf("%d segments surfaced but only %d were ever allocated", len(seen), st.SegAllocs)
	}
	if st.SegPoolHits == 0 {
		t.Error("no segment was ever taken from a spare slot")
	}
}

// TestRecycleCrossHandle is the pipeline shape: one producer-only handle
// and one consumer-only handle, which is the one that runs cleanup. The
// producer links most segments but never retires any, so its cache stays
// empty and everything it reuses must come through the shared slots from
// the consumer's cleanups. After warm-up the producer stops allocating.
func TestRecycleCrossHandle(t *testing.T) {
	const burst, warmup, bursts = 24, 64, 512
	q := New(2, WithSegmentShift(2))
	prod, cons := mustRegister(t, q), mustRegister(t, q)
	p := box(1)
	run := func(n int) {
		for b := 0; b < n; b++ {
			for i := 0; i < burst; i++ {
				q.Enqueue(prod, p)
			}
			for i := 0; i < burst; i++ {
				if _, ok := q.Dequeue(cons); !ok {
					t.Fatalf("burst %d: dequeue %d of %d found EMPTY", b, i, burst)
				}
			}
			// Idle polls between bursts burn cells, as a waiting consumer's do.
			for i := 0; i < 3; i++ {
				if _, ok := q.Dequeue(cons); ok {
					t.Fatalf("burst %d: poll found a value", b)
				}
			}
		}
	}
	run(warmup)
	allocs, hits := ctr.Load(&prod.stats.SegAllocs), ctr.Load(&prod.stats.SegPoolHits)
	run(bursts)
	linked := ctr.Load(&prod.stats.Segments)
	t.Logf("producer: %d segments linked, %d heap-allocated (%d during warm-up), %d from the slots, %d cache hits",
		linked, ctr.Load(&prod.stats.SegAllocs), allocs, ctr.Load(&prod.stats.SegPoolHits), ctr.Load(&prod.stats.SegCacheHits))
	if n := ctr.Load(&prod.stats.SegAllocs) - allocs; n != 0 {
		t.Errorf("producer heap-allocated %d segments after warm-up, want 0", n)
	}
	if ctr.Load(&prod.stats.SegPoolHits) == hits {
		t.Error("producer took no segment from the spare slots after warm-up")
	}
}

// TestRecycleRetainedHeap checks that the retention bound holds for the
// heap, not only for the slots and caches: after a default-configured queue
// is filled with 64 segments and drained, what stays reachable is the live
// list plus at most 2·maxGarbage + 2·maxThreads kept segments. A segment
// dropped for the GC must not stay reachable through the next link of one
// that was kept, which is why retirement clears that link.
func TestRecycleRetainedHeap(t *testing.T) {
	const maxThreads = 2
	var base, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&base)

	q := New(maxThreads)
	hs := []*Handle{mustRegister(t, q), mustRegister(t, q)}
	burst := 64 * q.SegmentSize()
	p := box(1)
	for i := int64(0); i < burst; i++ {
		q.Enqueue(hs[i&1], p)
	}
	for i := int64(0); i < burst; i++ {
		if _, ok := q.Dequeue(hs[i&1]); !ok {
			t.Fatalf("dequeue %d of %d: EMPTY", i, burst)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)

	live := int64(0)
	for _, h := range hs {
		live = max(live, sid((*segment)(atomic.LoadPointer(&h.tail))), sid((*segment)(atomic.LoadPointer(&h.head))))
	}
	live -= q.OldestSegmentID() - 1
	segBytes := int64(unsafe.Sizeof(cell{})) * q.SegmentSize()
	kept := (int64(after.HeapAlloc) - int64(base.HeapAlloc)) / segBytes
	bound := 2*q.maxGarbage + 2*maxThreads + live + 2
	t.Logf("%d KiB retained (%d segments of %d KiB), live list %d segments, bound %d segments",
		(int64(after.HeapAlloc)-int64(base.HeapAlloc))>>10, kept, segBytes>>10, live, bound)
	if kept > bound {
		t.Errorf("%d segments of heap stay reachable after the drain, want at most 2·maxGarbage + 2·maxThreads + live + 2 = %d", kept, bound)
	}
	runtime.KeepAlive(q)
}

// TestRecycleDetachStress runs enqueue/dequeue pairs on two-cell segments
// from more handles than CPUs, so segments retire and return through the
// spare slots as fast as the list grows. Every dequeue follows its own
// handle's enqueue, so the queue is never empty while a dequeue runs, and
// an EMPTY result means a value was lost. Two defects lose values this way:
// a segment published to a slot before its next link was read and cleared,
// which another handle relinks while the cleaner still walks from it; and a
// hazard id read through a hint whose segment was meanwhile retired and
// reused under a later id (hazardID), which leaves the walk unprotected.
// Both need a preemption in a window of a few instructions, so one run
// catches them only sometimes.
func TestRecycleDetachStress(t *testing.T) {
	const workers = 6
	pairs := 300_000
	if testing.Short() || raceEnabled {
		pairs = 30_000
	}
	q := New(workers, WithSegmentShift(1), WithMaxGarbage(1))
	var wg sync.WaitGroup
	var empties atomic.Int64
	for w := 0; w < workers; w++ {
		h := mustRegister(t, q)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := box(1)
			for i := 0; i < pairs; i++ {
				q.Enqueue(h, p)
				if _, ok := q.Dequeue(h); !ok {
					empties.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := empties.Load(); n != 0 {
		t.Errorf("%d of %d dequeues found EMPTY after their own handle's enqueue: values were lost", n, workers*pairs)
	}
}

// TestSegAllocRate makes the heap fallback visible: two goroutines run the
// paper's pairs and half shapes (200,000 operations each), and the log
// reports heap segment allocations (seg_allocs) beside segments linked
// (segments) per thousand operations. Only reuse is asserted — fewer
// allocations than links. Two more ratios per linked segment are logged:
// segments prepared (cache hits + slot hits + allocations), above 1 when
// both handles reach a boundary together and the loser's segment goes back
// for reuse, and spin fallbacks (helpEnq giving up its wait on an in-flight
// enqueuer and yielding).
func TestSegAllocRate(t *testing.T) {
	const threads, opsPer = 2, 200_000
	for _, shape := range []string{"pairs", "half"} {
		q := New(threads)
		hs := []*Handle{mustRegister(t, q), mustRegister(t, q)}
		var wg sync.WaitGroup
		for w, h := range hs {
			wg.Add(1)
			go func(w int, h *Handle) {
				defer wg.Done()
				p := box(int64(w))
				rng := workload.NewRNG(uint64(w) + 1)
				for i := 0; i < opsPer; i++ {
					if shape == "pairs" && i%2 == 0 || shape == "half" && rng.Bool() {
						q.Enqueue(h, p)
					} else {
						q.Dequeue(h)
					}
				}
			}(w, h)
		}
		wg.Wait()
		st := q.Stats()
		kops := float64(threads*opsPer) / 1000
		linked := float64(st.Segments)
		prepared := st.SegCacheHits + st.SegPoolHits + st.SegAllocs
		t.Logf("%s T=%d: %.3f seg_allocs/kop, %.3f segments/kop (%d of %d linked segments heap-allocated, %d slot hits, %d cache hits); per linked segment: %.2f prepared, %.2f spin fallbacks",
			shape, threads, float64(st.SegAllocs)/kops, linked/kops, st.SegAllocs, st.Segments, st.SegPoolHits, st.SegCacheHits,
			float64(prepared)/linked, float64(st.SpinFallbacks)/linked)
		if st.SegAllocs >= st.Segments {
			t.Errorf("%s: %d of %d linked segments were heap-allocated; none were reused", shape, st.SegAllocs, st.Segments)
		}
	}
}

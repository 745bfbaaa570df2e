package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
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
// hazard protocol must keep the segment out of the recycling pool — and
// therefore keep clear() from running — for as long as the hazard id is
// published, and must release it to the pool once the hazard is cleared.
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
// segment: a pair moves both indices one cell along the same list), and by
// up to 2N/S when dequeues find the queue empty and burn cells the
// enqueues must skip. Clearing the hazard gives it all back: the list
// shrinks to a few segments and the pool plus the handle caches keep at
// most 2·maxGarbage + 2·maxThreads, the bound TestPoolRetentionBound pins.
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
	pooled := q.pool.size()
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

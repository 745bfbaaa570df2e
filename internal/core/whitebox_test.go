package core

// White-box tests of the algorithm's internal machinery: cell state
// transitions (the "enqueue result states" of §3.4), helping paths,
// find_cell and advance_end_for_linearizability, and the reclamation
// protocol's corner cases.

import (
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAdvanceEndForLinearizability(t *testing.T) {
	var e int64
	advanceEndForLinearizability(&e, 5)
	if e != 5 {
		t.Fatalf("e = %d, want 5", e)
	}
	advanceEndForLinearizability(&e, 3) // must not move backwards
	if e != 5 {
		t.Fatalf("e = %d after lower advance, want 5", e)
	}
	advanceEndForLinearizability(&e, 5) // idempotent
	if e != 5 {
		t.Fatalf("e = %d, want 5", e)
	}
}

func TestAdvanceEndMonotoneProperty(t *testing.T) {
	f := func(targets []uint16) bool {
		var e int64
		max := int64(0)
		for _, raw := range targets {
			cid := int64(raw)
			advanceEndForLinearizability(&e, cid)
			if cid > max {
				max = cid
			}
			if e != max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFindCellExtendsList(t *testing.T) {
	q := New(1, WithSegmentShift(2)) // 4 cells per segment
	h := mustRegister(t, q)
	sp := atomic.LoadPointer(&h.tail)
	// Cell 9 lives in segment 2; finding it must allocate segments 1,2.
	c := q.findCell(h, &sp, 9)
	if c == nil {
		t.Fatal("nil cell")
	}
	s := (*segment)(sp)
	if sid(s) != 2 {
		t.Fatalf("segment pointer advanced to id %d, want 2", sid(s))
	}
	if want := wantSlot(q, 9); &s.cells[want] != c {
		t.Fatalf("cell 9 should be cells[%d] of segment 2", want)
	}
	// Finding an *earlier* cell from an older pointer must work while the
	// list already extends beyond it.
	sp2 := unsafe.Pointer(q.oldestSegmentForTest())
	c2 := q.findCell(h, &sp2, 5)
	if (*segment)(sp2).id != 1 || &(*segment)(sp2).cells[wantSlot(q, 5)] != c2 {
		t.Fatal("findCell mislocated cell 5")
	}
}

// wantSlot is the slot map as slotRotation documents it: the in-segment
// offset of index i, rotated left by the queue's rotation.
func wantSlot(q *Queue, i int64) int64 {
	off, n, k := i&q.segMask, q.segShift, slotRotation(q.segShift)
	return (off<<k | off>>(n-k)) & q.segMask
}

// findCell's slot map must be a permutation of every segment's cells, for
// every segment size WithSegmentShift accepts: two indices sharing a slot
// would share a cell. It must also be the documented rotation.
func TestSlotMapIsBijection(t *testing.T) {
	for shift := uint(1); shift <= 20; shift++ {
		q := New(1, WithSegmentShift(shift))
		h := mustRegister(t, q)
		sp := atomic.LoadPointer(&h.tail)
		s := (*segment)(sp)
		n := q.SegmentSize()
		seen := make([]bool, n)
		for i := int64(0); i < n; i++ {
			c := q.findCell(h, &sp, i)
			k := int64(uintptr(unsafe.Pointer(c))-uintptr(unsafe.Pointer(&s.cells[0]))) / int64(unsafe.Sizeof(cell{}))
			if k < 0 || k >= n || seen[k] {
				t.Fatalf("shift %d: index %d maps to slot %d, out of range or taken", shift, i, k)
			}
			if want := wantSlot(q, i); k != want {
				t.Fatalf("shift %d: index %d at slot %d, want %d", shift, i, k, want)
			}
			seen[k] = true
		}
	}
}

// Wherever the slot map is active, the cells of consecutive indices must
// never share a cache line. Measured on real cell addresses, so it holds
// for the cell size and segment placement of the running target.
func TestSlotMapSeparatesNeighbours(t *testing.T) {
	const line = 64
	active := 0
	for shift := uint(1); shift <= 12; shift++ {
		if slotRotation(shift) == 0 {
			continue
		}
		active++
		q := New(1, WithSegmentShift(shift))
		h := mustRegister(t, q)
		sp := atomic.LoadPointer(&h.tail)
		size := uintptr(unsafe.Sizeof(cell{}))
		for i := int64(0); i+1 < q.SegmentSize(); i++ {
			a := uintptr(unsafe.Pointer(q.findCell(h, &sp, i)))
			b := uintptr(unsafe.Pointer(q.findCell(h, &sp, i+1)))
			lo, hi := min(a, b), max(a, b)
			if (lo+size-1)/line >= hi/line {
				t.Fatalf("shift %d: cells %d and %d at %#x and %#x share a %d-byte line",
					shift, i, i+1, a, b, line)
			}
		}
	}
	if active == 0 {
		t.Fatal("the slot map is the identity at every shift up to 12")
	}
	if slotRotation(DefaultSegmentShift) == 0 {
		t.Fatal("the slot map is off at the default segment size")
	}
}

func TestFindCellDoesNotStoreWhenUnmoved(t *testing.T) {
	q := New(1)
	h := mustRegister(t, q)
	before := atomic.LoadPointer(&h.tail)
	q.findCell(h, &h.tail, 0)
	if atomic.LoadPointer(&h.tail) != before {
		t.Fatal("segment hint must be unchanged for an in-segment lookup")
	}
}

// A fast-path enqueue into a ⊤-marked cell must fail and surface the cell
// id for the slow path.
func TestEnqFastFailsOnMarkedCell(t *testing.T) {
	q := New(2)
	h := mustRegister(t, q)
	// Mark cell 0 as a dequeuer would.
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("queue should be empty")
	}
	var cid int64 = -1
	if q.enqFast(h, box(1), &cid) {
		t.Fatal("enqFast should fail on the marked cell")
	}
	// The empty dequeue advanced H past cell 0 and marked it ⊤ while T is
	// still 0, so the enqueue's FAA on T yields exactly that poisoned cell.
	if cid != 0 {
		t.Fatalf("failed cell id = %d, want 0", cid)
	}
}

// Cell state transitions: after a fast enqueue the cell must be in state
// (v, ⊥e, ⊥d); after a fast dequeue (v, ⊥e, ⊤d).
func TestCellEnqueueResultStates(t *testing.T) {
	q := New(1)
	h := mustRegister(t, q)
	v := box(7)
	q.Enqueue(h, v)

	sp := atomic.LoadPointer(&h.tail)
	c := q.findCell(h, &sp, 0)
	if atomic.LoadPointer(&c.val) != v || atomic.LoadPointer(&c.enq) != nil ||
		atomic.LoadPointer(&c.deq) != nil {
		t.Fatal("cell not in fast-path enqueue result state (v, ⊥e, ⊥d)")
	}

	if got, ok := q.Dequeue(h); !ok || got != v {
		t.Fatal("dequeue failed")
	}
	if atomic.LoadPointer(&c.deq) != topDeq {
		t.Fatal("cell deq should be ⊤d after fast-path dequeue")
	}
}

// An abandoned cell (empty dequeue) must end in state (⊤, ⊤e, ⊥d), the
// EMPTY-capable enqueue result state.
func TestCellAbandonedState(t *testing.T) {
	q := New(1)
	h := mustRegister(t, q)
	q.Dequeue(h)
	sp := atomic.LoadPointer(&h.head)
	c := q.findCell(h, &sp, 0)
	if atomic.LoadPointer(&c.val) != topVal {
		t.Fatal("abandoned cell val should be ⊤")
	}
	if atomic.LoadPointer(&c.enq) != topEnq {
		t.Fatal("abandoned cell enq should be ⊤e")
	}
}

// helpEnq must return the value for a filled cell without disturbing it
// (Invariant 1: enqueue result states are final).
func TestHelpEnqIdempotentOnFilledCell(t *testing.T) {
	q := New(2)
	h := mustRegister(t, q)
	h2 := mustRegister(t, q)
	v := box(3)
	q.Enqueue(h, v)
	sp := atomic.LoadPointer(&h2.head)
	c := q.findCell(h2, &sp, 0)
	for i := 0; i < 3; i++ {
		if got := q.helpEnq(h2, c, 0); got != v {
			t.Fatalf("helpEnq returned %v, want the value", got)
		}
	}
}

// Slow-path enqueue: with patience 0 and a contending dequeuer marking
// cells, the enqueue must still complete and the dequeuer must find the
// value (helping in action).
func TestSlowPathEnqueueCompletes(t *testing.T) {
	q := New(2, WithPatience(0))
	h := mustRegister(t, q)
	// Burn cells so the enqueuer's first FAA hits marked cells: empty
	// dequeues mark cells 0..9.
	for i := 0; i < 10; i++ {
		q.Dequeue(h)
	}
	q.Enqueue(h, box(42)) // forced through enq_slow at least sometimes
	v, ok := q.Dequeue(h)
	if !ok || unbox(v) != 42 {
		t.Fatalf("got (%v,%v), want 42", v, ok)
	}
	st := q.Stats()
	if st.EnqFast+st.EnqSlow != 1 {
		t.Fatalf("exactly one enqueue should be accounted, got %+v", st)
	}
}

// A pending slow dequeue request must be completed by helpDeq even when
// invoked by a different handle (the helper path).
func TestHelpDeqCompletesPeerRequest(t *testing.T) {
	q := New(2, WithPatience(0))
	h1 := mustRegister(t, q)
	h2 := mustRegister(t, q)

	// Enqueue a value, then manufacture a pending dequeue request for h1
	// exactly as deqSlow would (id = a consumed cell index).
	q.Enqueue(h1, box(9))
	// Fast-path dequeue attempt that we pretend failed: consume an index.
	i := atomic.AddInt64(&q.H, 1) - 1
	r := &h1.deqReq
	atomic.StoreInt64(&r.id, i)
	atomic.StoreUint64(&r.state, packState(true, i))

	// A peer helper completes it.
	q.helpDeq(h2, h1)
	if statePending(atomic.LoadUint64(&r.state)) {
		t.Fatal("request still pending after helpDeq")
	}
	// The value must now be reserved for h1's request, not available to
	// another dequeue of the same cell index range.
	idx := stateID(atomic.LoadUint64(&r.state))
	sp := atomic.LoadPointer(&h1.head)
	c := q.findCell(h1, &sp, idx)
	if atomic.LoadPointer(&c.deq) != unsafe.Pointer(r) &&
		atomic.LoadPointer(&c.val) != topVal {
		t.Fatal("announced cell neither claimed for the request nor EMPTY-capable")
	}
}

// Reclamation: a handle pinned via its hazard id must block segment reuse
// past it even when all head/tail hints have advanced.
func TestCleanupRespectsHazardID(t *testing.T) {
	q := New(2, WithSegmentShift(2), WithMaxGarbage(1))
	h := mustRegister(t, q)
	pinned := mustRegister(t, q)

	// Pin segment 0 via the second handle's hazard id.
	atomic.StoreInt64(&pinned.hzdp, 0)

	// Push traffic through several segments.
	for i := int64(0); i < 64; i++ {
		q.Enqueue(h, box(i))
		q.Dequeue(h)
	}
	if got := q.ReclaimedSegments(); got != 0 {
		t.Fatalf("reclaimed %d segments despite hazard pin", got)
	}

	// Unpin: reclamation must now proceed.
	atomic.StoreInt64(&pinned.hzdp, -1)
	for i := int64(0); i < 64; i++ {
		q.Enqueue(h, box(i))
		q.Dequeue(h)
	}
	if q.ReclaimedSegments() == 0 {
		t.Fatal("no segments reclaimed after unpinning")
	}
}

// Reclamation: an idle handle whose head/tail hints lag must not block
// cleanup — the cleaner force-advances them (the §3.6 "update head and
// tail pointers" rule).
func TestCleanupAdvancesIdleHandles(t *testing.T) {
	q := New(2, WithSegmentShift(2), WithMaxGarbage(1))
	active := mustRegister(t, q)
	idle := mustRegister(t, q) // never operates

	for i := int64(0); i < 256; i++ {
		q.Enqueue(active, box(i))
		q.Dequeue(active)
	}
	if q.ReclaimedSegments() == 0 {
		t.Fatal("idle handle blocked reclamation")
	}
	// The idle handle's hints must have been advanced past segment 0 so
	// its next operation starts from live memory.
	hseg := (*segment)(atomic.LoadPointer(&idle.head))
	if sid(hseg) == 0 {
		t.Fatal("idle handle's head hint was not advanced")
	}
	// And the idle handle must still work.
	q.Enqueue(idle, box(999))
	if v, ok := q.Dequeue(idle); !ok || unbox(v) != 999 {
		t.Fatal("idle handle broken after hint advancement")
	}
}

// Empty-polling must not let cleanup free segments that T still needs
// (regression test for the min(T,H) clamp).
func TestCleanupClampsToTailIndex(t *testing.T) {
	q := New(1, WithSegmentShift(2), WithMaxGarbage(1))
	h := mustRegister(t, q)
	// Poll an empty queue far past several segment boundaries.
	for i := 0; i < 100; i++ {
		q.Dequeue(h)
	}
	// T is still 0; enqueues must start at cell 0's segment and be
	// dequeued correctly afterwards.
	for i := int64(0); i < 50; i++ {
		q.Enqueue(h, box(i))
	}
	for i := int64(0); i < 50; i++ {
		v, ok := q.Dequeue(h)
		if !ok || unbox(v) != i {
			t.Fatalf("dequeue %d: got (%v,%v)", i, v, ok)
		}
	}
}

// verify must resolve hazard ids against the anchor chain correctly.
func TestVerifyResolvesIDs(t *testing.T) {
	q := New(1, WithSegmentShift(2))
	// Build a chain 0→1→2→3 by finding a far cell.
	h := mustRegister(t, q)
	sp := atomic.LoadPointer(&h.tail)
	q.findCell(h, &sp, 15)
	anchor := q.oldestSegmentForTest()
	e := (*segment)(sp) // id 3

	verify(&e, anchor, -1) // idle hazard: no change
	if sid(e) != 3 {
		t.Fatalf("idle hazard changed target to %d", sid(e))
	}
	verify(&e, anchor, 5) // hazard beyond target: no change
	if sid(e) != 3 {
		t.Fatalf("future hazard changed target to %d", sid(e))
	}
	verify(&e, anchor, 2) // hazard inside range: lower target
	if sid(e) != 2 {
		t.Fatalf("target = %d, want 2", sid(e))
	}
	verify(&e, anchor, 0) // hazard at anchor: lower to anchor
	if e != anchor {
		t.Fatal("target should drop to the anchor")
	}
}

// oldestSegmentForTest exposes q.q for white-box assertions.
func (q *Queue) oldestSegmentForTest() *segment {
	return (*segment)(atomic.LoadPointer(&q.q))
}

// Sustained traffic with eager reclamation must keep the window of live
// segments bounded — the memory property the §3.6 scheme exists to provide.
func TestLiveSegmentWindowBounded(t *testing.T) {
	q := New(1, WithSegmentShift(2), WithMaxGarbage(1))
	h := mustRegister(t, q)
	segCells := q.SegmentSize()
	for i := int64(0); i < 300*segCells; i++ {
		q.Enqueue(h, box(i))
		q.Dequeue(h)
	}
	tailSeg := sid((*segment)(atomic.LoadPointer(&h.tail)))
	oldest := q.OldestSegmentID()
	if oldest < 0 {
		t.Fatal("cleanup left I = -1")
	}
	window := tailSeg - oldest
	// With MaxGarbage=1 the window should stay within a handful of
	// segments; 300 segments of traffic must not accumulate.
	if window > 8 {
		t.Fatalf("live segment window = %d segments, want small", window)
	}
	if q.ReclaimedSegments() < 250 {
		t.Fatalf("reclaimed only %d of ~300 segments", q.ReclaimedSegments())
	}
}

// TestPoolRetentionBound pins what recycling keeps after a burst: once a
// default-configured queue has been filled and drained, the segments it
// holds for reuse — the shared pool plus every handle's one-segment cache —
// stay within 2·maxGarbage + 2·maxThreads (DESIGN.md §3.2), and a second
// burst of the same size is served partly from them.
func TestPoolRetentionBound(t *testing.T) {
	const maxThreads = 2
	q := New(maxThreads)
	hs := []*Handle{mustRegister(t, q), mustRegister(t, q)}
	burst := 64 * q.SegmentSize()
	p := box(1)
	fillDrain := func() {
		for i := int64(0); i < burst; i++ {
			q.Enqueue(hs[i&1], p)
		}
		for i := int64(0); i < burst; i++ {
			if _, ok := q.Dequeue(hs[i&1]); !ok {
				t.Fatalf("dequeue %d of %d: EMPTY", i, burst)
			}
		}
	}

	fillDrain()
	if q.ReclaimedSegments() < 32 {
		t.Fatalf("draining %d segments reclaimed only %d", burst/q.SegmentSize(), q.ReclaimedSegments())
	}
	pooled := q.pool.size()
	for _, h := range hs {
		if h.segCache != nil {
			pooled++
		}
	}
	if bound := int(2*q.maxGarbage) + 2*maxThreads; pooled > bound {
		t.Errorf("after the burst drained, %d segments stay pooled, want at most 2·maxGarbage + 2·maxThreads = %d", pooled, bound)
	}

	before := q.Stats()
	fillDrain()
	after := q.Stats()
	linked, allocated := after.Segments-before.Segments, after.SegAllocs-before.SegAllocs
	if allocated >= linked {
		t.Errorf("second burst heap-allocated %d of the %d segments it linked; pooled segments were not reused", allocated, linked)
	}
}

// TestCountersCensus asserts, by reflection, that Queue.Stats and
// Counters.Add carry every Counters field: a counter added to the struct but
// forgotten in either aggregation fails here.
func TestCountersCensus(t *testing.T) {
	q := New(2)
	h := q.handles[0]
	rv := reflect.ValueOf(&h.stats).Elem()
	for i := 0; i < rv.NumField(); i++ {
		rv.Field(i).SetUint(uint64(100 + i))
	}
	st := q.Stats()
	sv := reflect.ValueOf(st)
	for i := 0; i < sv.NumField(); i++ {
		if got, want := sv.Field(i).Uint(), uint64(100+i); got != want {
			t.Errorf("Stats dropped Counters.%s: got %d, want %d",
				sv.Type().Field(i).Name, got, want)
		}
	}

	var a, b Counters
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetUint(uint64(i + 1))
		bv.Field(i).SetUint(uint64(2 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Uint(), uint64(3*(i+1)); got != want {
			t.Errorf("Add dropped Counters.%s: got %d, want %d",
				av.Type().Field(i).Name, got, want)
		}
	}
}

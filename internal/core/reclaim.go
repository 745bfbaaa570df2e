package core

import (
	"sync/atomic"
	"unsafe"
)

// cleanup attempts to reclaim retired segments (paper Listing 5, lines
// 222-238). It is called at the end of every dequeue; the accumulation
// threshold maxGarbage amortizes its cost, and the CAS of I to -1 gives
// cleaners mutual exclusion so they need no further synchronization among
// themselves.
func (q *Queue) cleanup(h *Handle) {
	i := atomic.LoadInt64(&q.I)
	if i == -1 {
		return // another thread is cleaning
	}
	// The garbage threshold first, on the handle's own head segment, as in
	// the paper: nearly every call stops here, before touching the
	// contended T and H lines below. The clamp can only lower the target,
	// so this early exit rejects nothing the full test would accept.
	e := (*segment)(atomic.LoadPointer(&h.head))
	eid := sid(e)
	if eid-i < q.maxGarbage {
		return // not enough garbage to amortize a scan
	}
	// §3.6: segment[k] is retired only when BOTH T and H have moved past
	// k×N. The cleaner's head segment tracks H; additionally clamp the
	// target to the segment of min(T, H), or a queue polled while empty
	// (H far ahead of T) would free segments that future enqueues, whose
	// FAA on T yields small indices, still need. Both indices are
	// monotonic, so stale loads only make the clamp more conservative.
	limit := atomic.LoadInt64(&q.T)
	if hIdx := atomic.LoadInt64(&q.H); hIdx < limit {
		limit = hIdx
	}
	limitSeg := limit >> q.segShift
	if min(eid, limitSeg)-i < q.maxGarbage {
		return // not enough garbage below the clamp
	}
	if !atomic.CompareAndSwapInt64(&q.I, i, -1) {
		return // lost the race to another cleaner
	}

	s := (*segment)(atomic.LoadPointer(&q.q))
	if eid > limitSeg {
		// Walk from the oldest segment (id I ≤ limitSeg) to the clamped
		// target; it is reachable because the list is only truncated at
		// the front by the (mutually excluded) cleaner itself.
		t := s
		//wfqlint:bounded(SEGS, segment-list walk: ids increase by one per hop, so at most limitSeg - I hops (§3.6))
		for sid(t) < limitSeg {
			t = (*segment)(atomic.LoadPointer(&t.next))
		}
		e = t
	}
	hds := h.spare[:0]

	// Forward traversal: inspect every thread's state (starting with the
	// cleaner itself, whose tail pointer may lag its head — the reference
	// implementation's do-while also starts at the cleaner); a segment
	// still in use lowers e. Also advance idle threads' head and tail
	// pointers so a long-quiescent thread cannot block collection forever.
	//wfqlint:bounded(THREADS, helping-ring walk: breaks after at most maxThreads hops, when p.next cycles back to h (§3.6))
	for p := h; ; p = p.next {
		verify(&e, s, atomic.LoadInt64(&p.hzdp))
		update(&p.head, &e, s, p)
		update(&p.tail, &e, s, p)
		hds = append(hds, p)
		if sid(e) <= i || p.next == h {
			break
		}
	}

	// Reverse traversal: a thread helping a dequeue peer may set its
	// hazard pointer to the peer's head — a backward jump. The forward
	// pass has made every head/tail at least e, so any backward jump that
	// happened during it is caught by re-checking hazard pointers in
	// reverse visit order (§3.6 "Visit threads in reverse order").
	//wfqlint:bounded(THREADS, reverse re-check of the recorded hazard pointers: at most maxThreads entries (§3.6))
	for j := len(hds) - 1; j >= 0 && sid(e) > i; j-- {
		verify(&e, s, atomic.LoadInt64(&hds[j].hzdp))
	}
	h.spare = hds[:0]

	if sid(e) <= i {
		// Nothing reclaimable; restore I.
		atomic.StoreInt64(&q.I, i)
		return
	}

	atomic.StorePointer(&q.q, unsafe.Pointer(e))
	atomic.StoreInt64(&q.I, sid(e))
	ctrInc(&h.stats.Cleanups)
	q.freeSegments(h, s, e)
}

// update advances the head or tail pointer *from to the cleaner's target
// *to if it lags behind, using Dijkstra's protocol with the owning thread
// (paper lines 239-247): after the CAS, the owner's hazard pointer is
// re-checked, catching an owner that had already started using the old
// segment.
func update(from *unsafe.Pointer, to **segment, anchor *segment, h *Handle) {
	n := (*segment)(atomic.LoadPointer(from))
	if sid(n) < sid(*to) {
		if !atomic.CompareAndSwapPointer(from, unsafe.Pointer(n), unsafe.Pointer(*to)) {
			// The owner moved its pointer concurrently; if it is still
			// older than the target, the target must drop back to it.
			n = (*segment)(atomic.LoadPointer(from))
			if sid(n) < sid(*to) {
				*to = n
			}
		}
		verify(to, anchor, atomic.LoadInt64(&h.hzdp))
	}
}

// verify lowers the reclamation target *seg when a hazard publication
// protects an older segment (paper lines 248-249). Hazard pointers are
// published as segment ids; the id is resolved back to a segment by walking
// the still-linked list from anchor (the oldest live segment, id == I). An
// id at or below the anchor means nothing can be reclaimed, expressed by
// lowering the target to the anchor itself.
func verify(seg **segment, anchor *segment, hz int64) {
	if hz < 0 || hz >= sid(*seg) {
		return
	}
	if hz <= sid(anchor) {
		*seg = anchor
		return
	}
	t := anchor
	//wfqlint:bounded(SEGS, segment-list walk toward the hazard id: ids increase by one per hop, at most hz - sid(anchor) hops (§3.6))
	for sid(t) < hz {
		t = (*segment)(atomic.LoadPointer(&t.next))
	}
	*seg = t
}

// freeSegments retires segments [s, e) to the cleaner's one-segment cache
// and then the shared lock-free pool for newSegment to reuse — safe because
// the hazard protocol above proved no thread can reach them. Only a segment
// that finds the pool full is left to the garbage collector.
func (q *Queue) freeSegments(h *Handle, s, e *segment) {
	n := uint64(0)
	//wfqlint:bounded(SEGS, retires the finite range [s,e): every iteration advances s by exactly one segment (§3.6))
	for s != e {
		next := (*segment)(atomic.LoadPointer(&s.next))
		q.recycleSegment(h, s)
		s = next
		n++
	}
	atomic.AddUint64(&q.reclaimed, n)
}

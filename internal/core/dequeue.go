package core

import (
	"sync/atomic"
	"unsafe"

	"wfqueue/internal/ctr"
)

// Dequeue removes and returns the oldest value in the queue, or ok=false if
// the queue was observed empty. The operation is wait-free (paper Lemma
// 4.4): it completes within a bounded number of steps regardless of the
// scheduling of other threads.
func (q *Queue) Dequeue(h *Handle) (v unsafe.Pointer, ok bool) {
	// An idle poller tests T ≤ H before taking a cell (emptyPrecheck): no
	// hazard, no cell access, no cleanup, and no cell poisoned.
	if h.deqIdle && q.emptyPrecheck() {
		ctr.Inc(&h.stats.DeqEmpty)
		return nil, false
	}

	// §3.6: publish the hazard pointer before the operation; deqFast's FAA
	// orders the publication (plainHazard, hazard_plain.go).
	hz := hazardID(&h.head)
	if plainHazard {
		h.hzdp = hz //wfqlint:allow(atomic, x86 publish: the FAA on H that follows orders it before any cell access; hazard_plain.go)
	} else {
		atomic.StoreInt64(&h.hzdp, hz)
	}

	var cellID int64
	v = topVal
	//wfqlint:bounded(PATIENCE+1, fast-path patience loop: p starts at q.patience <= PatienceCap and decreases every iteration (§3.3))
	for p := q.patience; p >= 0; p-- {
		v = q.deqFast(h, &cellID)
		if v != topVal {
			break
		}
		ctr.Inc(&h.stats.FastCASFails)
	}
	if v == topVal {
		v = q.deqSlow(h, cellID)
		ctr.Inc(&h.stats.DeqSlow)
	} else if v != emptyVal {
		ctr.Inc(&h.stats.DeqFast)
	}

	// Invariant: v is a value or EMPTY.
	if v != emptyVal {
		// Got a value, so help the dequeue peer before returning
		// (Invariant 12), then move to the next peer (Invariant 13).
		q.helpDeq(h, q.handles[h.deqPeerIdx])
		h.deqPeerIdx++
		if h.deqPeerIdx == len(q.handles) {
			h.deqPeerIdx = 0
		}
	} else {
		ctr.Inc(&h.stats.DeqEmpty)
	}

	if plainHazard {
		h.hzdp = -1 //wfqlint:allow(atomic, x86 clear: TSO makes it visible only after every earlier cell access; hazard_plain.go)
	} else {
		atomic.StoreInt64(&h.hzdp, -1)
	}
	q.cleanup(h)

	h.deqIdle = v == emptyVal
	if v == emptyVal {
		return nil, false
	}
	return v, true
}

// emptyPrecheck reports whether the queue is empty by loading H and then T:
// if the T load reads t ≤ h, the H load's value, then at the instant of the
// T load H ≥ h ≥ t = T, and an EMPTY linearizes there (DESIGN.md §3).
// Every enqueue that completed before the call deposited below t, and the
// dequeue that takes each such value holds an index or request id below h,
// handed out before the H load. Later enqueues get indices ≥ t and later
// dequeues ≥ h. The loads must stay in this order: read T first and no
// single instant need have T ≤ H. The test dereferences no segment, so it
// needs no hazard, and it neither poisons a cell nor helps a request.
func (q *Queue) emptyPrecheck() bool {
	head := atomic.LoadInt64(&q.H)
	return atomic.LoadInt64(&q.T) <= head
}

// deqFast is the Listing 1 fast path augmented with enqueue helping (paper
// lines 140-148): claim an index with FAA, secure the cell's value via
// helpEnq, and claim it by sealing the cell's deq word with ⊤d. On failure
// it returns topVal and the visited cell id through id.
func (q *Queue) deqFast(h *Handle, id *int64) unsafe.Pointer {
	i := atomic.AddInt64(&q.H, 1) - 1
	c := q.findCell(h, &h.head, i)
	v := q.helpEnq(h, c, i)
	if v == emptyVal {
		return emptyVal
	}
	if v != topVal && atomic.CompareAndSwapPointer(&c.deq, nil, topDeq) {
		return v
	}
	*id = i
	return topVal
}

// deqSlow is the wait-free slow path (paper lines 149-157): publish a
// dequeue request, complete it cooperatively via helpDeq, and read the
// result from the destination cell.
func (q *Queue) deqSlow(h *Handle, cid int64) unsafe.Pointer {
	// Publish the dequeue request.
	r := &h.deqReq
	atomic.StoreInt64(&r.id, cid)
	atomic.StoreUint64(&r.state, packState(true, cid))

	q.helpDeq(h, h)

	// Find the destination cell and read its value.
	i := stateID(atomic.LoadUint64(&r.state))
	c := q.findCell(h, &h.head, i)
	v := atomic.LoadPointer(&c.val)
	advanceEndForLinearizability(&q.H, i+1)
	if v == topVal {
		return emptyVal
	}
	return v
}

// helpDeq completes helpee's pending dequeue request (paper lines 158-205).
// Both the requesting dequeuer (helpee == h) and its helpers run this; it
// returns only when the request is complete.
func (q *Queue) helpDeq(h *Handle, helpee *Handle) {
	// Inspect the dequeue request.
	r := &helpee.deqReq
	s := atomic.LoadUint64(&r.state)
	id := atomic.LoadInt64(&r.id)
	if !statePending(s) || stateID(s) < id {
		// The request doesn't need help.
		return
	}
	if helpee != h {
		ctr.Inc(&h.stats.HelpDeq)
	}

	// h.scratch[0] is the paper's ha, the cursor for announced cells; it
	// lives in the handle rather than on the stack (see Handle.scratch).
	// The hazard pointer is published between reading helpee.head and
	// re-reading the request state (§3.6): if the segment was reclaimed
	// before hzdp was set, the request must have completed, which the
	// state re-read below detects via s.idx != prior. This publish stays
	// atomic on every architecture: the next access is that load of
	// r.state, and x86 lets a later load pass an earlier plain store.
	h.scratch[0] = atomic.LoadPointer(&helpee.head)
	atomic.StoreInt64(&h.hzdp, sid((*segment)(h.scratch[0])))
	s = atomic.LoadUint64(&r.state)

	prior, i, cand := id, id, int64(0)
	//wfqlint:bounded(HELP, paper Listing 5 lines 128-157: each round either CASes the request onto a candidate cell or observes s.idx changed, i.e. another helper claimed it; §3.5's helping bound limits the rounds before some claim lands)
	for {
		// Find a candidate cell, if I don't have one. The loop breaks
		// when this helper finds a candidate or another helper announces
		// one (changing s.idx). h.scratch[1] is the paper's hc, the
		// candidate-search cursor, restarted from the announced-cell
		// cursor each round.
		h.scratch[1] = h.scratch[0]
		//wfqlint:bounded(THREADS, paper lines 133-142: i advances every iteration and the search stops at the first EMPTY or unclaimed-value cell; helpEnq returns EMPTY once i passes T, which trails i by at most the in-flight enqueue count)
		for cand == 0 && stateID(s) == prior {
			i++
			c := q.findCell(h, &h.scratch[1], i)
			v := q.helpEnq(h, c, i)
			// The cell is a candidate if helpEnq returned EMPTY or a
			// value not yet claimed by any dequeue.
			if v == emptyVal || (v != topVal && atomic.LoadPointer(&c.deq) == nil) {
				cand = i
			} else {
				s = atomic.LoadUint64(&r.state)
			}
		}
		if cand != 0 {
			// Found a candidate cell; try to announce it (Invariant 7:
			// announced indices increase monotonically from r.id).
			atomic.CompareAndSwapUint64(&r.state, packState(true, prior), packState(true, cand))
			s = atomic.LoadUint64(&r.state)
		}

		// Invariant: some candidate is announced in s.idx. Quit if the
		// request is complete (Invariant 12 cases 1 and 2).
		if !statePending(s) || atomic.LoadInt64(&r.id) != id {
			h.scratch[0], h.scratch[1] = nil, nil
			return
		}

		// Find the announced candidate.
		c := q.findCell(h, &h.scratch[0], stateID(s))
		// The request is complete if the candidate permits returning
		// EMPTY (c.val = ⊤, Invariant 9), or this helper claimed the
		// value for r, or another helper did.
		if atomic.LoadPointer(&c.val) == topVal ||
			atomic.CompareAndSwapPointer(&c.deq, nil, unsafe.Pointer(r)) ||
			atomic.LoadPointer(&c.deq) == unsafe.Pointer(r) {
			// Clear the pending bit (Invariant 11).
			atomic.CompareAndSwapUint64(&r.state, s, packState(false, stateID(s)))
			h.scratch[0], h.scratch[1] = nil, nil
			return
		}

		// Prepare for the next iteration.
		prior = stateID(s)
		if stateID(s) >= i {
			// The announced candidate is newer than the visited cell;
			// abandon any backup candidate and resume from it.
			cand = 0
			i = stateID(s)
		}
	}
}

package core

import (
	"sync/atomic"
	"unsafe"

	"wfqueue/internal/ctr"
)

// Enqueue appends v to the queue using handle h. v must not be nil (nil is
// the paper's reserved ⊥). The operation is wait-free: it completes within
// a bounded number of steps regardless of the scheduling of other threads
// (paper Lemma 4.3).
func (q *Queue) Enqueue(h *Handle, v unsafe.Pointer) {
	if v == nil || v == topVal || v == emptyVal {
		panic("core: Enqueue of nil or reserved sentinel")
	}
	// §3.6: publish the hazard pointer before the operation; the FAA the
	// fast path performs immediately after orders the publication, so on
	// x86 the store is plain (plainHazard, hazard_plain.go).
	hz := hazardID(&h.tail)
	if plainHazard {
		h.hzdp = hz //wfqlint:allow(atomic, x86 publish: the FAA on T that follows orders it before any cell access; hazard_plain.go)
	} else {
		atomic.StoreInt64(&h.hzdp, hz)
	}

	var cellID int64
	ok := false
	//wfqlint:bounded(PATIENCE+1, fast-path patience loop: p starts at q.patience <= PatienceCap and decreases every iteration (§3.3))
	for p := q.patience; p >= 0; p-- {
		if q.enqFast(h, v, &cellID) {
			ok = true
			break
		}
		ctr.Inc(&h.stats.FastCASFails)
	}
	if ok {
		ctr.Inc(&h.stats.EnqFast)
	} else {
		q.enqSlow(h, v, cellID) // use the cell id from the last attempt
		ctr.Inc(&h.stats.EnqSlow)
	}

	if plainHazard {
		h.hzdp = -1 //wfqlint:allow(atomic, x86 clear: TSO makes it visible only after every earlier cell access; hazard_plain.go)
	} else {
		atomic.StoreInt64(&h.hzdp, -1)
	}
}

// tryToClaimReq attempts to transition request state s from pending with
// the given id to claimed for cell cellID (paper lines 60-61).
func tryToClaimReq(s *state, id, cellID int64) bool {
	return atomic.CompareAndSwapUint64(s, packState(true, id), packState(false, cellID))
}

// enqCommit finishes an enqueue into the claimed cell: it first ensures T
// has moved past the cell (Invariant 4), then records the value (paper
// lines 62-64).
func (q *Queue) enqCommit(c *cell, v unsafe.Pointer, cid int64) {
	advanceEndForLinearizability(&q.T, cid+1)
	atomic.StorePointer(&c.val, v)
}

// enqFast is the Listing 1 fast path (paper lines 65-69): claim an index
// with FAA and try to deposit the value with one CAS. On failure the
// obtained cell id is returned through cid for use as a slow-path request
// id.
func (q *Queue) enqFast(h *Handle, v unsafe.Pointer, cid *int64) bool {
	i := atomic.AddInt64(&q.T, 1) - 1
	c := q.findCell(h, &h.tail, i)
	if atomic.CompareAndSwapPointer(&c.val, nil, v) {
		return true
	}
	*cid = i
	return false
}

// enqSlow is the wait-free slow path (paper lines 70-89). It publishes an
// enqueue request so contending dequeuers will help, then keeps trying
// cells itself until the request is claimed — by itself or a helper — for
// some cell, and commits the value there.
func (q *Queue) enqSlow(h *Handle, v unsafe.Pointer, cellID int64) {
	// Publish the request: val must be visible before the pending state
	// (§3.4 "Write the proper value in a cell").
	r := &h.enqReq
	atomic.StorePointer(&r.val, v)
	atomic.StoreUint64(&r.state, packState(true, cellID))

	// Traverse with a private copy of the tail pointer (h.scratch[0]; see
	// Handle.scratch): the commit below may need to find a cell earlier
	// than the last one visited here.
	h.scratch[0] = atomic.LoadPointer(&h.tail)
	//wfqlint:bounded(HELP, paper Listing 3 lines 75-83: the loop ends once the request is claimed, by this thread's tryToClaimReq or any helper's; §3.5 bounds the rounds before some claim succeeds because every dequeuer visiting a reserved cell helps this request)
	for {
		// Obtain a new cell index and locate the candidate cell.
		i := atomic.AddInt64(&q.T, 1) - 1
		c := q.findCell(h, &h.scratch[0], i)
		// Dijkstra's protocol: reserve the cell for the request, then
		// check that no dequeuer marked the cell unusable in between.
		if atomic.CompareAndSwapPointer(&c.enq, nil, unsafe.Pointer(r)) &&
			atomic.LoadPointer(&c.val) == nil {
			tryToClaimReq(&r.state, cellID, i)
			// Invariant: the request is claimed (even if the CAS inside
			// tryToClaimReq failed, a helper claimed it).
			break
		}
		if !statePending(atomic.LoadUint64(&r.state)) {
			break
		}
	}

	h.scratch[0] = nil

	// The request is claimed for some cell; find it and commit.
	id := stateID(atomic.LoadUint64(&r.state))
	c := q.findCell(h, &h.tail, id)
	q.enqCommit(c, v, id)
}

// helpEnq is called by dequeuers on each cell they visit (paper lines
// 90-127). It attempts to mark the cell unusable; if an enqueue request has
// reserved the cell (or the caller's enqueue peer has a pending request
// that may use it), it helps complete that enqueue instead. It returns:
//
//   - a value: the cell holds that enqueued value;
//   - topVal (⊤): the cell will never receive a value usable by the caller;
//   - emptyVal: the queue was observed empty at this cell (T ≤ i with no
//     pending enqueue able to fill cell i, Invariant 6).
func (q *Queue) helpEnq(h *Handle, c *cell, i int64) unsafe.Pointer {
	v := atomic.LoadPointer(&c.val)
	// MAX_SPIN (paper line 90): if the cell's index has already been handed
	// to an enqueuer by a fast-path FAA (T > i) but the value has not landed
	// yet, give the enqueuer a bounded grace period before poisoning the
	// cell — poisoning forces it to pay for another cell and, on the slow
	// path, drags in the helping machinery. The T > i gate keeps polls of a
	// genuinely empty queue (T <= i: no enqueuer can be in flight for this
	// cell) on the immediate-poison path, so EMPTY detection stays cheap.
	//
	// The wait itself polls the cell only once per spinPollStride pause
	// iterations: the enqueuer's deposit needs this very cache line, so a
	// dequeuer re-loading it back-to-back keeps yanking the line into the
	// shared state and delays the value it is waiting for.
	if v == nil {
		if q.maxSpin > 0 && atomic.LoadInt64(&q.T) > i {
			spins := q.maxSpin
			//wfqlint:bounded(MAX_SPIN, spins starts from q.maxSpin <= MaxSpinCap and decreases by min(spinPollStride, spins) ≥ 1 every iteration: at most ceil(maxSpin/spinPollStride) polls)
			for spins > 0 && v == nil {
				k := spinPollStride
				if k > spins {
					k = spins
				}
				pause(k)
				spins -= k
				v = atomic.LoadPointer(&c.val)
			}
			if v == nil {
				// Budget exhausted: the enqueuer is likely descheduled.
				// Yield once — on oversubscribed hosts it may need this
				// timeslice to finish the deposit — then proceed to poison.
				// Both bounds keep the operation wait-free.
				ctr.Inc(&h.stats.SpinFallbacks)
				yield()
				v = atomic.LoadPointer(&c.val)
			}
		}
	}
	// Try to mark the cell unusable; if it already holds a real value,
	// return it (line 91).
	if v == nil && !atomic.CompareAndSwapPointer(&c.val, nil, topVal) {
		v = atomic.LoadPointer(&c.val)
	}
	if v != nil && v != topVal {
		return v
	}

	// c.val is ⊤; help slow-path enqueues.
	if atomic.LoadPointer(&c.enq) == nil { // no enqueue request in c yet
		var (
			p *Handle
			r *enqReq
			s state
		)
		//wfqlint:bounded(2, two iterations at most, paper line 94: the first iteration either breaks or zeroes enqID, and with enqID == 0 the second iteration always breaks)
		for {
			p = q.handles[h.enqPeerIdx]
			r = &p.enqReq
			s = atomic.LoadUint64(&r.state)
			// Break if I haven't helped this peer's current request yet.
			if h.enqID == 0 || h.enqID == stateID(s) {
				break
			}
			// Peer request completed; move to the next peer.
			h.enqID = 0
			h.enqPeerIdx = p.next.idx
		}
		// If the peer enqueue is pending and can use this cell (Invariant
		// 5: r.id <= i), try to reserve the cell by noting the request in
		// it.
		if statePending(s) && stateID(s) <= i &&
			!atomic.CompareAndSwapPointer(&c.enq, nil, unsafe.Pointer(r)) {
			// Failed to reserve the cell for the request; remember the
			// request id so we keep helping this peer (Invariant 2).
			h.enqID = stateID(s)
		} else {
			// Peer doesn't need help, can't use this cell, or was helped:
			// offer help to the next peer next time (Invariant 3).
			h.enqPeerIdx = p.next.idx
		}
		// If no pending request was recorded, seal the cell with ⊤e so no
		// enqueue helper can use it later (line 111).
		if atomic.LoadPointer(&c.enq) == nil {
			atomic.CompareAndSwapPointer(&c.enq, nil, topEnq)
		}
	}

	// Invariant: the cell's enq is either a request or ⊤e (both stable:
	// the enq word is only ever CASed from ⊥e).
	e := atomic.LoadPointer(&c.enq)
	if e == topEnq {
		// No enqueue will fill this cell; EMPTY if not enough enqueues
		// linearized before i (line 116).
		if atomic.LoadInt64(&q.T) <= i {
			return emptyVal
		}
		return topVal
	}

	r := (*enqReq)(e)
	// Read state before val so the value belongs to request s.id or a
	// later one (§3.4).
	s := atomic.LoadUint64(&r.state)
	v = atomic.LoadPointer(&r.val)
	switch {
	case stateID(s) > i:
		// The request is unsuitable for this cell; EMPTY if not enough
		// enqueues linearized before i (line 122).
		if atomic.LoadPointer(&c.val) == topVal && atomic.LoadInt64(&q.T) <= i {
			return emptyVal
		}
	case tryToClaimReq(&r.state, stateID(s), i):
		q.enqCommit(c, v, i)
		ctr.Inc(&h.stats.HelpEnq)
	case atomic.LoadUint64(&r.state) == packState(false, i) && atomic.LoadPointer(&c.val) == topVal:
		// Someone claimed this request for cell i but has not committed
		// the value yet; commit on their behalf (line 125). The state is
		// re-read after the failed claim, as the reference code's CAS
		// returns the current word: the claim that beat ours may be the
		// enqueuer's own, for this very cell. Testing the stale pending
		// state instead would move this dequeuer past cell i, and the
		// enqueuer would then commit its value where no dequeuer looks.
		q.enqCommit(c, v, i)
	}
	return atomic.LoadPointer(&c.val) // ⊤ or a value
}

// spinPollStride is how many pause iterations helpEnq waits between polls
// of the contended cell word, so a spinning dequeuer stops hammering the
// cache line the enqueuer needs for its deposit.
const spinPollStride = 16

// pauseSink keeps the pause loops' arithmetic observable so no future
// compiler pass can argue the loops are dead.
var pauseSink uint64

// pause busy-waits for about n iterations of trivial arithmetic without
// touching shared memory: helpEnq's poll interval. It never blocks, never
// yields, and never loads the contended word, so a waiting dequeuer takes
// its cache-line traffic off the interconnect between polls.
func pause(n int) {
	s := uint64(0)
	i := 0
	//wfqlint:bounded(SPIN_POLL, the only caller passes at most spinPollStride and i advances every iteration)
	for i < n {
		s += uint64(i)
		i++
	}
	if s == ^uint64(0) {
		pauseSink = s
	}
}

// ParkSpinMax caps one exported Pause call, in pause-loop iterations. As a
// compile-time constant it prices Pause into the wait-freedom certificate:
// one call costs at most ParkSpinMax + O(1) steps.
const ParkSpinMax = 4096

// Pause busy-waits for about n iterations of trivial arithmetic without
// touching shared memory, clamping n to ParkSpinMax — the exported spin
// primitive for callers that idle-poll the queue and want a bounded wait
// between EMPTY dequeues. Like pause it never blocks, never yields and
// never loads shared state, so a waiting consumer takes its cache-line
// traffic off the interconnect entirely.
func Pause(n int) {
	if n > ParkSpinMax {
		n = ParkSpinMax
	}
	s := uint64(0)
	i := 0
	//wfqlint:bounded(PARK, n is clamped to ParkSpinMax on entry and i advances every iteration)
	for i < n {
		s += uint64(i)
		i++
	}
	if s == ^uint64(0) {
		pauseSink = s
	}
}

package sharded

import (
	"sync/atomic"
	"unsafe"
)

// pickLane selects the lane for an enqueue: the round-robin cursor's next
// lane under DispatchRoundRobin, else the handle's home lane.
func (q *Queue) pickLane(h *Handle) int {
	if q.dispatch == DispatchRoundRobin {
		ctrInc(&h.stats.RRDispatches)
		return int(uint64(atomic.AddInt64(&q.rr, 1)-1) % uint64(len(q.lanes)))
	}
	return h.home
}

// sweepLane maps sweep position off ∈ [1, lanes) to a lane index: the
// off-th entry of the home lane's steal order when one is in hand (the
// topology's distance order), else the cyclic neighbor (home+off mod lanes).
func (h *Handle) sweepLane(off int, order []int) int {
	if order != nil {
		return order[off-1]
	}
	li := h.home + off
	if li >= len(h.q.lanes) {
		li -= len(h.q.lanes)
	}
	return li
}

// stealFrom performs one real dequeue against lane li on behalf of a
// sweeping consumer, doing the steal accounting on success.
func (q *Queue) stealFrom(h *Handle, li int) (unsafe.Pointer, bool) {
	v, ok := q.lanes[li].q.Dequeue(h.hs[li])
	if !ok {
		return nil, false
	}
	atomic.AddUint64(&q.lanes[li].stolenFrom, 1)
	ctrInc(&h.stats.Steals)
	ctrInc(&h.stats.Dequeues)
	return v, true
}

// Enqueue appends v to the queue using handle h. Under DispatchAffinity the
// value lands in h's home lane (preserving per-producer FIFO order); under
// DispatchRoundRobin a shared FAA cursor picks the lane. v must not be nil
// (the core's reserved ⊥). The operation is wait-free: one core enqueue
// plus at most one FAA.
func (q *Queue) Enqueue(h *Handle, v unsafe.Pointer) {
	if q.scqCap != 0 {
		q.scqEnqueue(h, v)
		return
	}
	li := q.pickLane(h)
	q.lanes[li].q.Enqueue(h.hs[li], v)
	ctrInc(&h.stats.Enqueues)
}

// Dequeue removes and returns a value, or ok=false if every lane was
// observed empty during the call. The home lane is drained first; when it
// reports EMPTY the consumer turns work-stealer and sweeps the other lanes
// — in cyclic order, or nearest first under a topology — first the lanes
// whose size hint is nonzero (a real dequeue on an empty lane poisons a
// cell, so the cheap racy hint filters most misses), then, if the hint pass
// came back dry, a definitive pass that performs a real dequeue on every
// remaining lane. Each of those EMPTY returns is a per-lane linearization
// point inside this call's interval, which is exactly the emptiness
// guarantee the relaxed contract makes (package comment; DESIGN.md §4).
//
// The operation stays wait-free: at most 2·lanes core dequeues, each
// individually wait-free. A steal can never lose or duplicate a value: the
// value moves through the stolen lane's ordinary per-cell claim CAS, which
// at most one dequeuer queue-wide can win.
func (q *Queue) Dequeue(h *Handle) (unsafe.Pointer, bool) {
	if q.scqCap != 0 {
		return q.scqDequeue(h)
	}
	v, ok := q.lanes[h.home].q.Dequeue(h.hs[h.home])
	if ok {
		ctrInc(&h.stats.Dequeues)
		if q.park {
			h.parkNote(false)
		}
		return v, true
	}
	n := len(q.lanes)
	if n == 1 {
		return nil, q.dequeueEmpty(h)
	}
	ctrInc(&h.stats.Sweeps)
	var order []int
	if q.stealOrder != nil {
		order = q.stealOrder[h.home]
	}
	// Hint pass: steal from lanes that look non-empty.
	//wfqlint:bounded(LANES, hint pass: at most one steal attempt per non-home lane)
	for off := 1; off < n; off++ {
		li := h.sweepLane(off, order)
		if q.lanes[li].q.Size() == 0 {
			continue
		}
		if v, ok := q.stealFrom(h, li); ok {
			if q.park {
				h.parkNote(false)
			}
			return v, true
		}
	}
	// Definitive pass: a real dequeue per lane, so a false return is backed
	// by a per-lane EMPTY witness for every lane (the home lane's was the
	// failed dequeue that started the sweep).
	//wfqlint:bounded(LANES, definitive pass: one real dequeue per non-home lane for the EMPTY witness)
	for off := 1; off < n; off++ {
		if v, ok := q.stealFrom(h, h.sweepLane(off, order)); ok {
			if q.park {
				h.parkNote(false)
			}
			return v, true
		}
	}
	return nil, q.dequeueEmpty(h)
}

// dequeueEmpty is Dequeue's shared EMPTY exit: count it, feed the parking
// controller, and — for a handle whose recent dequeues were mostly EMPTY —
// climb one rung of the bounded spin/yield ladder (topo.go) before handing
// EMPTY back to a caller that is probably about to re-poll. Always returns
// false. The EMPTY linearization guarantee is untouched: every witness was
// collected before the park.
func (q *Queue) dequeueEmpty(h *Handle) bool {
	ctrInc(&h.stats.EmptyDequeues)
	if q.park {
		h.parkNote(true)
		q.parkEmpty(h)
	}
	return false
}

// EnqueueBatch appends the values of vs in order using handle h. The whole
// batch lands in ONE lane — picked exactly as Enqueue picks (home lane or
// round-robin cursor) — so the core's
// single-FAA k-cell reservation applies unchanged and intra-batch order is
// a single lane's FIFO order.
func (q *Queue) EnqueueBatch(h *Handle, vs []unsafe.Pointer) {
	if len(vs) == 0 {
		return
	}
	if q.scqCap != 0 {
		q.scqEnqueueBatch(h, vs)
		return
	}
	li := q.pickLane(h)
	q.lanes[li].q.EnqueueBatch(h.hs[li], vs)
	ctrAdd(&h.stats.Enqueues, uint64(len(vs)))
}

// DequeueBatch fills dst from the home lane first, then tops up any
// shortfall by sweeping the other lanes with batched steals (the same order
// as Dequeue's sweep). It returns the number of values stored;
// a short return means every lane was observed EMPTY (per lane, within the
// call) — the batched analogue of Dequeue's ok=false.
func (q *Queue) DequeueBatch(h *Handle, dst []unsafe.Pointer) int {
	if len(dst) == 0 {
		return 0
	}
	if q.scqCap != 0 {
		return q.scqDequeueBatch(h, dst)
	}
	got := q.lanes[h.home].q.DequeueBatch(h.hs[h.home], dst)
	n := len(q.lanes)
	if got == len(dst) || n == 1 {
		ctrAdd(&h.stats.Dequeues, uint64(got))
		q.batchPark(h, got)
		return got
	}
	ctrInc(&h.stats.Sweeps)
	var order []int
	if q.stealOrder != nil {
		order = q.stealOrder[h.home]
	}
	//wfqlint:bounded(LANES, batch sweep: at most one per-lane DequeueBatch per non-home lane)
	for off := 1; off < n && got < len(dst); off++ {
		li := h.sweepLane(off, order)
		ln := &q.lanes[li]
		m := ln.q.DequeueBatch(h.hs[li], dst[got:])
		if m > 0 {
			atomic.AddUint64(&ln.stolenFrom, uint64(m))
			ctrAdd(&h.stats.Steals, uint64(m))
		}
		got += m
	}
	ctrAdd(&h.stats.Dequeues, uint64(got))
	q.batchPark(h, got)
	return got
}

// batchPark feeds one completed DequeueBatch into the parking controller: a
// batch that came back with nothing after its sweep is the batched analogue
// of an EMPTY dequeue and climbs the same ladder.
func (q *Queue) batchPark(h *Handle, got int) {
	if !q.park {
		return
	}
	if got == 0 {
		h.parkNote(true)
		q.parkEmpty(h)
		return
	}
	h.parkNote(false)
}

package sharded

import (
	"unsafe"

	"wfqueue/internal/ctr"
)

// sweepLane maps sweep position off ∈ [1, lanes) to a lane index: the
// cyclic neighbor home+off mod lanes.
func (h *Handle) sweepLane(off int) int {
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
	q.lanes[li].stolenFrom.Add(1)
	ctr.Inc(&h.stats.Steals)
	ctr.Inc(&h.stats.Dequeues)
	return v, true
}

// Enqueue appends v to h's home lane, preserving per-producer FIFO order.
// v must not be nil (the core's reserved ⊥). The operation is wait-free:
// one core enqueue.
func (q *Queue) Enqueue(h *Handle, v unsafe.Pointer) {
	q.lanes[h.home].q.Enqueue(h.hs[h.home], v)
	ctr.Inc(&h.stats.Enqueues)
}

// Dequeue removes and returns a value, or ok=false if every lane was
// observed empty during the call. The home lane is drained first; when it
// reports EMPTY the consumer turns work-stealer and sweeps the other lanes
// in cyclic order — first the lanes whose size hint is nonzero (the cheap
// racy hint filters most misses: a real dequeue on an empty lane poisons a
// cell when this handle's last dequeue there returned a value, and
// otherwise still pays the core's T ≤ H test), then, if the hint pass came
// back dry, a definitive pass that performs a real dequeue on every
// remaining lane. Each of those EMPTY
// returns is a per-lane linearization point inside this call's interval,
// which is exactly the emptiness guarantee the relaxed contract makes
// (package comment; DESIGN.md §4).
//
// The operation stays wait-free: at most 2·lanes core dequeues, each
// individually wait-free. A steal can never lose or duplicate a value: the
// value moves through the stolen lane's ordinary per-cell claim CAS, which
// at most one dequeuer queue-wide can win.
func (q *Queue) Dequeue(h *Handle) (unsafe.Pointer, bool) {
	v, ok := q.lanes[h.home].q.Dequeue(h.hs[h.home])
	if ok {
		ctr.Inc(&h.stats.Dequeues)
		return v, true
	}
	n := len(q.lanes)
	if n > 1 {
		ctr.Inc(&h.stats.Sweeps)
		// Hint pass: steal from lanes that look non-empty.
		//wfqlint:bounded(LANES, hint pass: at most one steal attempt per non-home lane)
		for off := 1; off < n; off++ {
			li := h.sweepLane(off)
			if q.lanes[li].q.Size() == 0 {
				continue
			}
			if v, ok := q.stealFrom(h, li); ok {
				return v, true
			}
		}
		// Definitive pass: a real dequeue per lane, so a false return is
		// backed by a per-lane EMPTY witness for every lane (the home lane's
		// was the failed dequeue that started the sweep).
		//wfqlint:bounded(LANES, definitive pass: one real dequeue per non-home lane for the EMPTY witness)
		for off := 1; off < n; off++ {
			if v, ok := q.stealFrom(h, h.sweepLane(off)); ok {
				return v, true
			}
		}
	}
	ctr.Inc(&h.stats.EmptyDequeues)
	return nil, false
}

// EnqueueBatch appends the values of vs in order using handle h. The whole
// batch lands in h's home lane, so the core's single-FAA k-cell reservation
// applies unchanged and intra-batch order is a single lane's FIFO order.
func (q *Queue) EnqueueBatch(h *Handle, vs []unsafe.Pointer) {
	if len(vs) == 0 {
		return
	}
	q.lanes[h.home].q.EnqueueBatch(h.hs[h.home], vs)
	ctr.Add(&h.stats.Enqueues, uint64(len(vs)))
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
	got := q.lanes[h.home].q.DequeueBatch(h.hs[h.home], dst)
	n := len(q.lanes)
	if got < len(dst) && n > 1 {
		ctr.Inc(&h.stats.Sweeps)
		//wfqlint:bounded(LANES, batch sweep: at most one per-lane DequeueBatch per non-home lane)
		for off := 1; off < n && got < len(dst); off++ {
			li := h.sweepLane(off)
			m := q.lanes[li].q.DequeueBatch(h.hs[li], dst[got:])
			if m > 0 {
				q.lanes[li].stolenFrom.Add(uint64(m))
				ctr.Add(&h.stats.Steals, uint64(m))
			}
			got += m
		}
	}
	ctr.Add(&h.stats.Dequeues, uint64(got))
	return got
}

package core

import (
	"sync/atomic"
	"unsafe"

	"wfqueue/internal/ctr"
)

// Batched operations. The paper's fast path spends one fetch-and-add per
// operation; a batch of k operations can amortize that coordination to a
// single FAA that reserves k consecutive cells, the same ring-amortization
// direction SCQ/wCQ-style designs exploit. The per-cell protocol is
// unchanged — every reserved cell is completed (or abandoned) exactly as
// Listing 2/3 prescribe — so all of the paper's cell invariants, the
// helping ring, and the wait-freedom bound carry over: a batch of k is
// bounded by k times the single-operation step bound.

// EnqueueBatch appends the values of vs to the queue in order using handle
// h. It is semantically equivalent to calling Enqueue for each value, but
// the uncontended fast path issues exactly ONE fetch-and-add on T for the
// whole batch, reserving len(vs) consecutive cells.
//
// Values are deposited into the reserved cells in order with the normal
// one-CAS-per-cell protocol. A cell that was poisoned by a dequeuer (⊤) is
// skipped and the pending value shifts to the next reserved cell, so
// intra-batch FIFO order is preserved (cell indices are the linearization
// order). Items left over when the window is exhausted retry on the
// per-item fast path while the batch's shared PATIENCE budget lasts, then
// degrade to ordinary per-item slow-path requests — each with a fresh
// cell id from its own FAA, preserving the global uniqueness of request
// ids that the helping protocol's claim CAS relies on (§3.4).
//
// As with Enqueue, no value may be nil (the paper's ⊥).
func (q *Queue) EnqueueBatch(h *Handle, vs []unsafe.Pointer) {
	switch len(vs) {
	case 0:
		return
	case 1:
		q.Enqueue(h, vs[0])
		return
	}
	//wfqlint:bounded(K, validation sweep: one nil/sentinel check per element of vs)
	for _, v := range vs {
		if v == nil || v == topVal || v == emptyVal {
			panic("core: EnqueueBatch of nil or reserved sentinel")
		}
	}
	k := int64(len(vs))

	// §3.6: publish the hazard pointer before touching cells; the FAA
	// immediately after orders the publication (plainHazard).
	hz := hazardID(&h.tail)
	if plainHazard {
		h.hzdp = hz //wfqlint:allow(atomic, x86 publish: the FAA on T that follows orders it before any cell access; hazard_plain.go)
	} else {
		atomic.StoreInt64(&h.hzdp, hz)
	}
	ctr.Inc(&h.stats.EnqBatchCalls)

	// One FAA reserves cells [i0, i0+k).
	ctr.Inc(&h.stats.EnqBatchFAAs)
	i0 := atomic.AddInt64(&q.T, k) - k

	// Deposit the values, in order, into the usable reserved cells, in
	// order. A failed CAS means a dequeuer poisoned the cell with ⊤ (or a
	// helper committed a slow-path enqueue there); the item slides to the
	// next reserved cell.
	m := 0
	budget := q.patience
	//wfqlint:bounded(K, one fast-path CAS per cell of the k-cell reservation, k = len(vs) capped by the segment geometry)
	for j := int64(0); j < k && m < len(vs); j++ {
		c := q.findCell(h, &h.tail, i0+j)
		if atomic.CompareAndSwapPointer(&c.val, nil, vs[m]) {
			m++
			ctr.Inc(&h.stats.EnqFast)
		} else {
			ctr.Inc(&h.stats.FastCASFails)
			if budget > 0 {
				budget--
			}
		}
	}

	// Leftovers: the reserved window is spent. Each remaining item must
	// obtain at least one fresh cell id of its own (slow-path request ids
	// must never repeat), so it performs one or more per-item fast-path
	// attempts — consuming what remains of the shared PATIENCE budget —
	// and then publishes an ordinary slow-path request.
	//wfqlint:bounded(K, slow-path tail: one iteration per remaining batch element)
	for ; m < len(vs); m++ {
		v := vs[m]
		var cellID int64
		done := false
		//wfqlint:bounded(PATIENCE+1, per-item attempts drain the shared patience budget: one unconditional first attempt plus at most PATIENCE budgeted retries)
		for first := true; first || budget > 0; first = false {
			if !first {
				budget--
			}
			ctr.Inc(&h.stats.EnqBatchFAAs)
			if q.enqFast(h, v, &cellID) {
				done = true
				break
			}
			ctr.Inc(&h.stats.FastCASFails)
		}
		if done {
			ctr.Inc(&h.stats.EnqFast)
		} else {
			q.enqSlow(h, v, cellID)
			ctr.Inc(&h.stats.EnqSlow)
		}
	}

	if plainHazard {
		h.hzdp = -1 //wfqlint:allow(atomic, x86 clear: TSO makes it visible only after every earlier cell access; hazard_plain.go)
	} else {
		atomic.StoreInt64(&h.hzdp, -1)
	}
}

// DequeueBatch removes up to len(dst) values from the front of the queue,
// storing them in dst in FIFO order, and returns the number stored. The
// uncontended fast path issues exactly ONE fetch-and-add on H for the
// whole batch, reserving len(dst) consecutive cells; each reserved cell is
// then completed with the normal per-cell protocol (helpEnq + one CAS on
// the cell's deq word).
//
// A return value n < len(dst) means the queue was observed EMPTY at some
// point during the call — the same linearization guarantee Dequeue's
// ok=false provides. Reserved cells whose values were claimed by
// slow-path dequeue requests (helpers may steal cells, §3.5) yield
// nothing here; the shortfall is topped up with ordinary per-item
// dequeues, so interference alone never causes a short return.
func (q *Queue) DequeueBatch(h *Handle, dst []unsafe.Pointer) int {
	switch len(dst) {
	case 0:
		return 0
	case 1:
		v, ok := q.Dequeue(h)
		if !ok {
			return 0
		}
		dst[0] = v
		return 1
	}
	k := int64(len(dst))

	// An idle poller tests T ≤ H before reserving k cells (emptyPrecheck).
	if h.deqIdle && q.emptyPrecheck() {
		ctr.Inc(&h.stats.DeqEmpty)
		return 0
	}

	// §3.6: publish the hazard pointer before the operation; the FAA below
	// orders the publication (plainHazard).
	hz := hazardID(&h.head)
	if plainHazard {
		h.hzdp = hz //wfqlint:allow(atomic, x86 publish: the FAA on H that follows orders it before any cell access; hazard_plain.go)
	} else {
		atomic.StoreInt64(&h.hzdp, hz)
	}
	ctr.Inc(&h.stats.DeqBatchCalls)

	// One FAA reserves cells [i0, i0+k).
	ctr.Inc(&h.stats.DeqBatchFAAs)
	i0 := atomic.AddInt64(&q.H, k) - k

	// Visit EVERY reserved cell — each H index is visited exactly once
	// queue-wide, so skipping one would strand any value an enqueuer later
	// deposits there. helpEnq either yields the cell's value, poisons the
	// cell (⊤/⊤e, making it unusable for any future enqueue), or reports
	// the EMPTY condition of Invariant 6.
	n := 0
	sawEmpty := false
	//wfqlint:bounded(K, one helpEnq-backed harvest per cell of the k-cell reservation)
	for j := int64(0); j < k; j++ {
		i := i0 + j
		c := q.findCell(h, &h.head, i)
		v := q.helpEnq(h, c, i)
		if v == emptyVal {
			sawEmpty = true
			ctr.Inc(&h.stats.DeqEmpty)
			continue
		}
		if v != topVal && atomic.CompareAndSwapPointer(&c.deq, nil, topDeq) {
			dst[n] = v
			n++
			ctr.Inc(&h.stats.DeqFast)
		} else {
			// The cell is unusable (⊤) or its value was claimed by a
			// slow-path dequeue request, which will return it — never lost.
			// Either way this reserved cell yielded nothing: a fast-path
			// failure for the contention signal.
			ctr.Inc(&h.stats.FastCASFails)
		}
	}

	if n > 0 {
		// Got at least one value: help the dequeue peer before returning
		// (Invariant 12), then move to the next peer (Invariant 13). One
		// help per batch keeps helping frequency bounded: a pending slow
		// dequeue is helped within O(k·n) successful batched dequeues.
		q.helpDeq(h, q.handles[h.deqPeerIdx])
		h.deqPeerIdx++
		if h.deqPeerIdx == len(q.handles) {
			h.deqPeerIdx = 0
		}
	}

	if plainHazard {
		h.hzdp = -1 //wfqlint:allow(atomic, x86 clear: TSO makes it visible only after every earlier cell access; hazard_plain.go)
	} else {
		atomic.StoreInt64(&h.hzdp, -1)
	}
	q.cleanup(h)

	// Top up interference shortfalls with per-item dequeues (their own
	// FAA, patience and slow path) until dst is full or EMPTY is observed,
	// so a short return always witnesses emptiness.
	//wfqlint:bounded(K, at most k-n rounds: every iteration stores an item and increments n or observes EMPTY and breaks; each per-item Dequeue is itself wait-free)
	for int64(n) < k && !sawEmpty {
		v, ok := q.Dequeue(h)
		if !ok {
			sawEmpty = true
			break
		}
		dst[n] = v
		n++
	}
	h.deqIdle = int64(n) < k
	return n
}

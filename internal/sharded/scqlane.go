package sharded

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"wfqueue/internal/scq"
)

// SCQ lane mode: the sharded layer over bounded SCQ rings instead of the
// core's unbounded segment queues (WithSCQLanes). The lane topology, home
// dispatch and steal sweep are identical to the core mode; what changes is
// the memory contract. Every lane holds a fixed ring, so the whole queue
// retains at most Lanes() × lane-capacity values and the enqueue side sees
// backpressure instead of heap growth.
//
// Backpressure is PER LANE by design: a TryEnqueue targets exactly the lane
// dispatch picks and reports that lane's ErrFull. Spilling a rejected value
// into a sibling lane would silently reorder one producer's values across
// lanes and break the OrderPerProducer contract that affinity dispatch
// exists to provide — so a full home lane rejects even while other lanes
// have room. Capacity() still reports the total (lanes × lane capacity)
// because that is the retention bound the flat-RSS gate cares about.

// WithSCQLanes makes every lane a bounded SCQ ring (internal/scq) of at
// least the given capacity per lane (rounded up to a power of two, minimum
// scq.MinCapacity) instead of an unbounded core queue. The queue then
// provides the bounded contract: TryEnqueue/ErrFull backpressure, fixed
// retention of Lanes() × lane capacity values, and zero steady-state
// allocation.
func WithSCQLanes(capacity int) Option {
	return func(c *config) {
		if capacity < 1 {
			capacity = 1
		}
		c.scqCap = capacity
	}
}

// SCQMode reports whether the queue was built with WithSCQLanes.
func (q *Queue) SCQMode() bool { return q.scqCap != 0 }

// Capacity returns the total value-slot count in SCQ mode (lanes × per-lane
// ring capacity, the retention bound), and 0 in core mode (unbounded).
func (q *Queue) Capacity() int {
	if q.scqCap == 0 {
		return 0
	}
	return len(q.lanes) * q.lanes[0].sq.Capacity()
}

// LaneCapacity returns the per-lane ring capacity in SCQ mode (the bound a
// single producer's backpressure is measured against), and 0 in core mode.
func (q *Queue) LaneCapacity() int {
	if q.scqCap == 0 {
		return 0
	}
	return q.lanes[0].sq.Capacity()
}

// newSCQLanes builds the lanes of an SCQ-mode queue. scq.New fails only on
// out-of-range parameters, which the clamps in New and WithSCQLanes exclude.
func (q *Queue) newSCQLanes(maxHandles int, cfg *config) {
	for i := range q.lanes {
		q.lanes[i].id = int64(i)
		sq, err := scq.New(maxHandles, cfg.scqCap)
		if err != nil {
			panic("sharded: scq lane construction: " + err.Error())
		}
		q.lanes[i].sq = sq
	}
	q.maxHandles = maxHandles
}

// registerSCQ acquires one scq handle per lane for a freshly popped shell,
// with the same rollback discipline as the core path (RegisterOnLane).
func (q *Queue) registerSCQ(h *Handle) error {
	//wfqlint:bounded(LANES, one per-lane scq registration)
	for i := range q.lanes {
		sh, err := q.lanes[i].sq.Register()
		if err != nil {
			//wfqlint:bounded(LANES, rollback of the already-acquired lane handles)
			for j := 0; j < i; j++ {
				h.shs[j].Release()
				h.shs[j] = nil
			}
			return err
		}
		h.shs[i] = sh
	}
	return nil
}

// TryEnqueue appends v to the lane dispatch picks for h and reports
// scq.ErrFull when that lane's ring is full — the per-lane backpressure
// contract (see the package note: a full home lane rejects by design). In
// core mode the lanes are unbounded and TryEnqueue is a plain Enqueue that
// always returns nil.
func (q *Queue) TryEnqueue(h *Handle, v unsafe.Pointer) error {
	if q.scqCap == 0 {
		q.Enqueue(h, v)
		return nil
	}
	li := q.pickLane(h)
	if err := h.shs[li].TryEnqueue(v); err != nil {
		ctrInc(&h.stats.FullRejects)
		return err
	}
	ctrInc(&h.stats.Enqueues)
	return nil
}

// scqEnqueue is the blocking enqueue of SCQ mode: it retries the picked
// lane until a consumer frees a slot, yielding between attempts.
func (q *Queue) scqEnqueue(h *Handle, v unsafe.Pointer) {
	li := q.pickLane(h)
	sh := h.shs[li]
	if sh.TryEnqueue(v) == nil {
		ctrInc(&h.stats.Enqueues)
		return
	}
	ctrInc(&h.stats.FullRejects)
	//wfqlint:bounded(RETRY, backpressure wait, not coordination: each retry fails only while the lane ring holds its full capacity of values, and blocking-until-room is the documented contract of the bounded queue's Enqueue (DESIGN.md §7) — callers that must not wait use TryEnqueue)
	for {
		runtime.Gosched()
		if sh.TryEnqueue(v) == nil {
			ctrInc(&h.stats.Enqueues)
			return
		}
	}
}

// scqDequeue is the SCQ-mode dequeue: drain the home lane, then sweep the
// others exactly like the core-mode Dequeue (hint pass over non-empty-looking
// lanes, then a definitive pass whose per-lane EMPTY returns are the
// emptiness witnesses of the relaxed contract).
func (q *Queue) scqDequeue(h *Handle) (unsafe.Pointer, bool) {
	if v, ok := h.shs[h.home].Dequeue(); ok {
		ctrInc(&h.stats.Dequeues)
		return v, true
	}
	n := len(q.lanes)
	if n == 1 {
		ctrInc(&h.stats.EmptyDequeues)
		return nil, false
	}
	ctrInc(&h.stats.Sweeps)
	//wfqlint:bounded(LANES, hint pass: at most one steal attempt per non-home lane)
	for off := 1; off < n; off++ {
		li := h.sweepLane(off, nil)
		if q.lanes[li].sq.Size() == 0 {
			continue
		}
		if v, ok := q.scqStealFrom(h, li); ok {
			return v, true
		}
	}
	//wfqlint:bounded(LANES, definitive pass: one per-lane dequeue for the EMPTY witness)
	for off := 1; off < n; off++ {
		if v, ok := q.scqStealFrom(h, h.sweepLane(off, nil)); ok {
			return v, true
		}
	}
	ctrInc(&h.stats.EmptyDequeues)
	return nil, false
}

// scqStealFrom performs one real dequeue against SCQ lane li on behalf of a
// sweeping consumer, doing the steal accounting on success.
func (q *Queue) scqStealFrom(h *Handle, li int) (unsafe.Pointer, bool) {
	v, ok := h.shs[li].Dequeue()
	if !ok {
		return nil, false
	}
	atomic.AddUint64(&q.lanes[li].stolenFrom, 1)
	ctrInc(&h.stats.Steals)
	ctrInc(&h.stats.Dequeues)
	return v, true
}

// scqEnqueueBatch appends vs in order through the blocking enqueue. The
// values all land in h's dispatch lane one by one; there is no k-cell
// reservation on a ring, so the batch is a loop by construction.
func (q *Queue) scqEnqueueBatch(h *Handle, vs []unsafe.Pointer) {
	//wfqlint:bounded(K, one blocking enqueue per batch element)
	for _, v := range vs {
		q.scqEnqueue(h, v)
	}
}

// scqDequeueBatch fills dst through repeated SCQ-mode dequeues; a short
// return carries the same per-lane EMPTY witnesses as scqDequeue's ok=false.
func (q *Queue) scqDequeueBatch(h *Handle, dst []unsafe.Pointer) int {
	//wfqlint:bounded(K, one dequeue per dst slot, short return on the first miss)
	for i := range dst {
		v, ok := q.scqDequeue(h)
		if !ok {
			return i
		}
		dst[i] = v
	}
	return len(dst)
}

// SCQStats sums the per-lane scq counter maps (zero-valued in core mode).
func (q *Queue) SCQStats() map[string]uint64 {
	m := map[string]uint64{}
	if q.scqCap == 0 {
		return m
	}
	for i := range q.lanes {
		for k, v := range q.lanes[i].sq.Stats() {
			m[k] += v
		}
	}
	return m
}

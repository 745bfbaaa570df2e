package core

import (
	"unsafe"

	"wfqueue/internal/ctr"
)

// Transparent operation coalescing (DESIGN.md §8). The paper's hot path
// costs one FAA per operation; the batched driver (batch.go) showed k
// cells per FAA, but only for callers who hand us a slice. This layer
// makes the amortization transparent for one-value-at-a-time callers:
// every handle owns a small producer buffer that accumulates enqueues and
// flushes them through the k-cell single-FAA reservation, and a drain
// buffer that harvests a contiguous run of cells per dequeue-side FAA.
//
// Everything here is owner-local (fixed arrays inside the Handle, no
// shared words, no allocation), so the coalescing layer adds nothing to
// the concurrent protocol: the queue's cell invariants only ever see the
// existing EnqueueBatch/DequeueBatch/Enqueue/Dequeue entry points.
//
// Wait-freedom survives because every buffer bound is compile-time:
// a flush is one EnqueueBatch of at most CoalesceMaxWindow values (bounded
// by the batch argument of Lemma 4.3/4.4), a refill is one DequeueBatch of
// at most CoalesceMaxWindow cells, and the refill loop in CoalescedDequeue
// runs at most twice (the one intervening Flush empties the producer
// buffer). Latency is bounded by the op-count deadline: a buffered value
// waits at most coalesceDeadline of its producer's operations before it is
// forced into the queue, and Release flushes unconditionally.
//
// Ordering fine print: values buffered by handle A are invisible to other
// threads until A flushes, so cross-thread FIFO becomes per-producer FIFO
// (each flush deposits its run in order through one reservation). With
// window 1 the layer is a pure passthrough — bit-for-bit the plain
// operations, strict FIFO, which is what the lincheck gate verifies.

const (
	// CoalesceMaxWindow is the compile-time ceiling on the coalescing
	// window: the producer and drain buffers hold this many values, and no
	// flush or refill ever moves more in one reservation. The wait-freedom
	// step bounds use this constant, not the configured window.
	CoalesceMaxWindow = 64

	// coalesceDeadline bounds buffering latency in producer operations: a
	// handle that has accumulated this many coalesced enqueues since its
	// last flush flushes even if the window has not filled (a slow trickle
	// of singleton enqueues must not strand a value indefinitely while the
	// producer stays active; an idle producer's tail is covered by the
	// explicit Flush and the Release auto-flush).
	coalesceDeadline = 256
)

// WithCoalescing sets the enqueue coalescing window: values enqueued
// through CoalescedEnqueue accumulate in a per-handle buffer and enter the
// queue window-at-a-time through one FAA. window is clamped to
// [1, CoalesceMaxWindow]; 1 (the default) disables buffering entirely —
// the coalesced entry points degenerate to the plain operations.
func WithCoalescing(window int) Option {
	return func(c *config) {
		if window < 1 {
			window = 1
		}
		if window > CoalesceMaxWindow {
			window = CoalesceMaxWindow
		}
		c.coalesce = window
	}
}

// CoalesceWindow returns the configured coalescing window (1 = disabled).
func (q *Queue) CoalesceWindow() int { return q.coalesce }

// CoalescedEnqueue appends v through handle h's producer buffer. The value
// enters the shared queue when the buffer reaches the window,
// when the op-count deadline expires, on an explicit Flush, or on Release
// — whichever comes first. With window 1 it is exactly Enqueue. As with
// Enqueue, v must not be nil (the paper's ⊥); the check happens here, at
// call time, not at the deferred flush.
func (q *Queue) CoalescedEnqueue(h *Handle, v unsafe.Pointer) {
	if q.coalesce <= 1 {
		q.Enqueue(h, v)
		return
	}
	if v == nil || v == topVal || v == emptyVal {
		panic("core: CoalescedEnqueue of nil or reserved sentinel")
	}
	h.cbuf[h.clen] = v
	h.clen++
	h.cops++
	if int(h.clen) >= q.coalesce {
		q.Flush(h)
	} else if h.cops >= coalesceDeadline {
		ctr.Inc(&h.stats.CoalesceDeadlineFlushes)
		q.Flush(h)
	}
}

// Flush forces handle h's buffered enqueues into the queue in order
// through one k-cell reservation (EnqueueBatch: one FAA on the
// uncontended path regardless of the buffer length). It is a no-op on an
// empty buffer. Callers that need a buffered value visible to other
// threads — a producer going idle, a pipeline stage handing off — call
// this; Release calls it implicitly.
func (q *Queue) Flush(h *Handle) {
	n := h.clen
	h.cops = 0
	if n == 0 {
		return
	}
	q.EnqueueBatch(h, h.cbuf[:n])
	//wfqlint:bounded(WINDOW, clears at most CoalesceMaxWindow staged slots)
	for i := int32(0); i < n; i++ {
		h.cbuf[i] = nil
	}
	h.clen = 0
	ctr.Inc(&h.stats.CoalesceFlushes)
	ctr.Add(&h.stats.CoalesceFlushedVals, uint64(n))
}

// CoalescedDequeue removes one value through handle h's drain buffer. A
// drain-buffer hit costs no shared-memory operation at all; a miss
// harvests a contiguous run of up to the window's cells with one FAA
// (DequeueBatch) and serves the run from the buffer. With window 1 it is
// exactly Dequeue.
//
// The EMPTY contract is preserved: a false return means the shared queue
// was observed empty (DequeueBatch/Dequeue's linearization point) at a
// moment when this handle held no unflushed values of its own — the
// refill loop flushes the producer buffer before concluding EMPTY, so a
// thread can never report an empty queue while it is itself holding the
// values that would refute it.
func (q *Queue) CoalescedDequeue(h *Handle) (unsafe.Pointer, bool) {
	// Dequeues tick the op-count deadline too: a handle holding buffered
	// enqueues while it drains (refills served from other producers' values)
	// must still publish them within coalesceDeadline of its own operations.
	// Without this tick cops and clen advance in lockstep and the window
	// always fills first, making the latency bound vacuous.
	if h.clen > 0 {
		h.cops++
		if h.cops >= coalesceDeadline {
			ctr.Inc(&h.stats.CoalesceDeadlineFlushes)
			q.Flush(h)
		}
	}
	if h.dhead < h.dlen {
		v := h.dbuf[h.dhead]
		h.dbuf[h.dhead] = nil
		h.dhead++
		return v, true
	}
	if q.coalesce <= 1 {
		return q.Dequeue(h)
	}
	//wfqlint:bounded(2, at most two rounds: a round either returns a refilled value, or — exactly once — flushes the producer buffer (leaving clen == 0) and retries; with clen == 0 an empty refill returns false. Each refill is one wait-free DequeueBatch/Dequeue)
	for {
		if n := q.coalesceRefill(h); n > 0 {
			v := h.dbuf[0]
			h.dbuf[0] = nil
			h.dhead = 1
			return v, true
		}
		if h.clen == 0 {
			return nil, false
		}
		// The queue looked empty but this handle holds unflushed values:
		// publish them, then look again.
		q.Flush(h)
	}
}

// coalesceRefill harvests one run of cells into h's drain buffer and
// returns the number of values obtained; 0 means EMPTY was witnessed. The
// run length is the window clamped by the instantaneous queue
// size: reserving dequeue indices past T poisons cells and shoves
// concurrent enqueuers onto the slow path, so a near-empty queue is
// drained with scalar dequeues instead of a speculative batch.
func (q *Queue) coalesceRefill(h *Handle) int {
	h.dhead, h.dlen = 0, 0
	w := int64(q.coalesce)
	if sz := q.Size(); sz < w {
		w = sz
	}
	if w <= 1 {
		v, ok := q.Dequeue(h)
		if !ok {
			return 0
		}
		h.dbuf[0] = v
		h.dlen = 1
		return 1
	}
	n := q.DequeueBatch(h, h.dbuf[:w])
	h.dlen = int32(n)
	if n > 0 {
		ctr.Inc(&h.stats.CoalesceRefills)
	}
	return n
}

// Drained reports how many refilled values are waiting in h's drain
// buffer (diagnostic/test use).
func (h *Handle) Drained() int { return int(h.dlen - h.dhead) }

// Buffered reports how many unflushed enqueues h's producer buffer holds
// (diagnostic/test use).
func (h *Handle) Buffered() int { return int(h.clen) }

// releaseFlush empties both coalescing buffers back into the shared queue
// as part of Release: buffered enqueues flush normally, and undrained
// refill values are re-enqueued (they were already dequeued from the
// shared structure, so dropping them would lose values; re-enqueueing
// keeps the run in order but may place it after values flushed in
// between — the per-producer-FIFO fine print DESIGN.md §8 documents).
// Runs while the handle is still checked out, since the flush may take an
// enqueue slow path.
func (q *Queue) releaseFlush(h *Handle) {
	q.Flush(h)
	if h.dhead < h.dlen {
		q.EnqueueBatch(h, h.dbuf[h.dhead:h.dlen])
		//wfqlint:bounded(WINDOW, clears the drained consumer buffer: at most CoalesceMaxWindow slots)
		for i := h.dhead; i < h.dlen; i++ {
			h.dbuf[i] = nil
		}
		h.dhead, h.dlen = 0, 0
	}
}

package wfqueue

// The bounded façade: a Queue[T], whose handles, boxes and counters it
// uses unchanged, plus one cache-line-padded occupancy counter (DESIGN.md
// §7.1). TryEnqueue takes a unit of the counter before it enqueues
// and gives it back when the counter was already at capacity; Dequeue
// returns a unit after the core hands it a value. The counter never falls
// below the number of values in the core, so the queue never holds more
// than Capacity() values.
//
// Capacity bounds the values, not the memory. The core's segments are
// recycled through its §3.6 reclamation, so memory stays bounded while
// every handle finishes its operation in bounded time. A handle descheduled
// inside an operation holds a hazard that pins every segment after it, and
// the other handles' traffic keeps linking new ones until it resumes.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"

	"wfqueue/internal/core"
	"wfqueue/internal/pad"
)

// ErrFull is returned by BoundedHandle.TryEnqueue when the queue holds its
// capacity of values, counting the operations in flight: the backpressure
// signal of the bounded contract.
var ErrFull = errors.New("wfqueue: queue full")

const (
	// minBoundedCapacity is the smallest capacity NewBounded gives out.
	minBoundedCapacity = 4
	// maxBoundedCapacity is the largest power of two an int holds, so the
	// rounded capacity stays a positive int.
	maxBoundedCapacity = math.MaxInt>>1 + 1
	// maxBoundedHandles is the core's handle-pool limit (24-bit 1-based
	// indices, minus one); core.New would clamp anything larger.
	maxBoundedHandles = 1<<24 - 2
)

// BoundedQueue is a bounded FIFO queue holding values of type T. A producer
// that outruns its consumers sees ErrFull instead of an ever longer queue.
// Both operations run the wait-free core, so TryEnqueue and Dequeue complete
// in a bounded number of steps, as Queue[T]'s do.
type BoundedQueue[T any] struct {
	// q is the unbounded queue the handles run on: its core and box pools.
	q        Queue[T]
	capacity int64

	_ pad.CacheLinePad
	// n is the occupancy counter: values in the core, plus accepted
	// enqueues not yet in it, plus dequeues that took a value and have not
	// yet given their unit back, plus rejected enqueues about to give
	// theirs back. Every operation touches it, so it has its own line.
	n atomic.Int64
	_ pad.CacheLinePad
}

// NewBounded creates a bounded queue with at least the requested value
// capacity (rounded up to a power of two, minimum 4) for up to maxHandles
// concurrently registered handles.
func NewBounded[T any](maxHandles, capacity int) (*BoundedQueue[T], error) {
	if maxHandles < 1 {
		return nil, fmt.Errorf("wfqueue: maxHandles %d < 1", maxHandles)
	}
	if maxHandles > maxBoundedHandles {
		return nil, fmt.Errorf("wfqueue: maxHandles %d too large", maxHandles)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("wfqueue: capacity %d < 1", capacity)
	}
	if capacity > maxBoundedCapacity {
		return nil, fmt.Errorf("wfqueue: capacity %d too large", capacity)
	}
	c := minBoundedCapacity
	if capacity > c {
		c = 1 << bits.Len(uint(capacity-1))
	}
	return &BoundedQueue[T]{q: Queue[T]{q: core.New(maxHandles)}, capacity: int64(c)}, nil
}

// Register checks out a BoundedHandle. It returns ErrTooManyHandles when
// maxHandles handles are already in use. Like Queue[T].Register, a handle
// that becomes garbage without Release is returned by a finalizer.
func (q *BoundedQueue[T]) Register() (*BoundedHandle[T], error) {
	h, err := q.q.q.Register()
	if err != nil {
		return nil, err
	}
	hh := &BoundedHandle[T]{q: q}
	q.q.attach(&hh.h, h)
	return hh, nil
}

// Capacity returns the most values the queue holds (the rounded-up power of
// two). TryEnqueue reports ErrFull when the queued values plus the
// operations in flight reach it.
func (q *BoundedQueue[T]) Capacity() int { return int(q.capacity) }

// MaxHandles returns the maximum number of concurrently registered handles.
func (q *BoundedQueue[T]) MaxHandles() int { return q.q.Capacity() }

// Len returns an instantaneous approximation of the queue length. It is
// exact only while the queue is quiescent.
func (q *BoundedQueue[T]) Len() int { return int(min(max(q.n.Load(), 0), q.capacity)) }

// Stats returns the queue's execution-path counters, summed across handles,
// keyed as Counters.Map keys them. enq_full counts the enqueue attempts
// that met a full queue: TryEnqueue's ErrFull, and each retry of the
// blocking Enqueue.
func (q *BoundedQueue[T]) Stats() map[string]uint64 { return q.q.Stats().Map() }

// BoundedHandle is a registration of one concurrent participant in a
// BoundedQueue. A BoundedHandle must be used by at most one goroutine at a
// time.
type BoundedHandle[T any] struct {
	// h is the handle the operations run on: its registration, box cache
	// and Release. It must stay the first field (Queue[T].attach).
	h Handle[T]
	q *BoundedQueue[T]
}

// reserve takes one unit of occupancy for an enqueue, or counts a
// rejection and reports false when the queue was already at capacity. A
// load first turns away an enqueue that meets a full counter without
// writing its line; otherwise the add decides, and a loser gives its unit
// straight back. Both tests are the same FULL condition: the count before
// the add is ≥ capacity.
func (h *BoundedHandle[T]) reserve() bool {
	q := h.q
	if q.n.Load() < q.capacity {
		if q.n.Add(1) <= q.capacity {
			return true
		}
		q.n.Add(-1)
	}
	h.h.h.CountFull()
	return false
}

// TryEnqueue appends v to the queue, or returns ErrFull when the queued
// values plus the operations in flight reached Capacity() during the call:
// the moment for the caller to shed load, block on its own terms, or drop
// the value. A rejection takes no value box, so even an enqueue loop running
// entirely against a full queue allocates nothing.
func (h *BoundedHandle[T]) TryEnqueue(v T) error {
	h.h.check()
	if !h.reserve() {
		return ErrFull
	}
	h.h.put(v)
	return nil
}

// Enqueue appends v, waiting for a consumer to free room when the queue is
// full (yielding between attempts). This is a convenience for callers that
// want blocking backpressure semantics; it spins on a full queue, so it is
// not wait-free across one — callers that need a bounded-step enqueue use
// TryEnqueue and handle ErrFull themselves.
func (h *BoundedHandle[T]) Enqueue(v T) {
	h.h.check()
	for !h.reserve() {
		runtime.Gosched()
	}
	h.h.put(v)
}

// Dequeue removes and returns the oldest value. ok is false when the queue
// was observed empty (a valid linearization point at which it held no
// values).
func (h *BoundedHandle[T]) Dequeue() (v T, ok bool) {
	if v, ok = h.h.Dequeue(); ok {
		h.q.n.Add(-1)
	}
	return v, ok
}

// Release returns the handle to the queue's pool. Any further operation on
// the handle panics; Release itself is idempotent.
func (h *BoundedHandle[T]) Release() { h.h.Release() }

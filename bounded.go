package wfqueue

// The bounded façade: the same wait-free core as Queue[T] (internal/core,
// the paper's FAA queue) plus one cache-line-padded occupancy counter
// (DESIGN.md §7.1). TryEnqueue takes a unit of the counter before it enqueues
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
	"unsafe"

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
	q        *core.Queue
	capacity int64
	// boxes is the handles' shared supply of value-box blocks (boxCache).
	boxes boxPools

	_ pad.CacheLinePad
	// n is the occupancy counter: values in the core, plus accepted
	// enqueues not yet in it, plus dequeues that took a value and have not
	// yet given their unit back, plus rejected enqueues about to give
	// theirs back. Every operation touches it, so it has its own line.
	n atomic.Int64
	_ pad.CacheLinePad
	// full counts ErrFull rejections. Only the rejection path writes it.
	full atomic.Uint64
	_    pad.CacheLinePad
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
	return &BoundedQueue[T]{q: core.New(maxHandles), capacity: int64(c)}, nil
}

// Register checks out a BoundedHandle. It returns ErrTooManyHandles when
// maxHandles handles are already in use. Like Queue[T].Register, a handle
// that becomes garbage without Release is returned by a finalizer.
func (q *BoundedQueue[T]) Register() (*BoundedHandle[T], error) {
	h, err := q.q.Register()
	if err != nil {
		return nil, err
	}
	hh := &BoundedHandle[T]{q: q, h: h, boxCache: newBoxCache[T](&q.boxes)}
	runtime.SetFinalizer(hh, func(hh *BoundedHandle[T]) { hh.release() })
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

// Stats returns the queue's execution-path counters, summed across handles:
// every core counter under its snake_case field name (Counters.EnqFast is
// "enq_fast", Counters.DeqEmpty is "deq_empty"; the key table beside
// Counters in internal/core lists them all), plus
//
//   - enq_full: enqueue attempts that met a full queue (TryEnqueue's
//     ErrFull, and each retry of the blocking Enqueue)
//
// A rejected enqueue never reaches the core, so enq_full is counted here.
func (q *BoundedQueue[T]) Stats() map[string]uint64 {
	m := q.q.Stats().Map()
	m["enq_full"] = q.full.Load()
	return m
}

// reserve takes one unit of occupancy for an enqueue, or reports false
// when the queue was already at capacity. A load first turns away an
// enqueue that meets a full counter without writing its line; otherwise
// the add decides, and a loser gives its unit straight back. Both tests
// are the same FULL condition: the count before the add is ≥ capacity.
func (q *BoundedQueue[T]) reserve() bool {
	if q.n.Load() < q.capacity {
		if q.n.Add(1) <= q.capacity {
			return true
		}
		q.n.Add(-1)
	}
	q.full.Add(1)
	return false
}

// BoundedHandle is a registration of one concurrent participant in a
// BoundedQueue. A BoundedHandle must be used by at most one goroutine at a
// time.
type BoundedHandle[T any] struct {
	q        *BoundedQueue[T]
	h        *core.Handle
	released atomic.Bool
	boxCache[T]
}

func (h *BoundedHandle[T]) check() {
	if h.released.Load() {
		panic("wfqueue: operation on released BoundedHandle")
	}
}

// TryEnqueue appends v to the queue, or returns ErrFull when the queued
// values plus the operations in flight reached Capacity() during the call:
// the moment for the caller to shed load, block on its own terms, or drop
// the value. A rejection takes no value box, so even an enqueue loop running
// entirely against a full queue allocates nothing.
func (h *BoundedHandle[T]) TryEnqueue(v T) error {
	h.check()
	if !h.q.reserve() {
		return ErrFull
	}
	b := h.getBox()
	*b = v
	h.q.q.Enqueue(h.h, unsafe.Pointer(b))
	return nil
}

// Enqueue appends v, waiting for a consumer to free room when the queue is
// full (yielding between attempts). This is a convenience for callers that
// want blocking backpressure semantics; it spins on a full queue, so it is
// not wait-free across one — callers that need a bounded-step enqueue use
// TryEnqueue and handle ErrFull themselves.
func (h *BoundedHandle[T]) Enqueue(v T) {
	h.check()
	for !h.q.reserve() {
		runtime.Gosched()
	}
	b := h.getBox()
	*b = v
	h.q.q.Enqueue(h.h, unsafe.Pointer(b))
}

// Dequeue removes and returns the oldest value. ok is false when the queue
// was observed empty (a valid linearization point at which it held no
// values).
func (h *BoundedHandle[T]) Dequeue() (v T, ok bool) {
	h.check()
	p, ok := h.q.q.Dequeue(h.h)
	if !ok {
		var zero T
		return zero, false
	}
	h.q.n.Add(-1)
	b := (*T)(p)
	v = *b
	h.putBox(b)
	return v, true
}

// Release returns the handle to the queue's pool. Any further operation on
// the handle panics; Release itself is idempotent.
func (h *BoundedHandle[T]) Release() {
	if h.released.Swap(true) {
		return
	}
	runtime.SetFinalizer(h, nil)
	h.h.Release()
}

func (h *BoundedHandle[T]) release() {
	if !h.released.Swap(true) {
		h.h.Release()
	}
}

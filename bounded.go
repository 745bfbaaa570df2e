package wfqueue

// The bounded façade: a typed front for internal/scq, the cache-resident SCQ
// ring (DESIGN.md §7). Where Queue[T] grows segments without bound when
// producers outrun consumers, BoundedQueue[T] holds a capacity fixed at
// construction and pushes back: TryEnqueue returns ErrFull at a linearizable
// point where all capacity slots held in-flight values. Everything — the two
// rings, the value slots, the handle pool — is preallocated in NewBounded,
// so a warm queue's operations perform zero heap allocations and its memory
// footprint stays flat no matter how far the enqueue side runs ahead.

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"wfqueue/internal/scq"
)

// ErrFull is returned by BoundedHandle.TryEnqueue when the queue's capacity
// slots all hold in-flight values: the backpressure signal of the bounded
// contract.
var ErrFull = scq.ErrFull

// BoundedQueue is a bounded FIFO queue holding values of type T. Unlike
// Queue[T] it never allocates after construction: a producer that outruns
// its consumers sees ErrFull instead of heap growth. Dequeues keep a bounded
// step count through the helping layer documented in DESIGN.md §7.
type BoundedQueue[T any] struct {
	q *scq.Queue
	// boxes is the shared spill for the handles' value boxes (boxCache).
	boxes sync.Pool
}

// NewBounded creates a bounded queue with at least the requested value
// capacity (rounded up to a power of two, minimum scq.MinCapacity) for up to
// maxHandles concurrently registered handles. All memory the queue will ever
// own is allocated here.
func NewBounded[T any](maxHandles, capacity int) (*BoundedQueue[T], error) {
	q, err := scq.New(maxHandles, capacity)
	if err != nil {
		return nil, err
	}
	bq := &BoundedQueue[T]{q: q}
	bq.boxes.New = newBox[T]
	return bq, nil
}

// Register checks out a BoundedHandle. It returns ErrTooManyHandles when
// maxHandles handles are already in use. Like Queue[T].Register, a handle
// that becomes garbage without Release is returned by a finalizer.
func (q *BoundedQueue[T]) Register() (*BoundedHandle[T], error) {
	h, err := q.q.Register()
	if err != nil {
		if errors.Is(err, scq.ErrTooManyHandles) {
			return nil, ErrTooManyHandles
		}
		return nil, err
	}
	hh := &BoundedHandle[T]{h: h, boxCache: newBoxCache[T](&q.boxes)}
	runtime.SetFinalizer(hh, func(hh *BoundedHandle[T]) { hh.release() })
	return hh, nil
}

// Capacity returns the number of value slots (the rounded-up power of two):
// the exact retention bound, and the fill level at which TryEnqueue reports
// ErrFull.
func (q *BoundedQueue[T]) Capacity() int { return q.q.Capacity() }

// MaxHandles returns the maximum number of concurrently registered handles.
func (q *BoundedQueue[T]) MaxHandles() int { return q.q.MaxHandles() }

// Len returns an instantaneous approximation of the queue length. It is
// exact only while the queue is quiescent.
func (q *BoundedQueue[T]) Len() int { return q.q.Size() }

// Stats returns the queue's execution-path counters (enqueues, ErrFull
// rejections, fast/slow/helped dequeues), summed across handles.
func (q *BoundedQueue[T]) Stats() map[string]uint64 { return q.q.Stats() }

// BoundedHandle is a registration of one concurrent participant in a
// BoundedQueue. A BoundedHandle must be used by at most one goroutine at a
// time.
type BoundedHandle[T any] struct {
	h        *scq.Handle
	released atomic.Bool
	boxCache[T]
}

func (h *BoundedHandle[T]) check() {
	if h.released.Load() {
		panic("wfqueue: operation on released BoundedHandle")
	}
}

// TryEnqueue appends v to the queue, or returns ErrFull when all capacity
// slots held in-flight values at a linearizable point during the call — the
// moment for the caller to shed load, block on its own terms, or drop the
// value. A rejected value's box is recycled before returning, so even an
// enqueue loop running entirely against a full queue allocates nothing.
func (h *BoundedHandle[T]) TryEnqueue(v T) error {
	h.check()
	b := h.getBox()
	*b = v
	if err := h.h.TryEnqueue(unsafe.Pointer(b)); err != nil {
		h.putBox(b)
		return err
	}
	return nil
}

// Enqueue appends v, waiting for a consumer to free a slot when the queue is
// full (yielding between attempts). This is a convenience for callers that
// want blocking backpressure semantics; it spins on ErrFull, so it is not
// wait-free across a full queue — callers that need a bounded-step enqueue
// use TryEnqueue and handle ErrFull themselves.
func (h *BoundedHandle[T]) Enqueue(v T) {
	h.check()
	b := h.getBox()
	*b = v
	for h.h.TryEnqueue(unsafe.Pointer(b)) != nil {
		runtime.Gosched()
	}
}

// Dequeue removes and returns the oldest value. ok is false when the queue
// was observed empty (a valid linearization point at which it held no
// values).
func (h *BoundedHandle[T]) Dequeue() (v T, ok bool) {
	h.check()
	p, ok := h.h.Dequeue()
	if !ok {
		var zero T
		return zero, false
	}
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

// Package wfqueue is a fast wait-free multi-producer multi-consumer FIFO
// queue for Go — an implementation of Chaoran Yang and John Mellor-Crummey,
// "A Wait-free Queue as Fast as Fetch-and-Add" (PPoPP 2016).
//
// The queue coordinates enqueuers and dequeuers with fetch-and-add on its
// head and tail indices instead of CAS retry loops, so throughput does not
// collapse under contention; and every operation completes in a bounded
// number of steps regardless of how other goroutines are scheduled
// (wait-freedom), because stalled operations publish requests that peers
// help complete.
//
// # Usage
//
// A Queue is created for a maximum number of concurrent participants; each
// participating goroutine registers a Handle and performs operations
// through it:
//
//	q := wfqueue.New[string](8) // up to 8 concurrent handles
//	h, err := q.Register()
//	if err != nil { ... }
//	defer h.Release()
//	h.Enqueue("hello")
//	v, ok := h.Dequeue() // ok=false when the queue is empty
//
// Handles exist because the algorithm's helping ring, hazard pointers and
// segment hints are per-thread state (the paper's handle_t). A Handle may
// be used by one goroutine at a time; Release returns it for reuse so a
// pool of workers larger than the momentary concurrency can share a queue.
// Register and Release are themselves lock-free: the slot comes from a
// generation-tagged free list inside the core queue (DESIGN.md §6), which
// allocates nothing. Register does allocate three objects: the Handle, its
// 256-slot box free list and its finalizer record. Short-lived goroutines
// can still register per task:
//
//	go func() {
//		h, err := q.Register()
//		if err != nil { ... } // > maxHandles goroutines momentarily active
//		defer h.Release()
//		h.Enqueue(job)
//	}()
//
// The package-level documentation of internal/core describes the algorithm
// port in detail; DESIGN.md maps the paper's listings, tables and figures
// to this repository.
package wfqueue

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"wfqueue/internal/core"
)

// Queue is a wait-free FIFO queue holding values of type T.
type Queue[T any] struct {
	q *core.Queue
	// boxes is the handles' shared supply of value-box blocks (boxCache).
	boxes boxPools
}

// Option configures a Queue at construction time.
type Option = core.Option

// WithPatience sets how many times an operation retries its FAA+CAS fast
// path before publishing a helping request (default 10, the paper's WF-10;
// 0 gives the paper's WF-0, which exercises the slow path on first
// failure). Values are clamped to [0, 16], the bound the wait-freedom
// certificate assumes.
func WithPatience(p int) Option { return core.WithPatience(p) }

// WithSegmentShift sets the log2 of the cells per segment (default 10).
// Smaller segments reclaim memory sooner; larger segments amortize
// allocation across more operations.
func WithSegmentShift(s uint) Option { return core.WithSegmentShift(s) }

// WithMaxGarbage sets how many retired segments may accumulate before a
// dequeue triggers reclamation (default 2×maxHandles).
func WithMaxGarbage(g int64) Option { return core.WithMaxGarbage(g) }

// WithCoalescing sets the operation-coalescing window (default 1 =
// disabled): each Handle buffers up to window enqueued values and publishes
// them through one fetch-and-add, and dequeues harvest runs of values per
// FAA, amortizing coordination transparently for one-value-at-a-time
// callers. window is clamped to [1, 64] at construction.
//
// Coalescing trades visibility latency for throughput: a value becomes
// visible to other goroutines when its window flushes — on fill, after a
// bounded number of the producer's operations, on Handle.Flush, or on
// Release — rather than at the Enqueue call. Cross-goroutine FIFO therefore
// weakens to per-producer FIFO (each flush deposits its run in order).
// With window 1 every operation is exactly the plain one; wait-freedom is
// unchanged at any window, since every buffer bound is compile-time.
func WithCoalescing(window int) Option { return core.WithCoalescing(window) }

// New creates a queue that supports up to maxHandles concurrently
// registered handles. maxHandles fixes the size of the helping ring, as in
// the paper; handles can be released and re-registered freely.
func New[T any](maxHandles int, opts ...Option) *Queue[T] {
	return &Queue[T]{q: core.New(maxHandles, opts...)}
}

// Register checks out a Handle. It returns ErrTooManyHandles when
// maxHandles handles are already in use.
//
// A Handle that becomes garbage without Release is returned to the pool by
// a finalizer, so a worker goroutine that exits abnormally cannot leak its
// slot permanently; explicit Release remains the reliable (and immediate)
// path.
func (q *Queue[T]) Register() (*Handle[T], error) {
	h, err := q.q.Register()
	if err != nil {
		return nil, err
	}
	hh := new(Handle[T])
	q.attach(hh, h)
	return hh, nil
}

// attach builds hh around the checked-out core handle h and arms the
// finalizer that returns h's slot once hh becomes garbage. The finalizer
// belongs to the allocation hh starts, so hh must be its first word: a
// BoundedHandle keeps its Handle as its first field and gets the same
// lifecycle.
func (q *Queue[T]) attach(hh *Handle[T], h *core.Handle) {
	hh.q, hh.h, hh.cw = q.q, h, q.q.CoalesceWindow()
	hh.boxCache = newBoxCache[T](&q.boxes)
	runtime.SetFinalizer(hh, (*Handle[T]).release)
}

// Capacity returns the maximum number of concurrently registered handles.
func (q *Queue[T]) Capacity() int { return q.q.Capacity() }

// CoalesceWindow returns the operation-coalescing window configured with
// WithCoalescing (1 = coalescing disabled).
func (q *Queue[T]) CoalesceWindow() int { return q.q.CoalesceWindow() }

// Len returns an instantaneous approximation of the queue length. It is
// exact only while the queue is quiescent.
func (q *Queue[T]) Len() int { return int(q.q.Size()) }

// Counters are a queue's execution-path counters, the paper's Table 2
// instrumentation: operations completed on the fast and slow paths (EnqFast,
// EnqSlow, DeqFast, DeqSlow), EMPTY dequeues (DeqEmpty), helping (HelpEnq,
// HelpDeq), reclamation and segment reuse (Cleanups, Segments, SegAllocs,
// ...), batching and coalescing, and a bounded queue's ErrFull rejections
// (EnqFull, always 0 on a Queue). Add sums two snapshots; Map keys each
// counter by its snake_case field name, the map BoundedQueue.Stats returns.
type Counters = core.Counters

// Stats returns aggregate execution-path counters: how many operations
// completed on the fast and slow paths, EMPTY dequeues, helping events and
// reclamation activity. Useful for tuning PATIENCE and for observability.
func (q *Queue[T]) Stats() Counters { return q.q.Stats() }

// ReclaimedSegments reports how many retired segments the reclamation
// scheme has freed since construction.
func (q *Queue[T]) ReclaimedSegments() uint64 { return q.q.ReclaimedSegments() }

// Handle is a registration of one concurrent participant. A Handle must be
// used by at most one goroutine at a time.
type Handle[T any] struct {
	q        *core.Queue
	h        *core.Handle
	released atomic.Bool
	// cw caches the queue's coalescing window so the batched entry points
	// can route through the drain buffer without re-reading the queue.
	cw int
	// scratch is reused across batched calls so batches of any size reuse
	// one pointer buffer. Safe because a Handle is single-goroutine by
	// contract.
	scratch []unsafe.Pointer
	// boxCache recycles value boxes: Dequeue returns the box it just
	// emptied, Enqueue takes one.
	boxCache[T]
}

func (h *Handle[T]) scratchPtrs(n int) []unsafe.Pointer {
	if cap(h.scratch) < n {
		h.scratch = make([]unsafe.Pointer, n)
	}
	return h.scratch[:n]
}

// check panics when the handle was already released: its core.Handle slot
// may have been handed to another goroutine, so continuing would corrupt a
// stranger's helping-ring state. One atomic load, negligible next to the
// operation's FAA.
func (h *Handle[T]) check() {
	if h.released.Load() {
		panic("wfqueue: operation on released Handle")
	}
}

// Enqueue appends v to the queue in a bounded number of steps. The value
// travels in a recycled box (see boxCache), so steady-state enqueues of
// any fixed-size T perform zero heap allocations.
//
// On a queue built WithCoalescing(w > 1) the value may sit in this handle's
// window until the next flush (fill, deadline, Flush, or Release) before
// other goroutines can observe it.
func (h *Handle[T]) Enqueue(v T) {
	h.check()
	h.put(v)
}

// put boxes v and enqueues it: Enqueue after its check, and the bounded
// façade's enqueues after they took a unit of occupancy.
func (h *Handle[T]) put(v T) {
	b := h.getBox()
	*b = v
	h.q.CoalescedEnqueue(h.h, unsafe.Pointer(b))
}

// Flush publishes any values this handle has buffered under WithCoalescing,
// making them visible to other goroutines. Producers call it before going
// idle or handing off; it is a no-op on an empty window (and always, when
// coalescing is disabled). Release flushes implicitly.
func (h *Handle[T]) Flush() {
	h.check()
	h.q.Flush(h.h)
}

// Dequeue removes and returns the oldest value. ok is false when the queue
// was observed empty (a valid linearization point at which it held no
// values — and, under WithCoalescing, at a moment when this handle held no
// unflushed values of its own).
func (h *Handle[T]) Dequeue() (v T, ok bool) {
	h.check()
	p, ok := h.q.CoalescedDequeue(h.h)
	if !ok {
		var zero T
		return zero, false
	}
	// A dequeued pointer is exclusively ours (each cell's value is claimed
	// once), so the box can be recycled immediately after copying out.
	b := (*T)(p)
	v = *b
	h.putBox(b)
	return v, true
}

// EnqueueBatch appends all values of vs to the queue in order. It is
// semantically equivalent to calling Enqueue once per value, but the
// uncontended case issues a single fetch-and-add on the tail index for the
// whole batch — coordination cost is amortized over len(vs) — and the
// values travel in recycled boxes, so steady-state batches allocate
// nothing. The call as a whole is not atomic: a concurrent dequeuer may
// observe a prefix of the batch, but intra-batch FIFO order is always
// preserved. Wait-freedom is unchanged (a batch of k is bounded by k
// single operations).
func (h *Handle[T]) EnqueueBatch(vs []T) {
	h.check()
	if len(vs) == 0 {
		return
	}
	// Under coalescing, publish buffered singletons first so they keep
	// their place ahead of this batch in the producer's order.
	if h.cw > 1 {
		h.q.Flush(h.h)
	}
	buf := h.scratchPtrs(len(vs))
	for i := range vs {
		b := h.getBox()
		*b = vs[i]
		buf[i] = unsafe.Pointer(b)
	}
	h.q.EnqueueBatch(h.h, buf)
	clear(buf) // the cells own the boxes now; don't pin them here
}

// DequeueBatch removes up to len(dst) values from the front of the queue,
// storing them into dst in FIFO order, and returns the number stored. The
// uncontended case issues a single fetch-and-add on the head index for the
// whole batch. A return n < len(dst) means the queue was observed empty at
// some point during the call — the batched analogue of Dequeue's ok=false.
func (h *Handle[T]) DequeueBatch(dst []T) int {
	h.check()
	if len(dst) == 0 {
		return 0
	}
	// Under coalescing the handle's drain buffer may hold already-harvested
	// values that must come out first; route per value through it (refills
	// amortize the FAA exactly as the native batch would, and a short
	// return still carries the EMPTY witness).
	if h.cw > 1 {
		for i := range dst {
			v, ok := h.Dequeue()
			if !ok {
				return i
			}
			dst[i] = v
		}
		return len(dst)
	}
	buf := h.scratchPtrs(len(dst))
	n := h.q.DequeueBatch(h.h, buf)
	for i := 0; i < n; i++ {
		b := (*T)(buf[i])
		dst[i] = *b
		h.putBox(b)
		buf[i] = nil // release the reference for the GC
	}
	return n
}

// Release returns the handle to the queue's pool. The handle must not be
// used afterwards: any further operation on it panics, since its slot may
// already belong to another goroutine. Release itself is idempotent —
// calling it again (explicitly or via the finalizer) is a no-op, so
// deferred cleanup composes with explicit release.
func (h *Handle[T]) Release() {
	if h.released.Swap(true) {
		return
	}
	runtime.SetFinalizer(h, nil)
	h.h.Release()
}

// release is the finalizer path: best-effort, idempotent.
func (h *Handle[T]) release() {
	if !h.released.Swap(true) {
		h.h.Release()
	}
}

// ErrTooManyHandles is returned by Register when every handle is in use.
var ErrTooManyHandles = core.ErrTooManyHandles

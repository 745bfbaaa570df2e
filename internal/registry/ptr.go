package registry

import (
	"unsafe"

	"wfqueue/internal/qiface"
)

// arenaSize is the per-thread value arena length (power of two).
const arenaSize = 1 << 16

// arena hands out stable addresses for enqueued values.
type arena struct {
	slots [arenaSize]uint64
	next  int
}

// put writes v into the next slot and claims it.
func (a *arena) put(v uint64) unsafe.Pointer {
	p := &a.slots[a.next&(arenaSize-1)]
	a.next++
	*p = v
	return unsafe.Pointer(p)
}

// boxVal heap-allocates a value for the checked adapters: the pointer stays
// valid for as long as any consumer can reach it, so values read back are
// always exact.
func boxVal(v uint64) unsafe.Pointer {
	p := new(uint64)
	*p = v
	return unsafe.Pointer(p)
}

// valPut returns how an adapter turns a value into the pointer its queue
// carries: a fresh heap box on the checked path (boxed, see NewChecked),
// otherwise the next slot of a per-registration arena.
func valPut(boxed bool) func(uint64) unsafe.Pointer {
	if boxed {
		return boxVal
	}
	return (&arena{}).put
}

// unptr reads a dequeued pointer back into the uint64 currency, passing an
// EMPTY verdict (ok=false) through.
func unptr(p unsafe.Pointer, ok bool) (uint64, bool) {
	if !ok {
		return 0, false
	}
	return *(*uint64)(p), true
}

// ptrAPI is the handle API of every queue here that carries pointers: the
// wait-free core (plain or coalesced), sharded, of, msqueue, ccqueue and
// kpqueue.
type ptrAPI[H any] interface {
	Register() (*H, error)
	Enqueue(h *H, p unsafe.Pointer)
	Dequeue(h *H) (unsafe.Pointer, bool)
}

// batchAPI is the native batch path of the core and sharded queues (one FAA
// per uncontended batch); the other queues get qiface.WithBatchFallback's
// loops.
type batchAPI[H any] interface {
	EnqueueBatch(h *H, ps []unsafe.Pointer)
	DequeueBatch(h *H, dst []unsafe.Pointer) int
}

// ptrQueue adapts a pointer-carrying queue to qiface's uint64 values. The
// handle's Release and the queue's native batches pass through where they
// exist; flush, when set, becomes Ops.Flush.
type ptrQueue[H any] struct {
	cfg
	q     ptrAPI[H]
	flush func(h *H)
}

func newPtr[H any](c cfg, q ptrAPI[H]) *ptrQueue[H] { return &ptrQueue[H]{cfg: c, q: q} }

func (a *ptrQueue[H]) Register() (qiface.Ops, error) {
	h, err := a.q.Register()
	if err != nil {
		return qiface.Ops{}, err
	}
	q, put := a.q, valPut(a.boxed)
	ops := qiface.Ops{
		Enqueue: func(v uint64) { q.Enqueue(h, put(v)) },
		Dequeue: func() (uint64, bool) { return unptr(q.Dequeue(h)) },
	}
	// The core Release flushes coalescing buffers first (handlepool.go),
	// so handing it through keeps qiface.Ops.Flush's no-stranded-values
	// contract.
	if r, ok := any(h).(interface{ Release() }); ok {
		ops.Release = r.Release
	}
	if flush := a.flush; flush != nil {
		ops.Flush = func() { flush(h) }
	}
	if b, ok := q.(batchAPI[H]); ok {
		// Ops are single-goroutine by contract, so one scratch buffer per
		// registration serves both batch directions.
		var buf []unsafe.Pointer
		grow := func(n int) []unsafe.Pointer {
			if cap(buf) < n {
				buf = make([]unsafe.Pointer, n)
			}
			return buf[:n]
		}
		ops.EnqueueBatch = func(vs []uint64) {
			ps := grow(len(vs))
			for i, v := range vs {
				ps[i] = put(v)
			}
			b.EnqueueBatch(h, ps)
			clear(ps)
		}
		ops.DequeueBatch = func(dst []uint64) int {
			ps := grow(len(dst))
			n := b.DequeueBatch(h, ps)
			for i, p := range ps[:n] {
				dst[i] = *(*uint64)(p)
			}
			clear(ps[:n])
			return n
		}
	}
	return qiface.WithBatchFallback(ops), nil
}

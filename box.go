package wfqueue

import "sync"

// boxFreeListCap bounds each handle's private box free list. Past it,
// boxes spill to the queue's shared sync.Pool, which rebalances
// producer-heavy vs consumer-heavy handles.
const boxFreeListCap = 256

// newBox is the New function of a queue's shared box Pool.
func newBox[T any]() any { return new(T) }

// boxCache recycles the heap cells values travel through. The queues store
// unsafe.Pointer, so both façades box each value; each dequeue hands back
// the box its value arrived in, which makes steady-state operations of any
// fixed-size T allocation-free. A handle embeds one: a private LIFO of up
// to boxFreeListCap boxes, so a balanced produce-then-consume workload
// cycles through a handful of boxes and never touches the queue's shared
// Pool, which it falls back to only when production and consumption are
// imbalanced across handles. A handle is used by one goroutine at a time,
// so the free list needs no synchronization.
type boxCache[T any] struct {
	free   []*T
	shared *sync.Pool
}

// newBoxCache pre-sizes the free list to its cap so putBox's append never
// allocates; registration is off the hot path, so the one-time allocation
// is paid there.
func newBoxCache[T any](shared *sync.Pool) boxCache[T] {
	return boxCache[T]{free: make([]*T, 0, boxFreeListCap), shared: shared}
}

// getBox produces an empty value box: from the free list, else the shared
// Pool, else (via Pool.New) the heap.
func (c *boxCache[T]) getBox() *T {
	if n := len(c.free) - 1; n >= 0 {
		b := c.free[n]
		c.free[n] = nil
		c.free = c.free[:n]
		return b
	}
	return c.shared.Get().(*T)
}

// putBox recycles an emptied box. The box is zeroed first so a recycled
// box never pins the previous value for the garbage collector.
func (c *boxCache[T]) putBox(b *T) {
	var zero T
	*b = zero
	if len(c.free) < cap(c.free) {
		c.free = append(c.free, b)
		return
	}
	c.shared.Put(b)
}

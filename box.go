package wfqueue

import "sync"

const (
	// boxFreeListCap bounds each handle's private box free list.
	boxFreeListCap = 256
	// boxBlockLen is how many boxes cross between handles at once: half a
	// free list, so a handle that spills a block, or takes one, is left
	// half full and does not have to cross again for boxBlockLen
	// operations.
	boxBlockLen = boxFreeListCap / 2
)

// boxBlock carries boxBlockLen boxes from a handle whose free list
// overflowed to a handle whose free list ran dry.
type boxBlock[T any] [boxBlockLen]*T

// boxPools is a queue's shared box supply, shared by all its handles. full
// holds *boxBlock[T] filled with zeroed boxes; empty holds the emptied
// blocks, all nil, on their way back to a spilling handle. Neither pool
// has a New function: an empty full pool means the box comes from the
// heap, an empty empty pool means the block does.
type boxPools struct {
	full, empty sync.Pool
}

// boxCache recycles the heap cells values travel through. The queues store
// unsafe.Pointer, so both façades box each value; each dequeue hands back
// the box its value arrived in, which makes steady-state operations of any
// fixed-size T allocation-free. A handle embeds one: a private LIFO of up
// to boxFreeListCap boxes. A balanced produce-then-consume handle cycles
// through a handful of boxes and never touches the shared pools. When
// boxes flow one way between handles, as in a producer→consumer pipeline,
// the consumer's full free list spills its top half as one block and the
// producer's empty free list takes one whole block, so the pools are
// touched twice per boxBlockLen values on each side rather than once per
// value. A handle is used by one goroutine at a time, so the free list
// needs no synchronization.
//
// Every box on a free list or in a block is zeroed (putBox clears it before
// anything else), so the cache never pins a dequeued value for the garbage
// collector, and an emptied block is cleared before it is pooled, so it
// pins no box.
type boxCache[T any] struct {
	free  []*T
	pools *boxPools
}

// newBoxCache pre-sizes the free list to its cap so putBox's append never
// allocates; registration is off the hot path, so the one-time allocation
// is paid there.
func newBoxCache[T any](pools *boxPools) boxCache[T] {
	return boxCache[T]{free: make([]*T, 0, boxFreeListCap), pools: pools}
}

// getBox produces an empty value box: from the free list, refilled by one
// block from the shared pool when it is empty, else from the heap.
func (c *boxCache[T]) getBox() *T {
	if len(c.free) == 0 && !c.refill() {
		return new(T)
	}
	n := len(c.free) - 1
	b := c.free[n]
	c.free[n] = nil
	c.free = c.free[:n]
	return b
}

// putBox recycles an emptied box. The box is zeroed first so a recycled
// box never pins the previous value for the garbage collector.
func (c *boxCache[T]) putBox(b *T) {
	var zero T
	*b = zero
	if len(c.free) == cap(c.free) {
		c.spill()
	}
	c.free = append(c.free, b)
}

// refill moves one full block onto the empty free list and returns the
// cleared block to the empty pool. It reports false when no block is
// pooled.
func (c *boxCache[T]) refill() bool {
	blk, _ := c.pools.full.Get().(*boxBlock[T])
	if blk == nil {
		return false
	}
	c.free = append(c.free, blk[:]...)
	clear(blk[:])
	c.pools.empty.Put(blk)
	return true
}

// spill moves the top half of the full free list into one block, reusing
// an emptied block when the pool has one, and pools it for a handle that
// runs dry.
func (c *boxCache[T]) spill() {
	blk, _ := c.pools.empty.Get().(*boxBlock[T])
	if blk == nil {
		blk = new(boxBlock[T])
	}
	top := c.free[boxBlockLen:]
	copy(blk[:], top)
	clear(top)
	c.free = c.free[:boxBlockLen]
	c.pools.full.Put(blk)
}

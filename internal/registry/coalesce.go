package registry

import (
	"unsafe"

	"wfqueue/internal/core"
	"wfqueue/internal/qiface"
)

// The operation-coalescing variants (DESIGN.md §8) are wf-10 driven through
// the core's coalescing windows: wf-coalesce at window 16, wf-coalesce-w4
// and -w64 as window-sweep probes, and wf-coalesce-w1, the window-1
// passthrough (bit-identical operations to wf-10; the lincheck gate runs
// there). Any window > 1 buffers values in the producer's handle until a
// flush, so an enqueue's visibility point moves from the call to the flush:
// those variants declare qiface.OrderPerProducer (each flush deposits the
// producer's run in order through one reservation). Every variant has a
// non-nil Ops.Flush.

// coalesceQueue builds wf-10 with the given coalescing window.
func coalesceQueue(window int) builder {
	return func(c cfg) (qiface.Queue, error) {
		q := core.New(c.n, core.WithPatience(10), core.WithCoalescing(window))
		return statsQueue{&ptrQueue[core.Handle]{c, coalesced{q}, q.Flush}, coreStats(q)}, nil
	}
}

// coalesced routes the core's scalar operations through the handle's
// windows: Enqueue buffers into the producer window, Dequeue serves from
// the drain buffer.
type coalesced struct{ *core.Queue }

func (c coalesced) Enqueue(h *core.Handle, p unsafe.Pointer) { c.CoalescedEnqueue(h, p) }

func (c coalesced) Dequeue(h *core.Handle) (unsafe.Pointer, bool) { return c.CoalescedDequeue(h) }

// EnqueueBatch flushes first so buffered singletons keep their place ahead
// of the batch.
func (c coalesced) EnqueueBatch(h *core.Handle, ps []unsafe.Pointer) {
	c.Flush(h)
	c.Queue.EnqueueBatch(h, ps)
}

// DequeueBatch goes value by value through the drain buffer: refills
// amortize the FAA exactly as the scalar path, and a short return carries
// CoalescedDequeue's EMPTY witness.
func (c coalesced) DequeueBatch(h *core.Handle, dst []unsafe.Pointer) int {
	for i := range dst {
		p, ok := c.CoalescedDequeue(h)
		if !ok {
			return i
		}
		dst[i] = p
	}
	return len(dst)
}

package registry

import (
	"wfqueue/internal/core"
	"wfqueue/internal/qiface"
)

// Registry wiring for the operation-coalescing variants (DESIGN.md §8):
//
//	wf-coalesce          wf-10 with transparent coalescing, window 16
//	wf-coalesce-w1       the window-1 passthrough (bit-identical operations
//	                     to wf-10; the lincheck gate runs here)
//	wf-coalesce-w4       window 4  (window-sweep probe)
//	wf-coalesce-w64      window 64 (window-sweep probe, the compile-time max)
//
// Any window > 1 buffers values in the producer's handle until a flush, so
// an enqueue's visibility point moves from the call to the flush: the
// variants declare qiface.OrderPerProducer (each flush deposits the
// producer's run in order through one reservation) and provide a non-nil
// Ops.Flush. Window 1 never buffers — strict FIFO, and the registered
// operations are exactly wf-10's.

func init() {
	qiface.Register(qiface.Factory{
		Name: "wf-coalesce", Doc: "wf-10 with transparent operation coalescing, window 16",
		WaitFree: true, ChurnSafe: true, Ordering: qiface.OrderPerProducer,
		New: func(n int) (qiface.Queue, error) { return newWFCoalesce("wf-coalesce", n, 16, false) },
	})
	qiface.Register(qiface.Factory{
		Name: "wf-coalesce-w1", Doc: "coalescing layer at window 1: pure passthrough of wf-10 (lincheck gate)",
		WaitFree: true, ChurnSafe: true, Ordering: qiface.OrderFIFO,
		New: func(n int) (qiface.Queue, error) { return newWFCoalesce("wf-coalesce-w1", n, 1, false) },
	})
	qiface.Register(qiface.Factory{
		Name: "wf-coalesce-w4", Doc: "wf-10 with operation coalescing, window 4 (sweep probe)",
		WaitFree: true, ChurnSafe: true, Ordering: qiface.OrderPerProducer,
		New: func(n int) (qiface.Queue, error) { return newWFCoalesce("wf-coalesce-w4", n, 4, false) },
	})
	qiface.Register(qiface.Factory{
		Name: "wf-coalesce-w64", Doc: "wf-10 with operation coalescing, window 64 (sweep probe, compile-time max)",
		WaitFree: true, ChurnSafe: true, Ordering: qiface.OrderPerProducer,
		New: func(n int) (qiface.Queue, error) { return newWFCoalesce("wf-coalesce-w64", n, 64, false) },
	})
}

func newWFCoalesce(name string, n, window int, boxed bool) (qiface.Queue, error) {
	q := core.New(n, core.WithPatience(10), core.WithCoalescing(window))
	return &wfAdapter{name: name, boxed: boxed, coalesced: true, q: q}, nil
}

// buildWFCoalescedOps is buildWFOps routed through the coalescing entry
// points: Enqueue buffers into the handle's window, Dequeue serves from the
// drain buffer, and Flush/Release publish buffered values. EnqueueBatch
// flushes first so buffered singletons keep their place ahead of the batch.
func buildWFCoalescedOps(q *core.Queue, h *core.Handle, boxed bool) qiface.Ops {
	scr := &batchScratch{}
	put := valPut(boxed)
	deq := func() (uint64, bool) { return unptr(q.CoalescedDequeue(h)) }
	return qiface.Ops{
		Enqueue: func(v uint64) { q.CoalescedEnqueue(h, put(v)) },
		Dequeue: deq,
		Flush:   func() { q.Flush(h) },
		EnqueueBatch: func(vs []uint64) {
			q.Flush(h)
			buf := scr.grow(len(vs))
			for i, v := range vs {
				buf[i] = put(v)
			}
			q.EnqueueBatch(h, buf)
			clear(buf)
		},
		DequeueBatch: func(dst []uint64) int {
			// Per-value through the drain buffer: refills amortize the FAA
			// exactly as the scalar path, and a short return carries
			// CoalescedDequeue's EMPTY witness.
			for i := range dst {
				v, ok := deq()
				if !ok {
					return i
				}
				dst[i] = v
			}
			return len(dst)
		},
	}
}

package registry

import (
	"runtime"
	"unsafe"

	"wfqueue/internal/core"
	"wfqueue/internal/qiface"
	"wfqueue/internal/scq"
)

// Registry wiring for the operation-coalescing variants (DESIGN.md §8):
//
//	wf-coalesce          wf-10 with transparent coalescing, window 16
//	wf-coalesce-w1       the window-1 passthrough (bit-identical operations
//	                     to wf-10; the lincheck gate runs here)
//	wf-coalesce-w4       window 4  (window-sweep probe)
//	wf-coalesce-w64      window 64 (window-sweep probe, the compile-time max)
//	wf-scq-coalesce      bounded SCQ ring behind an adapter-level coalescing
//	                     window (16) built on the ring's batch reservations
//
// Any window > 1 buffers values in the producer's handle until a flush, so
// an enqueue's visibility point moves from the call to the flush: the
// variants declare qiface.OrderPerProducer (each flush deposits the
// producer's run in order through one reservation) and provide a non-nil
// Ops.Flush per the qiface.CoalescingProvider contract. Window 1 never
// buffers — strict FIFO, and the registered operations are exactly wf-10's.

const (
	// coalesceDefaultWindow is the window of the headline variants.
	coalesceDefaultWindow = 16
	// scqCoalesceDeadline mirrors the core layer's op-count latency bound
	// for the adapter-level SCQ window.
	scqCoalesceDeadline = 256
)

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
	qiface.Register(qiface.Factory{
		// Not Bounded: the adapter's producer buffer sits outside the ring,
		// so the exact all-slots-in-flight ErrFull verdict of wf-scq does not
		// survive coalescing (a flush retries through backpressure instead of
		// rejecting). Capacity still bounds the ring itself. Consequence: a
		// flush blocks (Gosched-spins) until consumers drain the ring, so an
		// Enqueue that trips the window or deadline on a full ring does not
		// return until space appears — see scqCoalesceState.flush.
		Name: "wf-scq-coalesce", Doc: "bounded SCQ ring behind a coalescing window 16 (batch-reservation flushes)",
		ChurnSafe: true, Ordering: qiface.OrderPerProducer,
		New: func(n int) (qiface.Queue, error) {
			return newSCQCoalesce("wf-scq-coalesce", n, scqDefaultCapacity, coalesceDefaultWindow, false)
		},
	})
}

func newWFCoalesce(name string, n, window int, boxed bool) (qiface.Queue, error) {
	q := core.New(n, core.WithPatience(10), core.WithCoalescing(window))
	return &wfAdapter{name: name, boxed: boxed, coalesced: true, q: q}, nil
}

// CoalesceWindow implements qiface.CoalescingProvider (1 on the
// non-coalescing wf variants, per the provider contract).
func (a *wfAdapter) CoalesceWindow() int { return a.q.CoalesceWindow() }

// buildWFCoalescedOps is buildWFOps routed through the coalescing entry
// points: Enqueue buffers into the handle's window, Dequeue serves from the
// drain buffer, and Flush/Release publish buffered values. EnqueueBatch
// flushes first so buffered singletons keep their place ahead of the batch.
func buildWFCoalescedOps(q *core.Queue, h *core.Handle, boxed bool) qiface.Ops {
	scr := &batchScratch{}
	put := boxVal
	if !boxed {
		ar := &arena{}
		put = func(v uint64) unsafe.Pointer { return ptr(ar.put(v)) }
	}
	deq := func() (uint64, bool) {
		p, ok := q.CoalescedDequeue(h)
		if !ok {
			return 0, false
		}
		return *(*uint64)(p), true
	}
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

// scqCoalesceAdapter wraps the bounded SCQ ring in an adapter-level
// coalescing window built on the ring's batch reservations: a flush
// publishes the whole window through TryEnqueueBatch (one free-ring FAA and
// one allocated-ring FAA per chunk), a refill harvests a run through
// DequeueBatch. The ring has no per-handle buffer of its own — the SCQ
// handle stays a pure ring participant — so the window lives here, mirroring
// how a library user would layer coalescing over the bounded queue.
type scqCoalesceAdapter struct {
	name   string
	boxed  bool
	window int
	q      *scq.Queue
}

func newSCQCoalesce(name string, n, capacity, window int, boxed bool) (qiface.Queue, error) {
	if window < 1 {
		window = 1
	}
	if window > core.CoalesceMaxWindow {
		window = core.CoalesceMaxWindow
	}
	q, err := scq.New(n, capacity)
	if err != nil {
		return nil, err
	}
	return &scqCoalesceAdapter{name: name, boxed: boxed, window: window, q: q}, nil
}

func (a *scqCoalesceAdapter) Name() string { return a.name }

// CoalesceWindow implements qiface.CoalescingProvider.
func (a *scqCoalesceAdapter) CoalesceWindow() int { return a.window }

// Stats implements qiface.StatsProvider (the ring's counter keys, including
// the batch-reservation counts the flushes drive).
func (a *scqCoalesceAdapter) Stats() map[string]uint64 { return a.q.Stats() }

// scqCoalesceState is one registration's window state: fixed arrays, so
// steady-state coalesced operation allocates nothing.
type scqCoalesceState struct {
	q      *scq.Queue
	h      *scq.Handle
	window int
	cbuf   [core.CoalesceMaxWindow]unsafe.Pointer
	clen   int
	cops   int
	dbuf   [core.CoalesceMaxWindow]unsafe.Pointer
	dhead  int
	dlen   int
}

func (s *scqCoalesceState) enqueue(v unsafe.Pointer) {
	s.cbuf[s.clen] = v
	s.clen++
	s.cops++
	if s.clen >= s.window || s.cops >= scqCoalesceDeadline {
		s.flush()
	}
}

// flush publishes the buffered window through the ring's batch reservation,
// absorbing ErrFull as backpressure (yield and retry the remainder) exactly
// as the scalar scqAdapter.Enqueue does. Like that adapter, flush BLOCKS
// until the ring drains: with no consumers running, the enqueue (or
// deadline tick) that triggered the flush spins in Gosched rather than
// surfacing ErrFull — the qiface.Queue contract has no partial-failure
// channel for a buffered run. Callers needing a full verdict should use
// wf-scq, whose unbuffered ErrFull is exact.
func (s *scqCoalesceState) flush() {
	s.cops = 0
	off := 0
	for off < s.clen {
		n, err := s.h.TryEnqueueBatch(s.cbuf[off:s.clen])
		off += n
		if err != nil {
			runtime.Gosched()
		}
	}
	for i := 0; i < s.clen; i++ {
		s.cbuf[i] = nil
	}
	s.clen = 0
}

func (s *scqCoalesceState) dequeue() (unsafe.Pointer, bool) {
	// Dequeues tick the op-count deadline too (see core/coalesce.go).
	if s.clen > 0 {
		s.cops++
		if s.cops >= scqCoalesceDeadline {
			s.flush()
		}
	}
	if s.dhead < s.dlen {
		v := s.dbuf[s.dhead]
		s.dbuf[s.dhead] = nil
		s.dhead++
		return v, true
	}
	// At most two rounds, as in core.CoalescedDequeue: an empty refill with
	// buffered values flushes them (leaving clen == 0) and looks again, so
	// this registration never reports EMPTY while holding the refutation.
	for {
		if n := s.refill(); n > 0 {
			v := s.dbuf[0]
			s.dbuf[0] = nil
			s.dhead = 1
			return v, true
		}
		if s.clen == 0 {
			return nil, false
		}
		s.flush()
	}
}

func (s *scqCoalesceState) refill() int {
	s.dhead, s.dlen = 0, 0
	w := s.window
	if sz := s.q.Size(); sz < w {
		w = sz
	}
	if w <= 1 {
		v, ok := s.h.Dequeue()
		if !ok {
			return 0
		}
		s.dbuf[0] = v
		s.dlen = 1
		return 1
	}
	n := s.h.DequeueBatch(s.dbuf[:w])
	s.dlen = n
	return n
}

// release empties both buffers back into the ring, then returns the handle.
// Idempotent: a second call finds both buffers empty and the ring handle's
// own Release is idempotent within its epoch.
func (s *scqCoalesceState) release() {
	s.flush()
	for s.dhead < s.dlen {
		n, err := s.h.TryEnqueueBatch(s.dbuf[s.dhead:s.dlen])
		for i := 0; i < n; i++ {
			s.dbuf[s.dhead+i] = nil
		}
		s.dhead += n
		if err != nil {
			runtime.Gosched()
		}
	}
	s.dhead, s.dlen = 0, 0
	s.h.Release()
}

func (a *scqCoalesceAdapter) Register() (qiface.Ops, error) {
	h, err := a.q.Register()
	if err != nil {
		return qiface.Ops{}, err
	}
	put := boxVal
	if !a.boxed {
		ar := &arena{}
		put = func(v uint64) unsafe.Pointer { return ptr(ar.put(v)) }
	}
	s := &scqCoalesceState{q: a.q, h: h, window: a.window}
	return qiface.WithBatchFallback(qiface.Ops{
		Enqueue: func(v uint64) { s.enqueue(put(v)) },
		Dequeue: func() (uint64, bool) {
			p, ok := s.dequeue()
			if !ok {
				return 0, false
			}
			return *(*uint64)(p), true
		},
		Flush:   s.flush,
		Release: s.release,
	}), nil
}

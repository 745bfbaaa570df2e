// Package registry wires every queue implementation in this repository into
// the qiface registry under the names the paper's evaluation uses:
//
//	wf-10      the paper's wait-free queue, PATIENCE=10 (§5 "WF-10")
//	wf-0       the paper's wait-free queue, PATIENCE=0  (§5 "WF-0")
//	lcrq       Morrison & Afek's LCRQ with hazard-pointer reclamation
//	msqueue    Michael & Scott's queue with hazard-pointer reclamation
//	ccqueue    Fatourou & Kallimanis's combining queue
//	kpqueue    Kogan & Petrank's wait-free queue
//	of         the obstruction-free Listing 1 queue (ablation)
//	faa        the fetch-and-add microbenchmark (upper bound, not a queue)
//	simqueue   P-Sim style wait-free universal-construction queue
//	chan       buffered Go channel (blocking; Go-native baseline)
//	lcrq-gc    LCRQ leaving reclamation to the Go GC (ablation)
//	msqueue-gc MS-Queue leaving reclamation to the Go GC (ablation)
//	wf-10-tiny     wf-10 with 4-cell segments, maxGarbage=1
//	               (adversarial configuration: every few operations cross a
//	               segment boundary and most segments served are recycled,
//	               so the lincheck/fuzz/battery suites exercise the
//	               reclamation and reuse paths under contention)
//	wf-sharded     multi-lane sharded queue over wf-10 lanes, one lane per
//	               CPU by default, home-lane dispatch + work stealing
//	               (per-producer ordering, qiface.OrderPerProducer)
//	wf-sharded-1   sharded queue pinned to one lane — strict FIFO
//	               degenerate configuration (qiface.OrderFIFO, lincheck-able)
//	wf-scq         bounded SCQ ring queue (internal/scq): indirect ring over
//	               cycle-tagged entries, FAA ticket hot path, TryEnqueue /
//	               ErrFull backpressure at a fixed capacity of 16384 values,
//	               wCQ-style request-word helping on the dequeue side
//	               (qiface.OrderFIFO, Bounded)
//	wf-coalesce    wf-10 with transparent operation coalescing (window 16):
//	               per-handle producer/drain buffers flushed through the
//	               k-cell single-FAA reservations (per-producer ordering).
//	               wf-coalesce-w1/-w4/-w64 sweep the window; window 1 is a
//	               pure passthrough of wf-10 (strict FIFO, lincheck-able)
//	wf-scq-coalesce      bounded SCQ ring behind an adapter-level coalescing
//	               window built on the ring's batch reservations
//
// Pointer-based queues are adapted to the uint64 currency of qiface through
// per-thread value arenas: an enqueue writes the value into the next arena
// slot and enqueues the slot's address, so no operation allocates. The
// arena has 2^16 slots per thread; a thread may therefore have at most 2^16
// values outstanding before slots are reused, which only affects the values
// read back (never memory safety) and is far beyond what any workload here
// keeps in flight. A slot is claimed only by a value the queue accepted: a
// TryEnqueue rejected as full hands its slot to the next attempt.
package registry

import (
	"fmt"
	"runtime"
	"unsafe"

	"wfqueue/internal/ccqueue"
	"wfqueue/internal/chanq"
	"wfqueue/internal/core"
	"wfqueue/internal/faabench"
	"wfqueue/internal/kpqueue"
	"wfqueue/internal/lcrq"
	"wfqueue/internal/msqueue"
	"wfqueue/internal/ofqueue"
	"wfqueue/internal/qiface"
	"wfqueue/internal/scq"
	"wfqueue/internal/sharded"
	"wfqueue/internal/simqueue"
)

// arenaSize is the per-thread value arena length (power of two).
const arenaSize = 1 << 16

// arena hands out stable addresses for enqueued values.
type arena struct {
	slots [arenaSize]uint64
	next  int
}

// slot writes v into the next free slot without claiming it.
func (a *arena) slot(v uint64) *uint64 {
	p := &a.slots[a.next&(arenaSize-1)]
	*p = v
	return p
}

func (a *arena) put(v uint64) *uint64 {
	p := a.slot(v)
	a.next++
	return p
}

// batchScratch is a per-Ops reusable pointer buffer for the wait-free
// queue's native batch path. Ops are single-goroutine by contract, so one
// buffer per Ops suffices and steady-state batched operation allocates
// nothing beyond what the value representation itself requires.
type batchScratch struct {
	buf []unsafe.Pointer
}

func (s *batchScratch) grow(n int) []unsafe.Pointer {
	if cap(s.buf) < n {
		s.buf = make([]unsafe.Pointer, n)
	}
	return s.buf[:n]
}

// FigureSeries is the ordered list of series plotted in the paper's
// Figure 2.
var FigureSeries = []string{"wf-10", "wf-0", "faa", "ccqueue", "msqueue", "lcrq"}

func init() {
	qiface.Register(qiface.Factory{
		Name: "wf-10", Doc: "paper's wait-free queue, PATIENCE=10", WaitFree: true, ChurnSafe: true,
		New: func(n int) (qiface.Queue, error) { return newWF("wf-10", n, 10, false) },
	})
	qiface.Register(qiface.Factory{
		Name: "wf-0", Doc: "paper's wait-free queue, PATIENCE=0 (slow-path emphasis)", WaitFree: true, ChurnSafe: true,
		New: func(n int) (qiface.Queue, error) { return newWF("wf-0", n, 0, false) },
	})
	qiface.Register(qiface.Factory{
		Name: "wf-10-tiny", Doc: "wf-10, 4-cell segments, maxGarbage=1 (reclamation stress)", WaitFree: true, ChurnSafe: true,
		New: func(n int) (qiface.Queue, error) {
			return newWF("wf-10-tiny", n, 10, false,
				core.WithSegmentShift(2), core.WithMaxGarbage(1))
		},
	})
	qiface.Register(qiface.Factory{
		Name: "of", Doc: "obstruction-free Listing 1 queue (ablation)",
		New: func(n int) (qiface.Queue, error) { return newOF("of", n, false) },
	})
	qiface.Register(qiface.Factory{
		Name: "lcrq", Doc: "Morrison & Afek's LCRQ, hazard-pointer reclamation",
		MaxValue: lcrq.MaxValue,
		New:      func(n int) (qiface.Queue, error) { return newLCRQ("lcrq", n, false) },
	})
	qiface.Register(qiface.Factory{
		Name: "lcrq-gc", Doc: "LCRQ with GC reclamation (ablation)",
		MaxValue: lcrq.MaxValue,
		New:      func(n int) (qiface.Queue, error) { return newLCRQ("lcrq-gc", n, true) },
	})
	qiface.Register(qiface.Factory{
		Name: "msqueue", Doc: "Michael & Scott's queue, hazard-pointer reclamation",
		New: func(n int) (qiface.Queue, error) { return newMS("msqueue", n, false, false) },
	})
	qiface.Register(qiface.Factory{
		Name: "msqueue-gc", Doc: "MS-Queue with GC reclamation (ablation)",
		New: func(n int) (qiface.Queue, error) { return newMS("msqueue-gc", n, true, false) },
	})
	qiface.Register(qiface.Factory{
		Name: "ccqueue", Doc: "Fatourou & Kallimanis's combining queue (blocking)",
		New: func(n int) (qiface.Queue, error) { return newCC("ccqueue", n, false) },
	})
	qiface.Register(qiface.Factory{
		Name: "kpqueue", Doc: "Kogan & Petrank's wait-free queue", WaitFree: true,
		New: func(n int) (qiface.Queue, error) { return newKP("kpqueue", n, false) },
	})
	qiface.Register(qiface.Factory{
		Name: "faa", Doc: "fetch-and-add microbenchmark (throughput upper bound)",
		New: func(n int) (qiface.Queue, error) { return newFAA("faa") },
	})
	qiface.Register(qiface.Factory{
		Name: "simqueue", Doc: "P-Sim style wait-free universal-construction queue", WaitFree: true,
		MaxValue: simqueue.MaxValue,
		New:      func(n int) (qiface.Queue, error) { return newSim("simqueue", n) },
	})
	qiface.Register(qiface.Factory{
		Name: "chan", Doc: "buffered Go channel (blocking, bounded; Go-native baseline)",
		New: func(n int) (qiface.Queue, error) { return newChan("chan") },
	})
	qiface.Register(qiface.Factory{
		Name: "wf-sharded", Doc: "sharded multi-lane wf-10 (lane per CPU, home-lane dispatch, stealing)",
		WaitFree: true, ChurnSafe: true, Ordering: qiface.OrderPerProducer,
		New: func(n int) (qiface.Queue, error) { return newSharded("wf-sharded", n, false) },
	})
	qiface.Register(qiface.Factory{
		Name: "wf-sharded-1", Doc: "sharded queue, single lane (strict FIFO degenerate configuration)",
		WaitFree: true, ChurnSafe: true, Ordering: qiface.OrderFIFO,
		New: func(n int) (qiface.Queue, error) {
			return newSharded("wf-sharded-1", n, false, sharded.WithLanes(1))
		},
	})
	qiface.Register(qiface.Factory{
		// WaitFree is deliberately false: the SCQ enqueue side is lock-free
		// with threshold-based livelock freedom, and the dequeue side's
		// helping bound holds under the operational model of DESIGN.md §7,
		// not unconditionally (full wCQ needs double-width CAS).
		Name: "wf-scq", Doc: "bounded SCQ ring, cap 16384 (FAA tickets, ErrFull backpressure, helped dequeues)",
		ChurnSafe: true, Ordering: qiface.OrderFIFO, Bounded: true,
		New: func(n int) (qiface.Queue, error) { return newSCQ("wf-scq", n, scqDefaultCapacity, false) },
	})
}

// --- adapters -----------------------------------------------------------

type wfAdapter struct {
	name  string
	boxed bool
	// coalesced routes Register through the coalescing entry points
	// (coalesce.go); the queue carries the configured window.
	coalesced bool
	q         *core.Queue
}

func newWF(name string, n, patience int, boxed bool, extra ...core.Option) (qiface.Queue, error) {
	opts := append([]core.Option{core.WithPatience(patience)}, extra...)
	return &wfAdapter{name: name, boxed: boxed, q: core.New(n, opts...)}, nil
}

func (a *wfAdapter) Name() string { return a.name }

func (a *wfAdapter) Register() (qiface.Ops, error) {
	h, err := a.q.Register()
	if err != nil {
		return qiface.Ops{}, err
	}
	var ops qiface.Ops
	if a.coalesced {
		ops = buildWFCoalescedOps(a.q, h, a.boxed)
	} else {
		ops = buildWFOps(a.q, h, a.boxed)
	}
	// The core Release auto-flushes any coalescing buffers (handlepool.go),
	// so handing it through directly preserves the no-stranded-values
	// contract of qiface.Ops.Flush.
	ops.Release = h.Release
	return ops, nil
}

// buildWFOps builds the qiface closures driving one core handle, without a
// Release (the caller hands the handle's own Release through).
func buildWFOps(q *core.Queue, h *core.Handle, boxed bool) qiface.Ops {
	scr := &batchScratch{}
	deqBatch := func(dst []uint64) int {
		buf := scr.grow(len(dst))
		n := q.DequeueBatch(h, buf)
		for i := 0; i < n; i++ {
			dst[i] = *(*uint64)(buf[i])
			buf[i] = nil
		}
		return n
	}
	if boxed {
		return qiface.Ops{
			Enqueue: func(v uint64) { q.Enqueue(h, boxVal(v)) },
			Dequeue: func() (uint64, bool) {
				p, ok := q.Dequeue(h)
				if !ok {
					return 0, false
				}
				return *(*uint64)(p), true
			},
			EnqueueBatch: func(vs []uint64) {
				// One heap backing array for the whole batch amortizes the
				// boxing allocation the single-op checked adapter pays per
				// value.
				vals := make([]uint64, len(vs))
				copy(vals, vs)
				buf := scr.grow(len(vs))
				for i := range vals {
					buf[i] = unsafe.Pointer(&vals[i])
				}
				q.EnqueueBatch(h, buf)
			},
			DequeueBatch: deqBatch,
		}
	}
	ar := &arena{}
	return qiface.Ops{
		Enqueue: func(v uint64) { q.Enqueue(h, ptr(ar.put(v))) },
		Dequeue: func() (uint64, bool) {
			p, ok := q.Dequeue(h)
			if !ok {
				return 0, false
			}
			return *(*uint64)(p), true
		},
		EnqueueBatch: func(vs []uint64) {
			buf := scr.grow(len(vs))
			for i, v := range vs {
				buf[i] = ptr(ar.put(v))
			}
			q.EnqueueBatch(h, buf)
		},
		DequeueBatch: deqBatch,
	}
}

// coreStatsMap flattens the core counters into the qiface.StatsProvider map
// (the paper's Table 2 keys).
func coreStatsMap(s core.Counters) map[string]uint64 {
	return map[string]uint64{
		"enq_fast":        s.EnqFast,
		"enq_slow":        s.EnqSlow,
		"deq_fast":        s.DeqFast,
		"deq_slow":        s.DeqSlow,
		"deq_empty":       s.DeqEmpty,
		"spin_fallbacks":  s.SpinFallbacks,
		"help_enq":        s.HelpEnq,
		"help_deq":        s.HelpDeq,
		"cleanups":        s.Cleanups,
		"segments":        s.Segments,
		"seg_cache_hits":  s.SegCacheHits,
		"seg_pool_hits":   s.SegPoolHits,
		"seg_allocs":      s.SegAllocs,
		"enq_batch_calls": s.EnqBatchCalls,
		"enq_batch_faas":  s.EnqBatchFAAs,
		"deq_batch_calls": s.DeqBatchCalls,
		"deq_batch_faas":  s.DeqBatchFAAs,
		"fast_cas_fails":  s.FastCASFails,
	}
}

// Stats implements qiface.StatsProvider for the paper's Table 2.
func (a *wfAdapter) Stats() map[string]uint64 {
	return coreStatsMap(a.q.Stats())
}

// shardedAdapter drives the multi-lane sharded queue through the same
// arena/boxed value adapters as the core. Each Register homes its handle by
// the sharded queue's own policy (round-robin over lanes), so the harnesses'
// workers spread across lanes exactly as library users would.
type shardedAdapter struct {
	name  string
	boxed bool
	q     *sharded.Queue
}

func newSharded(name string, n int, boxed bool, opts ...sharded.Option) (qiface.Queue, error) {
	return &shardedAdapter{name: name, boxed: boxed, q: sharded.New(n, opts...)}, nil
}

func (a *shardedAdapter) Name() string { return a.name }

func (a *shardedAdapter) Register() (qiface.Ops, error) {
	h, err := a.q.Register()
	if err != nil {
		return qiface.Ops{}, err
	}
	scr := &batchScratch{}
	deqBatch := func(dst []uint64) int {
		buf := scr.grow(len(dst))
		n := a.q.DequeueBatch(h, buf)
		for i := 0; i < n; i++ {
			dst[i] = *(*uint64)(buf[i])
			buf[i] = nil
		}
		return n
	}
	if a.boxed {
		return qiface.Ops{
			Enqueue: func(v uint64) { a.q.Enqueue(h, boxVal(v)) },
			Dequeue: func() (uint64, bool) {
				p, ok := a.q.Dequeue(h)
				if !ok {
					return 0, false
				}
				return *(*uint64)(p), true
			},
			EnqueueBatch: func(vs []uint64) {
				vals := make([]uint64, len(vs))
				copy(vals, vs)
				buf := scr.grow(len(vs))
				for i := range vals {
					buf[i] = unsafe.Pointer(&vals[i])
				}
				a.q.EnqueueBatch(h, buf)
			},
			DequeueBatch: deqBatch,
			Release:      h.Release,
		}, nil
	}
	ar := &arena{}
	return qiface.Ops{
		Enqueue: func(v uint64) { a.q.Enqueue(h, ptr(ar.put(v))) },
		Dequeue: func() (uint64, bool) {
			p, ok := a.q.Dequeue(h)
			if !ok {
				return 0, false
			}
			return *(*uint64)(p), true
		},
		EnqueueBatch: func(vs []uint64) {
			buf := scr.grow(len(vs))
			for i, v := range vs {
				buf[i] = ptr(ar.put(v))
			}
			a.q.EnqueueBatch(h, buf)
		},
		DequeueBatch: deqBatch,
		Release:      h.Release,
	}, nil
}

// Stats implements qiface.StatsProvider: the lane-summed core counters under
// the usual keys plus the sharded layer's own (lanes, steals, sweeps,
// empty dequeues).
func (a *shardedAdapter) Stats() map[string]uint64 {
	st := a.q.Stats()
	m := coreStatsMap(st.Core)
	m["lanes"] = uint64(st.Lanes)
	m["steals"] = st.Sharded.Steals
	m["sweeps"] = st.Sharded.Sweeps
	m["empty_dequeues"] = st.Sharded.EmptyDequeues
	return m
}

// scqDefaultCapacity is the value-slot count of the registered wf-scq
// variant. Large enough that the conformance batteries' single-threaded
// fills (thousands of values with no consumer running) never wedge on a full
// ring, small enough that the ring plus value array stays a few hundred KiB
// — the bounded-memory point of the implementation. Full-queue semantics are
// exercised at small capacities by the dedicated battery, which constructs
// its own instances through scq.New.
const scqDefaultCapacity = 1 << 14

// scqAdapter drives the bounded SCQ queue through the qiface surface,
// including the capacity contract: TryEnqueue maps scq.ErrFull to false and
// the blocking Enqueue provides backpressure by yielding until a consumer
// frees a slot (the spin lives here, not in internal/scq, so the analyzed
// queue package stays free of scheduling calls).
type scqAdapter struct {
	name  string
	boxed bool
	q     *scq.Queue
}

func newSCQ(name string, n, capacity int, boxed bool) (qiface.Queue, error) {
	q, err := scq.New(n, capacity)
	if err != nil {
		return nil, err
	}
	return &scqAdapter{name: name, boxed: boxed, q: q}, nil
}

func (a *scqAdapter) Name() string { return a.name }

// Capacity implements qiface.CapacityProvider.
func (a *scqAdapter) Capacity() int { return a.q.Capacity() }

func (a *scqAdapter) Register() (qiface.Ops, error) {
	h, err := a.q.Register()
	if err != nil {
		return qiface.Ops{}, err
	}
	// An arena slot is claimed only once the ring accepts its pointer: a
	// rejected attempt leaves it to the next one, so ErrFull retries cannot
	// wrap the arena over slots whose pointers are still queued.
	slot, claim := boxVal, func() {}
	if !a.boxed {
		ar := &arena{}
		slot = func(v uint64) unsafe.Pointer { return ptr(ar.slot(v)) }
		claim = func() { ar.next++ }
	}
	try := func(p unsafe.Pointer) bool {
		if h.TryEnqueue(p) != nil {
			return false
		}
		claim()
		return true
	}
	return qiface.WithBatchFallback(qiface.Ops{
		TryEnqueue: func(v uint64) bool { return try(slot(v)) },
		Enqueue: func(v uint64) {
			p := slot(v)
			for !try(p) {
				runtime.Gosched()
			}
		},
		Dequeue: func() (uint64, bool) {
			p, ok := h.Dequeue()
			if !ok {
				return 0, false
			}
			return *(*uint64)(p), true
		},
		Release: h.Release,
	}), nil
}

// Stats implements qiface.StatsProvider (the scq counter keys).
func (a *scqAdapter) Stats() map[string]uint64 { return a.q.Stats() }

type ofAdapter struct {
	name  string
	boxed bool
	q     *ofqueue.Queue
}

func newOF(name string, _ int, boxed bool) (qiface.Queue, error) {
	return &ofAdapter{name: name, boxed: boxed, q: ofqueue.New(0)}, nil
}

func (a *ofAdapter) Name() string { return a.name }

func (a *ofAdapter) Register() (qiface.Ops, error) {
	h, err := a.q.Register()
	if err != nil {
		return qiface.Ops{}, err
	}
	if a.boxed {
		return qiface.WithBatchFallback(qiface.Ops{
			Enqueue: func(v uint64) { a.q.Enqueue(h, boxVal(v)) },
			Dequeue: func() (uint64, bool) {
				p, ok := a.q.Dequeue(h)
				if !ok {
					return 0, false
				}
				return *(*uint64)(p), true
			},
		}), nil
	}
	ar := &arena{}
	return qiface.WithBatchFallback(qiface.Ops{
		Enqueue: func(v uint64) { a.q.Enqueue(h, ptr(ar.put(v))) },
		Dequeue: func() (uint64, bool) {
			p, ok := a.q.Dequeue(h)
			if !ok {
				return 0, false
			}
			return *(*uint64)(p), true
		},
	}), nil
}

type lcrqAdapter struct {
	name string
	q    *lcrq.Queue
}

func newLCRQ(name string, n int, gc bool) (qiface.Queue, error) {
	var q *lcrq.Queue
	if gc {
		q = lcrq.NewGC(0)
	} else {
		q = lcrq.New(n, 0)
	}
	return &lcrqAdapter{name: name, q: q}, nil
}

func (a *lcrqAdapter) Name() string { return a.name }

func (a *lcrqAdapter) Register() (qiface.Ops, error) {
	h, err := a.q.Register()
	if err != nil {
		return qiface.Ops{}, err
	}
	return qiface.WithBatchFallback(qiface.Ops{
		Enqueue: func(v uint64) { a.q.Enqueue(h, v) },
		Dequeue: func() (uint64, bool) { return a.q.Dequeue(h) },
	}), nil
}

type msAdapter struct {
	name  string
	boxed bool
	q     *msqueue.Queue
}

func newMS(name string, n int, gc, boxed bool) (qiface.Queue, error) {
	var q *msqueue.Queue
	if gc {
		q = msqueue.NewGC()
	} else {
		q = msqueue.New(n)
	}
	return &msAdapter{name: name, boxed: boxed, q: q}, nil
}

func (a *msAdapter) Name() string { return a.name }

func (a *msAdapter) Register() (qiface.Ops, error) {
	h, err := a.q.Register()
	if err != nil {
		return qiface.Ops{}, err
	}
	if a.boxed {
		return qiface.WithBatchFallback(qiface.Ops{
			Enqueue: func(v uint64) { a.q.Enqueue(h, boxVal(v)) },
			Dequeue: func() (uint64, bool) {
				p, ok := a.q.Dequeue(h)
				if !ok {
					return 0, false
				}
				return *(*uint64)(p), true
			},
		}), nil
	}
	ar := &arena{}
	return qiface.WithBatchFallback(qiface.Ops{
		Enqueue: func(v uint64) { a.q.Enqueue(h, ptr(ar.put(v))) },
		Dequeue: func() (uint64, bool) {
			p, ok := a.q.Dequeue(h)
			if !ok {
				return 0, false
			}
			return *(*uint64)(p), true
		},
	}), nil
}

type ccAdapter struct {
	name  string
	boxed bool
	q     *ccqueue.Queue
}

func newCC(name string, n int, boxed bool) (qiface.Queue, error) {
	return &ccAdapter{name: name, boxed: boxed, q: ccqueue.New(n)}, nil
}

func (a *ccAdapter) Name() string { return a.name }

func (a *ccAdapter) Register() (qiface.Ops, error) {
	h, err := a.q.Register()
	if err != nil {
		return qiface.Ops{}, err
	}
	if a.boxed {
		return qiface.WithBatchFallback(qiface.Ops{
			Enqueue: func(v uint64) { a.q.Enqueue(h, boxVal(v)) },
			Dequeue: func() (uint64, bool) {
				p, ok := a.q.Dequeue(h)
				if !ok {
					return 0, false
				}
				return *(*uint64)(p), true
			},
		}), nil
	}
	ar := &arena{}
	return qiface.WithBatchFallback(qiface.Ops{
		Enqueue: func(v uint64) { a.q.Enqueue(h, ptr(ar.put(v))) },
		Dequeue: func() (uint64, bool) {
			p, ok := a.q.Dequeue(h)
			if !ok {
				return 0, false
			}
			return *(*uint64)(p), true
		},
	}), nil
}

type kpAdapter struct {
	name  string
	boxed bool
	q     *kpqueue.Queue
}

func newKP(name string, n int, boxed bool) (qiface.Queue, error) {
	return &kpAdapter{name: name, boxed: boxed, q: kpqueue.New(n)}, nil
}

func (a *kpAdapter) Name() string { return a.name }

func (a *kpAdapter) Register() (qiface.Ops, error) {
	h, err := a.q.Register()
	if err != nil {
		return qiface.Ops{}, err
	}
	if a.boxed {
		return qiface.WithBatchFallback(qiface.Ops{
			Enqueue: func(v uint64) { a.q.Enqueue(h, boxVal(v)) },
			Dequeue: func() (uint64, bool) {
				p, ok := a.q.Dequeue(h)
				if !ok {
					return 0, false
				}
				return *(*uint64)(p), true
			},
		}), nil
	}
	ar := &arena{}
	return qiface.WithBatchFallback(qiface.Ops{
		Enqueue: func(v uint64) { a.q.Enqueue(h, ptr(ar.put(v))) },
		Dequeue: func() (uint64, bool) {
			p, ok := a.q.Dequeue(h)
			if !ok {
				return 0, false
			}
			return *(*uint64)(p), true
		},
	}), nil
}

type faaAdapter struct {
	name string
	b    *faabench.Bench
}

func newFAA(name string) (qiface.Queue, error) {
	return &faaAdapter{name: name, b: faabench.New()}, nil
}

func (a *faaAdapter) Name() string { return a.name }

// Register returns operations that only perform the FAAs; Dequeue always
// "succeeds" since the microbenchmark transfers no values.
func (a *faaAdapter) Register() (qiface.Ops, error) {
	return qiface.WithBatchFallback(qiface.Ops{
		Enqueue: func(uint64) { a.b.Enqueue() },
		Dequeue: func() (uint64, bool) { return uint64(a.b.Dequeue()), true },
	}), nil
}

// IsRealQueue reports whether the named implementation has real FIFO
// semantics (false only for the FAA microbenchmark).
func IsRealQueue(name string) bool { return name != "faa" }

// MustLookup is Lookup with a panic, for init-time wiring in tools.
func MustLookup(name string) qiface.Factory {
	f, err := qiface.Lookup(name)
	if err != nil {
		panic(fmt.Sprintf("registry: %v", err))
	}
	return f
}

type chanAdapter struct {
	name string
	q    *chanq.Queue
}

func newChan(name string) (qiface.Queue, error) {
	return &chanAdapter{name: name, q: chanq.New(0)}, nil
}

func (a *chanAdapter) Name() string { return a.name }

func (a *chanAdapter) Register() (qiface.Ops, error) {
	return qiface.WithBatchFallback(qiface.Ops{
		Enqueue: a.q.Enqueue,
		Dequeue: a.q.Dequeue,
	}), nil
}

type simAdapter struct {
	name string
	q    *simqueue.Queue
}

func newSim(name string, n int) (qiface.Queue, error) {
	return &simAdapter{name: name, q: simqueue.New(n)}, nil
}

func (a *simAdapter) Name() string { return a.name }

func (a *simAdapter) Register() (qiface.Ops, error) {
	h, err := a.q.Register()
	if err != nil {
		return qiface.Ops{}, err
	}
	return qiface.WithBatchFallback(qiface.Ops{
		Enqueue: func(v uint64) { a.q.Enqueue(h, v) },
		Dequeue: func() (uint64, bool) { return a.q.Dequeue(h) },
	}), nil
}

// NewChecked builds the named queue with value-exact adapters: pointer-based
// queues box every value on the heap instead of cycling a fixed arena. Use
// this for correctness validation (stress accounting, long soaks); the
// registered factories' arena adapters are for throughput benchmarking,
// where a consumer descheduled long enough for 2^16 subsequent enqueues may
// read back a recycled slot's newer value (never unsafe memory).
func NewChecked(name string, n int) (qiface.Queue, error) {
	switch name {
	case "wf-10":
		return newWF(name, n, 10, true)
	case "wf-0":
		return newWF(name, n, 0, true)
	case "wf-10-tiny":
		return newWF(name, n, 10, true,
			core.WithSegmentShift(2), core.WithMaxGarbage(1))
	case "wf-sharded":
		return newSharded(name, n, true)
	case "wf-sharded-1":
		return newSharded(name, n, true, sharded.WithLanes(1))
	case "wf-scq":
		return newSCQ(name, n, scqDefaultCapacity, true)
	case "wf-coalesce":
		return newWFCoalesce(name, n, coalesceDefaultWindow, true)
	case "wf-coalesce-w1":
		return newWFCoalesce(name, n, 1, true)
	case "wf-coalesce-w4":
		return newWFCoalesce(name, n, 4, true)
	case "wf-coalesce-w64":
		return newWFCoalesce(name, n, 64, true)
	case "wf-scq-coalesce":
		return newSCQCoalesce(name, n, scqDefaultCapacity, coalesceDefaultWindow, true)
	case "of":
		return newOF(name, n, true)
	case "msqueue":
		return newMS(name, n, false, true)
	case "msqueue-gc":
		return newMS(name, n, true, true)
	case "ccqueue":
		return newCC(name, n, true)
	case "kpqueue":
		return newKP(name, n, true)
	default:
		// Value-based implementations are exact already.
		f, err := qiface.Lookup(name)
		if err != nil {
			return nil, err
		}
		return f.New(n)
	}
}

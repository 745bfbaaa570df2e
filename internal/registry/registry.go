// Package registry wires every queue implementation in this repository into
// the qiface registry under the names the paper's evaluation uses (wf-10 and
// wf-0 are §5's WF-10 and WF-0). The table entries lists each queue once:
// its qiface.Factory metadata and one build function. init registers every
// entry's build over the value arena, and NewChecked calls the same build
// with heap boxes, so no queue is registered without a checked build.
//
// The pointer-based queues share one adapter (ptr.go), which turns each
// uint64 value into a pointer. The registered factories use per-thread value
// arenas: an enqueue writes the value into the next arena slot and enqueues
// the slot's address, so no operation allocates. The arena has 2^16 slots
// per thread; a thread with more than 2^16 values outstanding reuses slots,
// which changes the values read back (never memory safety). Whatever checks
// the values it reads back builds its queue through NewChecked, whose heap
// boxes stay exact.
//
// Every queue here is unbounded except chan, whose Enqueue panics rather
// than block at its fixed capacity. The bounded contract is the public
// wfqueue.NewBounded's, checked in the root package.
package registry

import (
	"fmt"

	"wfqueue/internal/ccqueue"
	"wfqueue/internal/chanq"
	"wfqueue/internal/core"
	"wfqueue/internal/faabench"
	"wfqueue/internal/kpqueue"
	"wfqueue/internal/lcrq"
	"wfqueue/internal/msqueue"
	"wfqueue/internal/ofqueue"
	"wfqueue/internal/qiface"
	"wfqueue/internal/sharded"
	"wfqueue/internal/simqueue"
)

// FigureSeries is the ordered list of series plotted in the paper's
// Figure 2.
var FigureSeries = []string{"wf-10", "wf-0", "faa", "ccqueue", "msqueue", "lcrq"}

// cfg is what a build gets: the registered name (every adapter's Name), the
// handle limit, and the value maker (boxed: heap boxes for NewChecked,
// otherwise the arena).
type cfg struct {
	name  string
	n     int
	boxed bool
}

func (c cfg) Name() string { return c.name }

// builder builds one registered queue.
type builder func(c cfg) (qiface.Queue, error)

// entry is one queue: its factory metadata (New is set by init) and its
// build.
type entry struct {
	qiface.Factory
	build builder
}

var entries = []entry{
	{qiface.Factory{Name: "wf-10", Doc: "paper's wait-free queue, PATIENCE=10", WaitFree: true, ChurnSafe: true},
		coreQueue(core.WithPatience(10))},
	{qiface.Factory{Name: "wf-0", Doc: "paper's wait-free queue, PATIENCE=0 (slow-path emphasis)", WaitFree: true, ChurnSafe: true},
		coreQueue(core.WithPatience(0))},
	// The adversarial configuration: every few operations cross a segment
	// boundary and most segments served are recycled, so the lincheck, fuzz
	// and battery suites exercise reclamation and reuse under contention.
	{qiface.Factory{Name: "wf-10-tiny", Doc: "wf-10, 4-cell segments, maxGarbage=1 (reclamation stress)", WaitFree: true, ChurnSafe: true},
		coreQueue(core.WithPatience(10), core.WithSegmentShift(2), core.WithMaxGarbage(1))},
	{qiface.Factory{Name: "wf-coalesce", Doc: "wf-10 with transparent operation coalescing, window 16",
		WaitFree: true, ChurnSafe: true, Ordering: qiface.OrderPerProducer}, coalesceQueue(16)},
	{qiface.Factory{Name: "wf-coalesce-w1", Doc: "coalescing layer at window 1: pure passthrough of wf-10 (lincheck gate)",
		WaitFree: true, ChurnSafe: true, Ordering: qiface.OrderFIFO}, coalesceQueue(1)},
	{qiface.Factory{Name: "wf-coalesce-w4", Doc: "wf-10 with operation coalescing, window 4 (sweep probe)",
		WaitFree: true, ChurnSafe: true, Ordering: qiface.OrderPerProducer}, coalesceQueue(4)},
	{qiface.Factory{Name: "wf-coalesce-w64", Doc: "wf-10 with operation coalescing, window 64 (sweep probe, compile-time max)",
		WaitFree: true, ChurnSafe: true, Ordering: qiface.OrderPerProducer}, coalesceQueue(64)},
	{qiface.Factory{Name: "wf-sharded", Doc: "sharded multi-lane wf-10 (lane per CPU, home-lane dispatch, stealing)",
		WaitFree: true, ChurnSafe: true, Ordering: qiface.OrderPerProducer}, shardedQueue()},
	{qiface.Factory{Name: "wf-sharded-1", Doc: "sharded queue, single lane (strict FIFO degenerate configuration)",
		WaitFree: true, ChurnSafe: true, Ordering: qiface.OrderFIFO}, shardedQueue(sharded.WithLanes(1))},
	{qiface.Factory{Name: "of", Doc: "obstruction-free Listing 1 queue (ablation)"},
		func(c cfg) (qiface.Queue, error) { return newPtr(c, ofqueue.New(0)), nil }},
	{qiface.Factory{Name: "lcrq", Doc: "Morrison & Afek's LCRQ, hazard-pointer reclamation", MaxValue: lcrq.MaxValue},
		func(c cfg) (qiface.Queue, error) { return lcrqQueue(c, lcrq.New(c.n, 0)), nil }},
	{qiface.Factory{Name: "lcrq-gc", Doc: "LCRQ with GC reclamation (ablation)", MaxValue: lcrq.MaxValue},
		func(c cfg) (qiface.Queue, error) { return lcrqQueue(c, lcrq.NewGC(0)), nil }},
	{qiface.Factory{Name: "msqueue", Doc: "Michael & Scott's queue, hazard-pointer reclamation"},
		func(c cfg) (qiface.Queue, error) { return newPtr(c, msqueue.New(c.n)), nil }},
	{qiface.Factory{Name: "msqueue-gc", Doc: "MS-Queue with GC reclamation (ablation)"},
		func(c cfg) (qiface.Queue, error) { return newPtr(c, msqueue.NewGC()), nil }},
	{qiface.Factory{Name: "ccqueue", Doc: "Fatourou & Kallimanis's combining queue (blocking)"},
		func(c cfg) (qiface.Queue, error) { return newPtr(c, ccqueue.New(c.n)), nil }},
	{qiface.Factory{Name: "kpqueue", Doc: "Kogan & Petrank's wait-free queue", WaitFree: true},
		func(c cfg) (qiface.Queue, error) { return newPtr(c, kpqueue.New(c.n)), nil }},
	{qiface.Factory{Name: "simqueue", Doc: "P-Sim style wait-free universal-construction queue", WaitFree: true, MaxValue: simqueue.MaxValue},
		func(c cfg) (qiface.Queue, error) { return simQueue(c, simqueue.New(c.n)), nil }},
	{qiface.Factory{Name: "faa", Doc: "fetch-and-add microbenchmark (throughput upper bound)"},
		func(c cfg) (qiface.Queue, error) { return &faaQueue{c, faabench.New()}, nil }},
	{qiface.Factory{Name: "chan", Doc: "buffered Go channel (blocking, bounded; Go-native baseline)"},
		func(c cfg) (qiface.Queue, error) { return &chanQueue{c, chanq.New(0)}, nil }},
}

func init() {
	for _, e := range entries {
		f, name, build := e.Factory, e.Name, e.build
		f.New = func(n int) (qiface.Queue, error) { return build(cfg{name, n, false}) }
		qiface.Register(f)
	}
}

// NewChecked builds the named queue with value-exact adapters: pointer-based
// queues box every value on the heap instead of cycling a fixed arena. Use
// this for correctness validation (stress accounting, long soaks); the
// registered factories' arena adapters are for throughput benchmarking,
// where a consumer descheduled long enough for 2^16 subsequent enqueues may
// read back a recycled slot's newer value (never unsafe memory).
func NewChecked(name string, n int) (qiface.Queue, error) {
	for _, e := range entries {
		if e.Name == name {
			return e.build(cfg{name, n, true})
		}
	}
	return nil, fmt.Errorf("registry: unknown queue %q (have %v)", name, qiface.Names())
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

// --- adapters -----------------------------------------------------------

// statsQueue adds qiface.StatsProvider to a built queue.
type statsQueue struct {
	qiface.Queue
	stats func() map[string]uint64
}

func (s statsQueue) Stats() map[string]uint64 { return s.stats() }

// coreStats reports the core counters for the paper's Table 2.
func coreStats(q *core.Queue) func() map[string]uint64 {
	return func() map[string]uint64 { return q.Stats().Map() }
}

// coreQueue builds the wait-free core with opts.
func coreQueue(opts ...core.Option) builder {
	return func(c cfg) (qiface.Queue, error) {
		q := core.New(c.n, opts...)
		return statsQueue{newPtr(c, q), coreStats(q)}, nil
	}
}

// shardedQueue builds the multi-lane sharded queue. Each Register homes its
// handle by the queue's own policy (round-robin over lanes), so the
// harnesses' workers spread across lanes exactly as library users would.
// Its stats are the lane-summed core counters under the usual keys plus the
// sharded layer's own.
func shardedQueue(opts ...sharded.Option) builder {
	return func(c cfg) (qiface.Queue, error) {
		q := sharded.New(c.n, opts...)
		return statsQueue{newPtr(c, q), func() map[string]uint64 {
			st := q.Stats()
			m := st.Core.Map()
			m["lanes"] = uint64(st.Lanes)
			m["steals"] = st.Sharded.Steals
			m["sweeps"] = st.Sharded.Sweeps
			m["empty_dequeues"] = st.Sharded.EmptyDequeues
			return m
		}}, nil
	}
}

// u64Queue adapts the queues that carry uint64 values themselves (lcrq,
// simqueue), so values are exact with no value maker. register binds a new
// handle into closures that call the queue's methods directly; called
// through an interface instead, Figure 2's lcrq half row at two threads
// read about 3% lower (EXPERIMENTS.md).
type u64Queue struct {
	cfg
	register func() (enq func(uint64), deq func() (uint64, bool), err error)
}

func (a *u64Queue) Register() (qiface.Ops, error) {
	enq, deq, err := a.register()
	if err != nil {
		return qiface.Ops{}, err
	}
	return qiface.WithBatchFallback(qiface.Ops{Enqueue: enq, Dequeue: deq}), nil
}

func lcrqQueue(c cfg, q *lcrq.Queue) *u64Queue {
	return &u64Queue{c, func() (func(uint64), func() (uint64, bool), error) {
		h, err := q.Register()
		return func(v uint64) { q.Enqueue(h, v) }, func() (uint64, bool) { return q.Dequeue(h) }, err
	}}
}

func simQueue(c cfg, q *simqueue.Queue) *u64Queue {
	return &u64Queue{c, func() (func(uint64), func() (uint64, bool), error) {
		h, err := q.Register()
		return func(v uint64) { q.Enqueue(h, v) }, func() (uint64, bool) { return q.Dequeue(h) }, err
	}}
}

type faaQueue struct {
	cfg
	b *faabench.Bench
}

// Register returns operations that only perform the FAAs; Dequeue always
// "succeeds" since the microbenchmark transfers no values.
func (a *faaQueue) Register() (qiface.Ops, error) {
	return qiface.WithBatchFallback(qiface.Ops{
		Enqueue: func(uint64) { a.b.Enqueue() },
		Dequeue: func() (uint64, bool) { return uint64(a.b.Dequeue()), true },
	}), nil
}

type chanQueue struct {
	cfg
	q *chanq.Queue
}

func (a *chanQueue) Register() (qiface.Ops, error) {
	return qiface.WithBatchFallback(qiface.Ops{
		Enqueue: a.q.Enqueue,
		Dequeue: a.q.Dequeue,
	}), nil
}

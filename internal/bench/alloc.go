// Steady-state allocation measurements behind the exact-zero allocation
// gates in bench_test.go (TestSteadyStateAllocsZero and its SCQ,
// coalescing, sharded and handle-churn siblings), which fail when a queue
// hot path allocates at steady state.
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"unsafe"

	"wfqueue/internal/core"
	"wfqueue/internal/scq"
	"wfqueue/internal/sharded"
)

// SteadyStateResult reports what one SteadyStateAllocs run observed.
type SteadyStateResult struct {
	Ops         int     // measured enqueue+dequeue pairs
	AllocsPerOp float64 // heap allocations per pair (expected: 0)
	BytesPerOp  float64 // heap bytes per pair (expected: 0)
	Recycled    uint64  // segments the queue reclaimed during measurement
	// Stacks holds one symbolized stack per allocation site counted in
	// AllocsPerOp (queueAllocs).
	Stacks []string
}

// AllocSites returns Stacks as one block of text, for a gate's failure
// message.
func (r SteadyStateResult) AllocSites() string { return strings.Join(r.Stacks, "\n") }

// queuePackages are the packages whose frames make an allocation the
// queue's own in queueAllocs.
var queuePackages = []string{"wfqueue/internal/core.", "wfqueue/internal/sharded.", "wfqueue/internal/scq."}

// queueAllocs runs fn with every allocation sampled (runtime.MemProfileRate
// 1) and returns the objects and bytes fn's window allocated under a frame
// of queuePackages, with one stack per such allocation site. Process-wide
// MemStats also count what the runtime and other goroutines allocate in the
// window; with more than one P that background work lands in an exact-zero
// gate now and then (about one object per 200,000 ops on a 2-thread host),
// while an allocation on a queue path always carries a queue frame.
func queueAllocs(fn func()) (objs, bytes int64, stacks []string) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocSites()
	fn()
	for stk, a := range allocSites() {
		b := before[stk]
		if a.objs == b.objs || !hasQueueFrame(stk) {
			continue
		}
		objs += a.objs - b.objs
		bytes += a.bytes - b.bytes
		stacks = append(stacks, formatStack(stk))
	}
	return objs, bytes, stacks
}

type siteCount struct{ objs, bytes int64 }

// allocSites returns the cumulative allocation count of every stack in the
// heap profile. The runtime.GC first publishes the allocations made so far:
// the profile only reflects completed collection cycles.
func allocSites() map[[32]uintptr]siteCount {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n := 64; ; {
		recs = make([]runtime.MemProfileRecord, n)
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:m]
			break
		}
		n = m + m/4
	}
	sites := make(map[[32]uintptr]siteCount, len(recs))
	for _, r := range recs {
		c := sites[r.Stack0] // records are per stack and size class
		c.objs += r.AllocObjects
		c.bytes += r.AllocBytes
		sites[r.Stack0] = c
	}
	return sites
}

func frames(stk [32]uintptr) *runtime.Frames {
	n := 0
	for n < len(stk) && stk[n] != 0 {
		n++
	}
	return runtime.CallersFrames(stk[:n])
}

func hasQueueFrame(stk [32]uintptr) bool {
	for fs := frames(stk); ; {
		f, more := fs.Next()
		for _, p := range queuePackages {
			if strings.HasPrefix(f.Function, p) {
				return true
			}
		}
		if !more {
			return false
		}
	}
}

func formatStack(stk [32]uintptr) string {
	var b strings.Builder
	for fs := frames(stk); ; {
		f, more := fs.Next()
		fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
		if !more {
			return b.String()
		}
	}
}

// SteadyStateAllocs measures the heap allocations of the core queue's
// enqueue/dequeue hot path at steady state, with segments small enough
// (shift 6, maxGarbage 1) that the measured window crosses many segment
// boundaries — so the number proves segment recycling, not just
// in-segment cell reuse. The queue is warmed through one full
// reclamation cycle first, then ops enqueue/dequeue pairs run on a single
// goroutine, counting the allocations made under a queue frame
// (queueAllocs). The allocation behavior of the data structure is
// thread-count independent: the same code paths run, only their
// interleaving changes.
func SteadyStateAllocs(ops int) SteadyStateResult {
	if ops < 1 {
		ops = 1
	}
	q := core.New(1,
		core.WithSegmentShift(6),
		core.WithMaxGarbage(1))
	h, err := q.Register()
	if err != nil {
		panic(err) // cannot happen: fresh queue, first handle
	}
	v := new(uint64)
	p := unsafe.Pointer(v)

	// Warm up past the first reclamation so the segment pool and handle
	// cache are populated: four segments' worth of pairs.
	warm := 4 << 6
	for i := 0; i < warm; i++ {
		q.Enqueue(h, p)
		q.Dequeue(h)
	}

	before := q.ReclaimedSegments()
	objs, bytes, stacks := queueAllocs(func() {
		for i := 0; i < ops; i++ {
			q.Enqueue(h, p)
			q.Dequeue(h)
		}
	})

	return SteadyStateResult{
		Ops:         ops,
		AllocsPerOp: float64(objs) / float64(ops),
		BytesPerOp:  float64(bytes) / float64(ops),
		Recycled:    q.ReclaimedSegments() - before,
		Stacks:      stacks,
	}
}

// SCQSteadyStateAllocs measures the heap allocations of the SCQ ring's
// TryEnqueue/Dequeue hot path on a warm ring. The capacity is small enough
// (MinCapacity rounded up to 64) that the measured window wraps the ring
// hundreds of times, so the number proves the whole cycle — free-ring
// dequeue, slot publish, allocated-ring ticket, slot recycle — allocates
// nothing, not just that the first lap does. Expected: exactly 0 (the queue
// allocates only in New).
func SCQSteadyStateAllocs(ops int) SteadyStateResult {
	if ops < 1 {
		ops = 1
	}
	const capacity = 64
	q, err := scq.New(1, capacity)
	if err != nil {
		panic(err) // cannot happen: fixed valid parameters
	}
	h, err := q.Register()
	if err != nil {
		panic(err) // cannot happen: fresh queue, first handle
	}
	v := new(uint64)
	p := unsafe.Pointer(v)

	// Warm past several full ring wraps so every slot's cycle bits have
	// advanced off their initial values.
	for i := 0; i < 4*capacity; i++ {
		if err := h.TryEnqueue(p); err != nil {
			panic(err) // cannot happen: lone producer never fills 64 slots
		}
		h.Dequeue()
	}

	objs, bytes, stacks := queueAllocs(func() {
		for i := 0; i < ops; i++ {
			if err := h.TryEnqueue(p); err != nil {
				panic(err)
			}
			h.Dequeue()
		}
	})

	return SteadyStateResult{
		Ops:         ops,
		AllocsPerOp: float64(objs) / float64(ops),
		BytesPerOp:  float64(bytes) / float64(ops),
		Recycled:    uint64(ops / capacity), // full ring wraps the window crossed
		Stacks:      stacks,
	}
}

// CoalesceSteadyStateAllocs measures the heap allocations of the core
// queue's coalesced hot path (CoalescedEnqueue/CoalescedDequeue at the
// given window) at steady state, with the same small-segment recycling
// setup as SteadyStateAllocs. It counts only allocations made under a
// queue frame (queueAllocs). The coalescing buffers are fixed arrays
// inside the handle, so the expectation is exactly 0 at every window —
// window 1 exercises the passthrough, larger windows the flush/refill
// cycle. Run-grouped shape (a run of window enqueues, then window
// dequeues) so the window actually fills rather than degenerating through
// the dequeue-side flush.
func CoalesceSteadyStateAllocs(ops, window int) SteadyStateResult {
	if ops < 1 {
		ops = 1
	}
	if window < 1 {
		window = 1
	}
	q := core.New(1,
		core.WithSegmentShift(6),
		core.WithMaxGarbage(1),
		core.WithCoalescing(window))
	h, err := q.Register()
	if err != nil {
		panic(err) // cannot happen: fresh queue, first handle
	}
	v := new(uint64)
	p := unsafe.Pointer(v)

	run := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for j := 0; j < window; j++ {
				q.CoalescedEnqueue(h, p)
			}
			for j := 0; j < window; j++ {
				q.CoalescedDequeue(h)
			}
		}
	}
	// Warm past the first reclamation cycle.
	run((4 << 6) / window)

	before := q.ReclaimedSegments()
	rounds := ops / window
	if rounds < 1 {
		rounds = 1
	}
	objs, bytes, stacks := queueAllocs(func() { run(rounds) })

	measured := rounds * window
	return SteadyStateResult{
		Ops:         measured,
		AllocsPerOp: float64(objs) / float64(measured),
		BytesPerOp:  float64(bytes) / float64(measured),
		Recycled:    q.ReclaimedSegments() - before,
		Stacks:      stacks,
	}
}

// ShardedSteadyStateAllocs measures the heap allocations of the sharded
// queue's hot path at steady state: each value is enqueued on one
// handle's home lane and stolen by the next handle's sweep, and every few
// pairs an EMPTY dequeue runs the full two-pass sweep over every foreign
// lane, so the number covers home-lane dispatch, successful steals and the
// EMPTY witness pass on top of the core lanes. Expected: exactly 0.
func ShardedSteadyStateAllocs(ops int) SteadyStateResult {
	if ops < 1 {
		ops = 1
	}
	q := sharded.New(4, sharded.WithLanes(4),
		sharded.WithCoreOptions(core.WithSegmentShift(6), core.WithMaxGarbage(1)))
	// One handle per lane, all driven by this goroutine in rotation: every
	// lane keeps receiving enqueues, so the cells the EMPTY sweeps poison on
	// foreign lanes are continually passed by that lane's own T and the
	// segments recycle (a lane polled but never fed retains segments by the
	// core's design — that is a workload property, not an allocation bug).
	var hs [4]*sharded.Handle
	for i := range hs {
		h, err := q.RegisterOnLane(i)
		if err != nil {
			panic(err) // cannot happen: fresh queue, capacity 4
		}
		hs[i] = h
	}
	v := new(uint64)
	p := unsafe.Pointer(v)

	run := func(ops int) {
		for i := 0; i < ops; i++ {
			h := hs[i%len(hs)]
			q.Enqueue(h, p)
			// The next handle's home lane is empty, so its dequeue steals
			// the value from h's lane.
			q.Dequeue(hs[(i+1)%len(hs)])
			// One EMPTY full-queue sweep every few pairs keeps the
			// definitive pass in the measured window.
			if i&7 == 0 {
				q.Dequeue(h)
			}
		}
	}
	// Warm every lane past its first reclamation cycle.
	run(4 * (4 << 6))
	// One untimed pass first: the EMPTY sweeps widen each lane's live
	// segment window over its first pass (four fresh segments), and the
	// pools settle only after that. Then the measured pass, attributed to
	// queue frames (queueAllocs).
	run(ops)
	objs, bytes, stacks := queueAllocs(func() { run(ops) })
	return SteadyStateResult{
		Ops:         ops,
		AllocsPerOp: float64(objs) / float64(ops),
		BytesPerOp:  float64(bytes) / float64(ops),
		Stacks:      stacks,
	}
}

// ChurnAllocsResult reports the heap traffic of a handle-lifecycle churn
// measurement (the analogous gate for Register/Release: expected exactly 0,
// since both pools pre-allocate every handle at construction).
type ChurnAllocsResult struct {
	Cycles         int
	AllocsPerCycle float64
	BytesPerCycle  float64
	// Stacks holds one symbolized stack per allocation site counted in
	// AllocsPerCycle (queueAllocs).
	Stacks []string
}

// AllocSites returns Stacks as one block of text, for a gate's failure
// message.
func (r ChurnAllocsResult) AllocSites() string { return strings.Join(r.Stacks, "\n") }

// churnAllocs runs cycle() once as a warm-up (the first acquisition may
// fault in lazily initialized runtime state, which is not the lifecycle's
// doing), then counts the allocations cycles more calls make under a queue
// frame (queueAllocs).
func churnAllocs(cycles int, cycle func()) ChurnAllocsResult {
	if cycles < 1 {
		cycles = 1
	}
	cycle()
	objs, bytes, stacks := queueAllocs(func() {
		for i := 0; i < cycles; i++ {
			cycle()
		}
	})
	return ChurnAllocsResult{
		Cycles:         cycles,
		AllocsPerCycle: float64(objs) / float64(cycles),
		BytesPerCycle:  float64(bytes) / float64(cycles),
		Stacks:         stacks,
	}
}

// CoreChurnAllocs measures the core queue's AcquireHandle/Release pair: the
// lock-free handle pool must hand slots out and take them back without
// touching the heap (DESIGN.md §6).
func CoreChurnAllocs(cycles int) ChurnAllocsResult {
	q := core.New(2)
	return churnAllocs(cycles, func() {
		h, err := q.AcquireHandle()
		if err != nil {
			panic(err) // cannot happen: capacity 2, one handle in flight
		}
		h.Release()
	})
}

// ShardedChurnAllocs measures the sharded queue's Register/Release pair,
// which cycles a pre-allocated shell plus one core handle per lane — also
// required to be allocation-free.
func ShardedChurnAllocs(cycles int) ChurnAllocsResult {
	q := sharded.New(2, sharded.WithLanes(2))
	return churnAllocs(cycles, func() {
		h, err := q.Register()
		if err != nil {
			panic(err)
		}
		h.Release()
	})
}

// Package sharded layers a multi-lane queue over N independent instances of
// the paper's wait-free queue (internal/core), decentralizing the two
// global fetch-and-add counters that Figure 2 shows becoming the bottleneck
// at high core counts: the algorithm is "as fast as fetch-and-add", and
// once every thread hammers one T and one H cache line, fetch-and-add on
// that line is the wall. Sharding trades the single global FIFO order for
// per-lane FIFO plus per-producer ordering — the direction recent
// coordination-free designs take — while every lane keeps the core's
// wait-freedom, helping ring and hazard-pointer reclamation unchanged.
//
// # Structure
//
//	Queue
//	  ├── lane 0: core.Queue (own T/H, segments, helper ring)
//	  ├── lane 1: core.Queue
//	  └── ...      (N fixed at construction; default: power of two near
//	               GOMAXPROCS, the per-CPU-lane configuration)
//
// Every Handle registers with all lanes but has one home lane, assigned
// round-robin at Register (or chosen with RegisterOnLane). Enqueues go to
// the home lane, so one producer's values land in one lane in order.
// Dequeues drain the home lane and steal from the others, in cyclic order,
// when it is empty.
//
// # Ordering contract
//
// Precisely (see DESIGN.md §4 for the full statement and the steal
// protocol):
//
//   - Each lane is a linearizable FIFO queue.
//   - No value is lost or duplicated: steals move a value from exactly one
//     lane's cell to exactly one dequeuer (the per-cell claim CAS of the
//     core makes a double-steal impossible by construction).
//   - Values enqueued through one handle are dequeued in enqueue order by
//     any single consumer that receives them.
//   - Dequeue returns ok=false only after witnessing, for every lane, a
//     per-lane EMPTY linearization point within the call's interval. There
//     is no single instant at which all lanes are simultaneously empty —
//     that is the relaxation sharding buys throughput with.
//   - Lanes(1) degenerates to the strict single-queue semantics: every
//     operation is a direct pass-through to one core.Queue, so the sharded
//     queue is then linearizable to a FIFO queue (verified by lincheck).
package sharded

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"wfqueue/internal/core"
	"wfqueue/internal/ctr"
	"wfqueue/internal/pad"
)

// MaxLanes bounds the lane count; beyond this the steal sweep's O(lanes)
// worst case stops paying for the FAA decentralization.
const MaxLanes = 64

// DefaultLanes returns the default lane count: the largest power of two
// ≤ GOMAXPROCS, the per-CPU-lane configuration (at least 1).
func DefaultLanes() int {
	n := 1
	//wfqlint:bounded(6, n doubles every iteration up to MaxLanes = 64: at most 6 iterations)
	for n*2 <= runtime.GOMAXPROCS(0) && n*2 <= MaxLanes {
		n *= 2
	}
	return n
}

// Option configures a Queue at construction.
type Option func(*config)

type config struct {
	lanes    int
	coreOpts []core.Option
}

// WithLanes fixes the lane count (clamped to [1, MaxLanes]); 0 selects
// DefaultLanes(). Lanes(1) is the strict single-queue configuration.
func WithLanes(n int) Option {
	return func(c *config) {
		if n > MaxLanes {
			n = MaxLanes
		}
		if n < 0 {
			n = 0
		}
		c.lanes = n
	}
}

// WithCoreOptions passes options through to every lane's core.Queue
// (patience, segment size, recycling, spin bound, ...).
func WithCoreOptions(opts ...core.Option) Option {
	return func(c *config) { c.coreOpts = append(c.coreOpts, opts...) }
}

// lane wraps one core queue. The descriptor line (q) is read by every
// operation; stolenFrom is written (rarely) by stealing consumers. The
// padding keeps each lane's mutable word off its neighbors' descriptor
// lines, so a steal burst against lane i never invalidates the line some
// other handle needs to reach lane j — asserted by the padding audit.
type lane struct {
	_ pad.CacheLinePad
	q *core.Queue
	// stolenFrom counts values removed from this lane by handles homed
	// elsewhere.
	stolenFrom atomic.Uint64
	_          pad.CacheLinePad
}

// Counters are per-handle sharded-layer instrumentation (the per-lane core
// counters live in core.Counters). Single writer per handle; aggregated by
// Stats.
type Counters struct {
	Enqueues      uint64 // values enqueued through this handle
	Dequeues      uint64 // values dequeued through this handle
	EmptyDequeues uint64 // dequeues that returned EMPTY after a full sweep
	Steals        uint64 // values obtained from a non-home lane
	Sweeps        uint64 // dequeue calls that had to look beyond the home lane
}

// QueueStats is the aggregate view returned by Stats.
type QueueStats struct {
	Lanes int
	// Core sums every lane's core.Counters.
	Core core.Counters
	// Sharded sums every handle's sharded-layer Counters (including
	// released handles).
	Sharded Counters
	// StolenFrom is the per-lane count of values stolen by non-home
	// consumers.
	StolenFrom []uint64
}

// Queue is the sharded multi-lane queue. Create instances with New; all
// operations go through Handles obtained from Register.
type Queue struct {
	lanes      []lane
	maxHandles int

	// The lock-free shell pool (see Register): every Handle shell — the hs
	// slice and the stats — is allocated once at New and
	// recirculated through a generation-tagged free list, the same idiom as
	// the core handle pool (core/handlepool.go), so Register/Release is
	// lock-free and allocation-free at this layer too. hfree packs
	// (generation:40 | shell index+1:24), 0 index meaning empty.
	shells []*Handle

	// regSeq assigns home lanes round-robin and hfree heads the shell free
	// list. Both are touched only on the cold Register/Release path, a full
	// line away from the descriptor words every operation reads.
	_      pad.CacheLinePad
	regSeq atomic.Int64
	hfree  atomic.Uint64
	_      pad.CacheLinePad
}

// Handle is a thread's registration with the sharded queue: one core handle
// per lane plus a home lane. A Handle may be used by only one goroutine at
// a time. The pads isolate the owner's hot stats writes from neighboring
// heap objects (handles are often allocated back to back).
type Handle struct {
	_    pad.CacheLinePad
	q    *Queue
	home int
	hs   []*core.Handle // per-lane core handles, indexed by lane id

	// Lifecycle state (see Register/Release): idx is the shell's fixed slot
	// in Queue.shells; freeNext links free shells by index+1 (0 terminates),
	// written only by the slot's exclusive owner between pop and push; life
	// is the checkout epoch — odd while checked out, even while free,
	// monotonically increasing — which makes Release idempotent.
	idx      int
	freeNext uint32
	life     atomic.Uint64

	stats Counters
	_     pad.CacheLinePad
}

// New creates a sharded queue supporting up to maxHandles concurrently
// registered handles. Every lane is sized for all maxHandles (any handle
// may steal from any lane).
func New(maxHandles int, opts ...Option) *Queue {
	if maxHandles < 1 {
		maxHandles = 1
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	n := cfg.lanes
	if n == 0 {
		n = DefaultLanes()
	}
	q := &Queue{lanes: make([]lane, n)}
	for i := range q.lanes {
		q.lanes[i].q = core.New(maxHandles, cfg.coreOpts...)
	}
	// The core clamps oversized maxThreads; size the shell pool to what
	// the lanes actually support so a popped shell can always register on
	// every lane (see the counting argument on RegisterOnLane).
	q.maxHandles = q.lanes[0].q.Capacity()
	// Pre-allocate every Handle shell — hs slice, stats — and chain them
	// onto the lock-free free list (shell i links to i+1, 1-based; the last
	// links to 0). Register/Release recirculate these shells without
	// allocating.
	q.shells = make([]*Handle, q.maxHandles)
	for i := range q.shells {
		q.shells[i] = &Handle{q: q, idx: i, hs: make([]*core.Handle, n)}
	}
	for i := 0; i < len(q.shells)-1; i++ {
		q.shells[i].freeNext = uint32(i + 2)
	}
	q.hfree.Store(1)
	return q
}

// shellIdx packing of the free-list head word, mirroring the core handle
// pool: 24-bit 1-based indices under a 40-bit generation tag that every
// successful pop advances (the ABA defense — see core/handlepool.go).
const (
	shellIdxBits = 24
	shellIdxMask = 1<<shellIdxBits - 1
)

// popShell pops a free shell off the tagged free list, or returns nil when
// every shell is checked out.
func (q *Queue) popShell() *Handle {
	//wfqlint:bounded(RETRY, lock-free CAS retry: a failed CAS means another goroutine completed a shell pop or push, so the system makes progress; the lifecycle is documented as lock-free, not wait-free (DESIGN.md §6), and registration is off every queue operation's path)
	for {
		old := q.hfree.Load()
		idx := uint32(old & shellIdxMask)
		if idx == 0 {
			return nil
		}
		h := q.shells[idx-1]
		next := atomic.LoadUint32(&h.freeNext)
		gen := old >> shellIdxBits
		if q.hfree.CompareAndSwap(old, (gen+1)<<shellIdxBits|uint64(next)) {
			return h
		}
	}
}

// pushShell pushes shell index idx (+1 encoding) back onto the free list.
// Pushes preserve the generation; only pops advance it.
func (q *Queue) pushShell(idx uint32) {
	//wfqlint:bounded(RETRY, lock-free CAS retry: a failed CAS means another goroutine completed a shell pop or push; the lifecycle is documented as lock-free, not wait-free (DESIGN.md §6), and release is off every queue operation's path)
	for {
		old := q.hfree.Load()
		atomic.StoreUint32(&q.shells[idx-1].freeNext, uint32(old&shellIdxMask))
		if q.hfree.CompareAndSwap(old, old>>shellIdxBits<<shellIdxBits|uint64(idx)) {
			return
		}
	}
}

// Lanes returns the lane count.
func (q *Queue) Lanes() int { return len(q.lanes) }

// Register checks out a handle homed on the next lane in round-robin order,
// so concurrent workers spread evenly over the lanes. Each concurrent
// worker needs its own handle; return it with Handle.Release.
func (q *Queue) Register() (*Handle, error) {
	seq := q.regSeq.Add(1) - 1
	return q.RegisterOnLane(int(seq % int64(len(q.lanes))))
}

// RegisterOnLane checks out a handle homed on the given lane.
//
// The lifecycle is lock-free and allocation-free: pop a pre-allocated shell
// off the tagged free list, then acquire one core handle per lane. Shell
// capacity equals every lane's core capacity and Release returns the lane
// handles BEFORE the shell, so holding a popped shell guarantees each lane
// has a free core handle (for every lane, free core handles ≥ free shells +
// in-flight registrants holding a shell) — the per-lane loop cannot fail in
// steady state. The rollback below nevertheless releases the handles
// already acquired from lanes 0..i-1 and returns the shell, so a failure
// can never leak capacity.
func (q *Queue) RegisterOnLane(home int) (*Handle, error) {
	if home < 0 || home >= len(q.lanes) {
		return nil, fmt.Errorf("sharded: home lane %d out of range [0,%d)", home, len(q.lanes))
	}
	h := q.popShell()
	if h == nil {
		return nil, fmt.Errorf("sharded: %w", core.ErrTooManyHandles)
	}
	h.home = home
	//wfqlint:bounded(LANES, one per-lane core registration)
	for i := range q.lanes {
		ch, err := q.lanes[i].q.Register()
		if err != nil {
			//wfqlint:bounded(LANES, rollback of the already-acquired lane handles)
			for j := 0; j < i; j++ {
				h.hs[j].Release()
				h.hs[j] = nil
			}
			q.pushShell(uint32(h.idx + 1))
			return nil, fmt.Errorf("sharded: lane %d: %w", i, err)
		}
		h.hs[i] = ch
	}
	h.life.Add(1) // odd: checked out
	return h, nil
}

// Home returns the handle's home lane.
func (h *Handle) Home() int { return h.home }

// Release returns the handle's per-lane registrations and its shell to the
// queue's free list. The handle must have no operation in flight and must
// not be used afterwards. Release is idempotent within the handle's
// checkout epoch: a second call observes the even life word (or loses the
// closing CAS) and returns without touching the pools. Counters stay in the
// shell — they are never reset, so Stats remains monotonic across
// release/re-register cycles.
//
// Ordering matters: the lane handles go back BEFORE the shell, so a
// concurrent Register that wins the shell finds a free core handle in every
// lane (see RegisterOnLane).
func (h *Handle) Release() {
	cur := h.life.Load()
	if cur&1 == 0 {
		return // already released this epoch: idempotent no-op
	}
	if !h.life.CompareAndSwap(cur, cur+1) {
		return // lost the closing race: the other Release returns the slot
	}
	//wfqlint:bounded(LANES, release one core handle per lane)
	for _, ch := range h.hs {
		ch.Release()
	}
	h.q.pushShell(uint32(h.idx + 1))
}

func (c *Counters) add(o *Counters) {
	c.Enqueues += ctr.Load(&o.Enqueues)
	c.Dequeues += ctr.Load(&o.Dequeues)
	c.EmptyDequeues += ctr.Load(&o.EmptyDequeues)
	c.Steals += ctr.Load(&o.Steals)
	c.Sweeps += ctr.Load(&o.Sweeps)
}

// Size returns an instantaneous approximation of the total queue length
// (the sum of per-lane sizes; exact only in quiescent states).
func (q *Queue) Size() int64 {
	var total int64
	//wfqlint:bounded(LANES, sum one per-lane size)
	for i := range q.lanes {
		total += q.lanes[i].q.Size()
	}
	return total
}

// Stats aggregates the per-lane core counters and the sharded-layer
// counters of all handles, live and released.
func (q *Queue) Stats() QueueStats {
	st := QueueStats{
		Lanes:      len(q.lanes),
		StolenFrom: make([]uint64, len(q.lanes)),
	}
	for i := range q.lanes {
		st.Core.Add(q.lanes[i].q.Stats())
		st.StolenFrom[i] = q.lanes[i].stolenFrom.Load()
	}
	// Shells are never freed and their counters never reset, so summing
	// every shell covers live and released handles alike, monotonically.
	for _, h := range q.shells {
		st.Sharded.add(&h.stats)
	}
	return st
}

func (q *Queue) String() string {
	return fmt.Sprintf("sharded.Queue{lanes=%d, handles=%d, size≈%d}",
		len(q.lanes), q.maxHandles, q.Size())
}

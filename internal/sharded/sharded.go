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
// Every Handle registers with all lanes but has one home lane. Dispatch:
//
//   - DispatchAffinity (default): enqueues go to the handle's home lane, so
//     one producer's values land in one lane in order (per-producer FIFO).
//     Dequeues drain the home lane and steal from the others when it is
//     empty.
//   - DispatchRoundRobin: enqueues pick a lane by FAA on a shared cursor.
//     This balances load under skewed producers but gives up per-producer
//     ordering (consecutive values from one producer land in different
//     lanes); only no-loss/no-duplication survives.
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
//   - Under DispatchAffinity, values enqueued through one handle are
//     dequeued in enqueue order by any single consumer that receives them.
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
	"unsafe"

	"wfqueue/internal/affinity"
	"wfqueue/internal/core"
	"wfqueue/internal/pad"
	"wfqueue/internal/scq"
)

// MaxLanes bounds the lane count; beyond this the steal sweep's O(lanes)
// worst case stops paying for the FAA decentralization.
const MaxLanes = 64

// Dispatch selects how enqueues pick a lane.
type Dispatch int

const (
	// DispatchAffinity routes every operation to the handle's home lane
	// first (per-producer FIFO preserved).
	DispatchAffinity Dispatch = iota
	// DispatchRoundRobin spreads enqueues over lanes by FAA on a shared
	// cursor (no per-producer ordering).
	DispatchRoundRobin
)

func (d Dispatch) String() string {
	if d == DispatchRoundRobin {
		return "round-robin"
	}
	return "affinity"
}

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
	dispatch Dispatch
	cpuHome  bool
	coreOpts []core.Option
	// scqCap, when nonzero, selects SCQ lane mode: every lane is a bounded
	// scq ring of this capacity instead of a core queue (see scqlane.go).
	scqCap int
	// coalesce is the enqueue coalescing window (coalesce.go); 0/1 disable
	// buffering.
	coalesce int
	// topo, park, cpuSrc configure topology-aware placement and empty-queue
	// parking (topo.go).
	topo   *affinity.Topology
	park   bool
	cpuSrc func() (int, bool)
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

// WithDispatch selects the enqueue dispatch policy.
func WithDispatch(d Dispatch) Option {
	return func(c *config) { c.dispatch = d }
}

// WithCPUHoming makes Register derive the home lane from the CPU the
// calling thread is on (affinity.CurrentCPU), the per-CPU-lane placement:
// workers pinned to distinct CPUs get distinct home lanes and SMT siblings
// share one. Off by default — for unpinned goroutines the CPU at
// registration time is arbitrary and round-robin homing balances better.
func WithCPUHoming(on bool) Option {
	return func(c *config) { c.cpuHome = on }
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
	// sq is the lane's bounded ring in SCQ mode (nil in core mode; exactly
	// one of q/sq is non-nil).
	sq *scq.Queue
	// id is the lane's index (fixed after New). int64 so the atomic words
	// below stay 8-aligned on 32-bit targets now that the descriptor holds
	// two 4-byte pointers there (padding audit).
	id int64
	// stolenFrom counts values removed from this lane by handles homed
	// elsewhere (atomic).
	stolenFrom uint64
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
	RRDispatches  uint64 // enqueues routed by the round-robin cursor
	FullRejects   uint64 // TryEnqueues rejected by a full lane (SCQ mode)
	Parks         uint64 // empty-dequeue spin parks taken (parking ladder)
	ParkYields    uint64 // empty-dequeue Gosched yields past the top rung
}

// QueueStats is the aggregate view returned by Stats.
type QueueStats struct {
	Lanes    int
	Dispatch Dispatch
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
	dispatch   Dispatch
	cpuHome    bool
	maxHandles int
	// scqCap is the requested per-lane ring capacity in SCQ mode (0 in core
	// mode); the effective, rounded-up value is LaneCapacity(). int64 keeps
	// rr and regSeq 8-aligned on 32-bit targets (padding audit).
	scqCap int64
	// coalesce is the enqueue coalescing window (coalesce.go); <=1 means
	// the coalesced entry points are pure passthroughs.
	coalesce int64

	_ pad.CacheLinePad
	// rr is the round-robin dispatch cursor, FAAed on every enqueue in
	// DispatchRoundRobin mode — the one shared hot word of this layer, on
	// its own line.
	rr int64
	_  pad.CacheLinePad

	// regSeq assigns default home lanes round-robin (Register-time only).
	regSeq int64

	// Topology placement state (topo.go; all nil/false when topology-blind).
	// The tables are precomputed at New from the immutable snapshot and only
	// read afterwards — read-mostly like the descriptor fields, and placed
	// here (after the 64-bit atomic words) so they cannot disturb rr/regSeq
	// alignment on 32-bit targets. topo is the snapshot; park enables the
	// empty-queue parking ladder; cpuSrc is where placement reads the calling
	// thread's CPU (injectable for tests and fault injection; default
	// affinity.CurrentCPU).
	topo   *affinity.Topology
	park   bool
	cpuSrc func() (int, bool)
	// laneCPU anchors each lane to a representative CPU; domainLanes lists
	// each LLC domain's lanes (Register's placement pool); stealOrder is each
	// home lane's distance-ordered visit sequence over the other lanes.
	laneCPU     []int
	domainLanes [][]int
	stealOrder  [][]int

	// The lock-free shell pool (see Register): every Handle shell — the hs
	// slice and the stats — is allocated once at New and
	// recirculated through a generation-tagged free list, the same idiom as
	// the core handle pool (core/handlepool.go), so Register/Release is
	// lock-free and allocation-free at this layer too. hfree packs
	// (generation:40 | shell index+1:24), 0 index meaning empty.
	shells []*Handle
	_      pad.CacheLinePad
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
	shs  []*scq.Handle  // per-lane scq handles in SCQ mode (nil otherwise)

	// Lifecycle state (see Register/Release): idx is the shell's fixed slot
	// in Queue.shells; freeNext links free shells by index+1 (0 terminates),
	// written only by the slot's exclusive owner between pop and push; life
	// is the checkout epoch — odd while checked out, even while free,
	// monotonically increasing — which makes Release idempotent.
	idx      int
	freeNext uint32
	life     atomic.Uint64

	// Coalescing state (coalesce.go): the producer buffer accumulating
	// enqueues for the next whole-window flush into one lane, and the
	// drain buffer holding a harvested run. Owner-only fixed arrays, so
	// coalescing allocates nothing at this layer either.
	cbuf  [core.CoalesceMaxWindow]unsafe.Pointer
	clen  int32
	cops  int32
	dbuf  [core.CoalesceMaxWindow]unsafe.Pointer
	dhead int32
	dlen  int32

	// Parking ladder state (topo.go; owner-only). parkStreak counts
	// consecutive EMPTY dequeues (the ladder rung); parkEWMA is the Q8
	// smoothed empty rate; parkOps/parkEmpties accumulate the current
	// window before the next EWMA fold.
	parkStreak  int
	parkEWMA    uint64
	parkOps     uint64
	parkEmpties uint64

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
	if cfg.scqCap != 0 {
		// The scq handle pool packs indices into handleIdxBits of the
		// free-list word; stay clearly inside it.
		if maxHandles > 1<<16 {
			maxHandles = 1 << 16
		}
	}
	if cfg.coalesce < 1 {
		cfg.coalesce = 1
	}
	if cfg.cpuSrc == nil {
		cfg.cpuSrc = affinity.CurrentCPU
	}
	q := &Queue{
		lanes:    make([]lane, n),
		dispatch: cfg.dispatch,
		cpuHome:  cfg.cpuHome,
		scqCap:   int64(cfg.scqCap),
		coalesce: int64(cfg.coalesce),
		topo:     cfg.topo,
		park:     cfg.park,
		cpuSrc:   cfg.cpuSrc,
	}
	if q.topo != nil {
		q.initTopology()
	}
	if cfg.scqCap != 0 {
		q.newSCQLanes(maxHandles, &cfg)
	} else {
		for i := range q.lanes {
			q.lanes[i].id = int64(i)
			q.lanes[i].q = core.New(maxHandles, cfg.coreOpts...)
		}
		// The core clamps oversized maxThreads; size the shell pool to what
		// the lanes actually support so a popped shell can always register on
		// every lane (see the counting argument on Register).
		q.maxHandles = q.lanes[0].q.Capacity()
	}
	// Pre-allocate every Handle shell — hs slice, stats —
	// and chain them onto the lock-free free list (shell i links to i+1,
	// 1-based; the last links to 0). Register/Release recirculate these
	// shells without allocating.
	q.shells = make([]*Handle, q.maxHandles)
	for i := range q.shells {
		h := &Handle{q: q, idx: i}
		if cfg.scqCap != 0 {
			h.shs = make([]*scq.Handle, n)
		} else {
			h.hs = make([]*core.Handle, n)
		}
		q.shells[i] = h
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

// DispatchPolicy returns the configured enqueue dispatch policy.
func (q *Queue) DispatchPolicy() Dispatch { return q.dispatch }

// Register checks out a handle. Under WithTopology the home lane is a lane
// inside the calling CPU's LLC domain (round-robin within the domain); with
// WithCPUHoming it is cpu mod lanes; otherwise it is assigned round-robin
// over all lanes so concurrent workers spread evenly. Both CPU-derived
// placements fall back to round-robin when the platform cannot report the
// CPU. Each concurrent worker needs its own handle; return it with
// Handle.Release.
func (q *Queue) Register() (*Handle, error) {
	if q.topo != nil {
		if cpu, ok := q.cpuSrc(); ok {
			return q.RegisterOnLane(q.homeLaneFor(cpu))
		}
	} else if q.cpuHome {
		if cpu, ok := q.cpuSrc(); ok {
			return q.RegisterOnLane(cpu % len(q.lanes))
		}
	}
	seq := atomic.AddInt64(&q.regSeq, 1) - 1
	return q.RegisterOnLane(int(seq % int64(len(q.lanes))))
}

// RegisterOnCurrentCPU checks out a handle homed on the lane matching the
// calling thread's current CPU — under WithTopology a lane in the CPU's LLC
// domain, otherwise cpu mod lanes — the per-CPU-lane placement for workers
// that pin themselves with internal/affinity. It falls back to Register's
// round-robin homing when the platform cannot report the CPU.
func (q *Queue) RegisterOnCurrentCPU() (*Handle, error) {
	if cpu, ok := q.cpuSrc(); ok {
		if q.topo != nil {
			return q.RegisterOnLane(q.homeLaneFor(cpu))
		}
		return q.RegisterOnLane(cpu % len(q.lanes))
	}
	return q.Register()
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
	if q.scqCap != 0 {
		if err := q.registerSCQ(h); err != nil {
			q.pushShell(uint32(h.idx + 1))
			return nil, fmt.Errorf("sharded: %w", err)
		}
	} else {
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
	// Auto-flush the coalescing buffers (coalesce.go) while the lane
	// handles are still checked out: buffered and undrained values must
	// enter the shared queue before the shell can be reused.
	if h.clen > 0 || h.dhead < h.dlen {
		h.q.releaseFlush(h)
	}
	if !h.life.CompareAndSwap(cur, cur+1) {
		return // lost the closing race: the other Release returns the slot
	}
	if h.q.scqCap != 0 {
		//wfqlint:bounded(LANES, release one scq handle per lane)
		for _, sh := range h.shs {
			sh.Release()
		}
	} else {
		//wfqlint:bounded(LANES, release one core handle per lane)
		for _, ch := range h.hs {
			ch.Release()
		}
	}
	h.q.pushShell(uint32(h.idx + 1))
}

func (c *Counters) add(o *Counters) {
	c.Enqueues += ctrLoad(&o.Enqueues)
	c.Dequeues += ctrLoad(&o.Dequeues)
	c.EmptyDequeues += ctrLoad(&o.EmptyDequeues)
	c.Steals += ctrLoad(&o.Steals)
	c.Sweeps += ctrLoad(&o.Sweeps)
	c.RRDispatches += ctrLoad(&o.RRDispatches)
	c.FullRejects += ctrLoad(&o.FullRejects)
	c.Parks += ctrLoad(&o.Parks)
	c.ParkYields += ctrLoad(&o.ParkYields)
}

// Size returns an instantaneous approximation of the total queue length
// (the sum of per-lane sizes; exact only in quiescent states).
func (q *Queue) Size() int64 {
	var total int64
	//wfqlint:bounded(LANES, sum one per-lane size)
	for i := range q.lanes {
		if q.scqCap != 0 {
			total += int64(q.lanes[i].sq.Size())
		} else {
			total += q.lanes[i].q.Size()
		}
	}
	return total
}

// Stats aggregates the per-lane core counters and the sharded-layer
// counters of all handles, live and released.
func (q *Queue) Stats() QueueStats {
	st := QueueStats{
		Lanes:      len(q.lanes),
		Dispatch:   q.dispatch,
		StolenFrom: make([]uint64, len(q.lanes)),
	}
	for i := range q.lanes {
		if q.scqCap == 0 {
			st.Core.Add(q.lanes[i].q.Stats())
		}
		st.StolenFrom[i] = atomic.LoadUint64(&q.lanes[i].stolenFrom)
	}
	// Shells are never freed and their counters never reset, so summing
	// every shell covers live and released handles alike, monotonically.
	for _, h := range q.shells {
		st.Sharded.add(&h.stats)
	}
	return st
}

func (q *Queue) String() string {
	return fmt.Sprintf("sharded.Queue{lanes=%d, dispatch=%s, handles=%d, size≈%d}",
		len(q.lanes), q.dispatch, q.maxHandles, q.Size())
}

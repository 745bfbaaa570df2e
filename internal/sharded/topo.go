package sharded

// Topology-aware placement, cache-distance stealing and empty-queue parking
// (DESIGN.md §9). With WithTopology the queue stops treating lanes as
// interchangeable: every lane is anchored to a representative CPU, lanes are
// spread round-robin over the machine's LLC domains, and two decisions
// consult the distance structure instead of lane indices:
//
//   - Placement: Register homes a handle on a lane inside the calling CPU's
//     LLC domain (round-robin within the domain), so a producer's enqueues
//     and its consumers' drains stay inside one cache domain.
//   - Stealing: the dequeue sweep visits foreign lanes in cache-distance
//     order — SMT sibling, same LLC, same package, remote — so a stealer
//     pulls from the nearest non-empty lane before paying cross-socket
//     coherence traffic. The EMPTY-witness second pass is unchanged: the
//     order of the sweep is a performance decision, the per-lane witness is
//     the correctness one.
//
// All tables are precomputed at New from an immutable affinity.Topology
// snapshot; the hot paths only index them. Correctness never depends on the
// topology being accurate: a stale or shrunken snapshot (CPU hotplug,
// wfqstress -topo fault injection) degrades placement, and every CPU->lane
// map clamps (affinity.Topology accessors are total, homeLaneFor guards
// empty domains), so placement can never index a vanished lane.
//
// WithParking adds a third leg: consumers whose dequeues keep coming back
// EMPTY climb a bounded spin-then-yield ladder instead of re-sweeping at
// full speed, taking their cache-line traffic off the very cores the
// producers need. The ladder is per-handle and EWMA-gated; one parked call
// costs at most core.ParkSpinMax pause iterations plus one Gosched, so the
// operation's step bound grows by a compile-time constant (priced into
// artifacts/wfqcert.json via the PARK symbol).

import (
	"runtime"
	"sort"
	"sync/atomic"

	"wfqueue/internal/affinity"
	"wfqueue/internal/core"
)

// WithTopology anchors the queue's lanes to the given topology snapshot and
// turns on the two distance-aware decisions above. nil leaves the queue
// topology-blind (the previous modular-index behavior). Typical use passes
// affinity.System(); tests and fault injectors pass affinity.Build fakes.
func WithTopology(t *affinity.Topology) Option {
	return func(c *config) { c.topo = t }
}

// WithParking enables the empty-queue parking ladder for dequeuers (see the
// package comment above). Off by default: a latency-critical consumer that
// polls an empty queue keeps its full spin rate unless the caller opts in.
func WithParking() Option {
	return func(c *config) { c.park = true }
}

// WithCPUSource overrides where topology placement reads the calling
// thread's current CPU (default affinity.CurrentCPU). The injectable source
// makes placement deterministically testable on any host and lets wfqstress
// fault-inject CPUs that have vanished from a shrinking fake topology; the
// source may return ids outside the topology — placement clamps.
func WithCPUSource(src func() (int, bool)) Option {
	return func(c *config) { c.cpuSrc = src }
}

// Parking ladder tuning. The ladder arms only for handles whose recent
// dequeues were mostly EMPTY (the windowed EWMA below), then doubles a
// shared-memory-free pause from parkSpinMin per consecutive empty call up
// through parkRungs rungs; past the top rung every further empty dequeue
// yields the processor once. Any successful dequeue resets the climb.
const (
	// parkWindow is how many dequeues one EWMA fold covers.
	parkWindow = 64
	// parkArmQ8 is the Q8 empty-rate EWMA at which the ladder arms (≥ 0.75
	// of recent dequeues EMPTY). Below it parkEmpty returns immediately, so
	// a queue that is merely bursty never parks.
	parkArmQ8 = 192
	// parkSpinMin is the first rung's pause length (iterations).
	parkSpinMin = 32
	// parkRungs is the number of doubling spin rungs: parkSpinMin<<(parkRungs-1)
	// = core.ParkSpinMax, after which the ladder escalates to Gosched.
	parkRungs = 8
)

// parkNote accounts one completed dequeue for the parking controller: fold
// the window's empty rate into the EWMA every parkWindow dequeues and reset
// the ladder on success. Owner-only state, no atomics.
func (h *Handle) parkNote(empty bool) {
	h.parkOps++
	if empty {
		h.parkEmpties++
	} else {
		h.parkStreak = 0
	}
	if h.parkOps >= parkWindow {
		rate := h.parkEmpties * 256 / h.parkOps // Q8, denominators ≤ parkWindow: no overflow
		h.parkEWMA = uint64(int64(h.parkEWMA) + (int64(rate)-int64(h.parkEWMA))>>2)
		h.parkOps, h.parkEmpties = 0, 0
	}
}

// parkEmpty is the ladder itself, called when a dequeue is about to return
// EMPTY after a full sweep. Armed either by the smoothed empty rate or by a
// full window of consecutive EMPTYs (so a freshly idle consumer does not
// wait ~4 windows for the EWMA to catch up). Every call is bounded: at most
// core.ParkSpinMax pause iterations or one Gosched.
func (q *Queue) parkEmpty(h *Handle) {
	h.parkStreak++
	if h.parkEWMA < parkArmQ8 && h.parkStreak < parkWindow {
		return
	}
	r := h.parkStreak
	if r > parkRungs {
		ctrInc(&h.stats.ParkYields)
		runtime.Gosched()
		return
	}
	ctrInc(&h.stats.Parks)
	core.Pause(parkSpinMin << (r - 1))
}

// initTopology precomputes every placement table from the snapshot: the
// lane→CPU anchoring (lanes spread round-robin over LLC domains, then over
// each domain's CPUs), the per-domain lane lists Register draws from, the
// per-lane steal orders (other lanes by cache distance between anchor CPUs,
// ties by lane index — deterministic).
func (q *Queue) initTopology() {
	t := q.topo
	n := len(q.lanes)
	nd := t.NumLLC()
	q.laneCPU = make([]int, n)
	q.domainLanes = make([][]int, nd)
	for i := 0; i < n; i++ {
		d := i % nd
		cpus := t.LLCCPUs(d)
		q.laneCPU[i] = cpus[(i/nd)%len(cpus)]
		q.domainLanes[d] = append(q.domainLanes[d], i)
	}
	q.stealOrder = make([][]int, n)
	for i := 0; i < n; i++ {
		others := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				others = append(others, j)
			}
		}
		sort.SliceStable(others, func(a, b int) bool {
			da := t.Distance(q.laneCPU[i], q.laneCPU[others[a]])
			db := t.Distance(q.laneCPU[i], q.laneCPU[others[b]])
			if da != db {
				return da < db
			}
			return others[a] < others[b]
		})
		q.stealOrder[i] = others
	}
}

// homeLaneFor maps a CPU to a home lane inside its LLC domain, round-robin
// within the domain so co-located producers spread over the domain's lanes.
// The topology accessors clamp wild CPU ids and the empty-domain guard
// covers machines with more LLC domains than lanes, so the result is always
// a valid lane — the invariant wfqstress -topo hammers.
func (q *Queue) homeLaneFor(cpu int) int {
	d := q.topo.LLC(cpu)
	seq := atomic.AddInt64(&q.regSeq, 1) - 1
	if d >= len(q.domainLanes) || len(q.domainLanes[d]) == 0 {
		return int(seq % int64(len(q.lanes)))
	}
	ls := q.domainLanes[d]
	return ls[int(seq%int64(len(ls)))]
}

// Topology returns the snapshot the queue was built with (nil when
// topology-blind).
func (q *Queue) Topology() *affinity.Topology { return q.topo }

// LaneCPU returns the representative CPU lane li is anchored to, or -1 when
// the queue is topology-blind or li is out of range.
func (q *Queue) LaneCPU(li int) int {
	if q.topo == nil || li < 0 || li >= len(q.laneCPU) {
		return -1
	}
	return q.laneCPU[li]
}

// StealOrder returns the precomputed distance-ordered steal sequence for a
// home lane (a copy; nil when topology-blind). Exposed for tests and the
// stress harness's placement audits.
func (q *Queue) StealOrder(home int) []int {
	if q.topo == nil || home < 0 || home >= len(q.stealOrder) {
		return nil
	}
	out := make([]int, len(q.stealOrder[home]))
	copy(out, q.stealOrder[home])
	return out
}

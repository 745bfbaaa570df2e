package scq

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"wfqueue/internal/ctr"
	"wfqueue/internal/pad"
)

// ErrFull is returned by TryEnqueue when all capacity slots hold in-flight
// values at a linearizable point: the queue's backpressure signal.
var ErrFull = errors.New("scq: queue full")

// ErrTooManyHandles is returned by Register when maxHandles handles are
// already checked out.
var ErrTooManyHandles = errors.New("scq: too many handles")

// MinCapacity is the smallest supported capacity (the cache remap needs the
// ring to span at least one full cache line of slots).
const MinCapacity = 1 << (ringMinOrder - 1)

// Default knobs for the helping layer. Budgets are FAA-ticket counts on the
// allocated ring; small multiples of the handle count bound the interference
// any single operation can absorb before escalating.
const (
	// fastTickets is the ring-ticket budget of a dequeue's fast path.
	fastTickets = 32
	// helpTickets is the ring-ticket budget a helper spends on a peer.
	helpTickets = 16
	// slowSpin is how many request-word loads a slow-path dequeuer makes
	// per round before reclaiming the round for its own attempt.
	slowSpin = 64
)

// Request-word markers (the low reqBits of a handle's deqReq word; the high
// bits carry the request epoch). See help.go for the protocol.
const (
	reqIdle  = 0 // no request outstanding
	reqAwait = 1 // published, awaiting a donation
	reqEmpty = 2 // a helper donated an EMPTY witness
	// Markers >= reqDonated carry a donated ring index (marker - reqDonated).
	reqDonated = 3
)

// Queue is a bounded MPMC FIFO queue of unsafe.Pointer values with
// capacity fixed at construction. Enqueue-side callers use TryEnqueue and
// observe ErrFull as backpressure; the queue itself never allocates after
// New.
type Queue struct {
	capacity   int
	maxHandles int
	// reqBits is the width of the request word's marker field: enough for
	// reqDonated + any ring index.
	reqBits uint

	vals []unsafe.Pointer
	// aq carries indices of occupied vals slots (starts empty); fq carries
	// indices of free vals slots (starts full with 0..capacity-1).
	aq, fq *ring

	handles []Handle

	_ pad.CacheLinePad
	// hfree is the generation-tagged free-list head of the handle pool:
	// (gen << handleIdxBits) | (index+1), 0 = empty. The tag makes the
	// lock-free pop/push immune to ABA, same shape as the sharded shells.
	hfree atomic.Uint64
	_     pad.CacheLinePad
	// pendingDeqs counts published (awaiting) dequeue requests; the hot
	// path pays one load when it is zero.
	pendingDeqs atomic.Int64
	_           pad.CacheLinePad
	// epoch issues request epochs; a global FAA makes epochs comparable
	// across handles so helpers serve the oldest request first.
	epoch atomic.Uint64
	_     pad.CacheLinePad
}

// handleIdxBits sizes the index field of the handle free-list word.
const handleIdxBits = 24

// Handle is one participant's registration. A Handle may be used by one
// goroutine at a time; Register/Release are lock-free and allocation-free.
type Handle struct {
	_  pad.CacheLinePad
	q  *Queue
	id int
	// freeNext links pooled handles. Atomic: Register reads it for the
	// CAS successor while a racing Release of the same (stale-head) handle
	// may be re-linking it — same window core/handlepool.go guards.
	freeNext atomic.Uint64
	// life is the checkout epoch — odd while checked out, even while free,
	// monotonically increasing — making Release idempotent within an epoch
	// (same idiom as the sharded shell pool).
	life  atomic.Uint64
	stats counters

	_ pad.CacheLinePad
	// deqReq is the wCQ-style request word helpers CAS into:
	// (epoch << reqBits) | marker. On its own pair of lines: helpers write
	// it while the owner's stats fields above stay owner-local.
	deqReq atomic.Uint64
	_      pad.CacheLinePad
}

// counters are per-handle execution-path counters, aggregated by Stats.
// Plain fields under !race, atomic under race (counters_race.go).
type counters struct {
	enq          uint64
	enqFull      uint64
	deqFast      uint64
	deqSlow      uint64
	deqEmpty     uint64
	helpScans    uint64
	helpDonated  uint64
	deqDonations uint64
}

// New builds a queue with at least the requested capacity (rounded up to a
// power of two, minimum MinCapacity) for up to maxHandles registered
// participants.
func New(maxHandles, capacity int) (*Queue, error) {
	if maxHandles < 1 {
		return nil, fmt.Errorf("scq: maxHandles %d < 1", maxHandles)
	}
	if maxHandles >= 1<<handleIdxBits {
		return nil, fmt.Errorf("scq: maxHandles %d too large", maxHandles)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("scq: capacity %d < 1", capacity)
	}
	// Round up to a power of two, minimum MinCapacity; R = 2n = 1<<order.
	cap := MinCapacity
	if capacity > MinCapacity {
		cap = 1 << bits.Len(uint(capacity-1))
	}
	order := uint(bits.Len(uint(cap)))
	q := &Queue{
		capacity:   cap,
		maxHandles: maxHandles,
		vals:       make([]unsafe.Pointer, cap),
		aq:         &ring{},
		fq:         &ring{},
		handles:    make([]Handle, maxHandles),
	}
	// Marker field: indices up to cap-1 shifted past reqDonated.
	q.reqBits = order + 2
	q.aq.initRing(order, false)
	q.fq.initRing(order, true)
	for i := range q.handles {
		h := &q.handles[i]
		h.q = q
		h.id = i
		if i+1 < maxHandles {
			h.freeNext.Store(uint64(i+1) + 1)
		}
	}
	q.hfree.Store(1) // head = handle 0, generation 0
	return q, nil
}

// Capacity returns the number of value slots (the rounded-up power of two).
func (q *Queue) Capacity() int { return q.capacity }

// MaxHandles returns the registration limit.
func (q *Queue) MaxHandles() int { return q.maxHandles }

// Size estimates the number of queued values (exact when quiescent).
func (q *Queue) Size() int { return q.aq.size() }

// Register checks out a handle from the preallocated pool, or returns
// ErrTooManyHandles. Lock-free and allocation-free.
func (q *Queue) Register() (*Handle, error) {
	//wfqlint:bounded(RETRY, lock-free CAS retry: a failed CAS means another goroutine completed a handle pop or push, so the system makes progress; the lifecycle is documented as lock-free and registration is off every queue operation's path)
	for {
		old := q.hfree.Load()
		idx := old & (1<<handleIdxBits - 1)
		if idx == 0 {
			return nil, ErrTooManyHandles
		}
		h := &q.handles[idx-1]
		gen := old >> handleIdxBits
		next := (gen+1)<<handleIdxBits | (h.freeNext.Load() & (1<<handleIdxBits - 1))
		if q.hfree.CompareAndSwap(old, next) {
			h.deqReq.Store(reqIdle)
			h.life.Add(1) // odd: checked out
			return h, nil
		}
	}
}

// Release returns the handle to the pool. The handle must not be used
// afterwards and must not be released concurrently with its own operations.
// Release is idempotent within the handle's checkout epoch: a second call
// observes the even life word (or loses the closing CAS) and returns without
// touching the pool.
func (h *Handle) Release() {
	q := h.q
	cur := h.life.Load()
	if cur&1 == 0 {
		return // already released this epoch
	}
	if !h.life.CompareAndSwap(cur, cur+1) {
		return // lost the closing race
	}
	//wfqlint:bounded(RETRY, lock-free CAS retry: a failed CAS means another goroutine completed a handle pop or push; release is off every queue operation's path)
	for {
		old := q.hfree.Load()
		gen := old >> handleIdxBits
		h.freeNext.Store(old & (1<<handleIdxBits - 1))
		next := (gen+1)<<handleIdxBits | uint64(h.id+1)
		if q.hfree.CompareAndSwap(old, next) {
			return
		}
	}
}

// TryEnqueue publishes v, or returns ErrFull when all capacity slots hold
// in-flight values: the free ring was empty at some point during the call,
// so the queued values plus the indices other operations held outside both
// rings reached the capacity (DESIGN.md §7.2, "What FULL counts").
func (h *Handle) TryEnqueue(v unsafe.Pointer) error {
	q := h.q
	idx, ok, _ := q.fq.dequeue(0) // unbudgeted: bounded by fq's threshold
	if !ok {
		ctr.Inc(&h.stats.enqFull)
		return ErrFull
	}
	// Plain store: the aq.enqueue CAS publishing idx is the release edge,
	// and the consumer's slot load is the matching acquire.
	q.vals[idx] = v
	q.aq.enqueue(idx)
	ctr.Inc(&h.stats.enq)
	return nil
}

// Dequeue removes the oldest value. ok=false reports a linearizable EMPTY
// observation. The step count is bounded: a fast path with a fixed ticket
// budget, then the helping protocol of help.go.
func (h *Handle) Dequeue() (unsafe.Pointer, bool) {
	q := h.q
	// Help first: one bounded scan when peers have published requests, so
	// a stalled dequeuer is served by every active peer dequeuer.
	if q.pendingDeqs.Load() > 0 {
		if v, done, ok := h.helpPeers(); done {
			return v, ok
		}
	}
	idx, ok, exhausted := q.aq.dequeue(fastTickets)
	if ok {
		ctr.Inc(&h.stats.deqFast)
		return h.takeVal(idx), true
	}
	if !exhausted {
		ctr.Inc(&h.stats.deqEmpty)
		return nil, false
	}
	return h.dequeueSlow()
}

// takeVal reads the value out of slot idx and returns the slot to the free
// ring.
func (h *Handle) takeVal(idx uint64) unsafe.Pointer {
	q := h.q
	v := q.vals[idx]
	q.vals[idx] = nil
	q.fq.enqueue(idx)
	return v
}

// Stats aggregates the per-handle counters.
func (q *Queue) Stats() map[string]uint64 {
	m := map[string]uint64{}
	for i := range q.handles {
		h := &q.handles[i]
		m["enq"] += ctr.Load(&h.stats.enq)
		m["enq_full"] += ctr.Load(&h.stats.enqFull)
		m["deq_fast"] += ctr.Load(&h.stats.deqFast)
		m["deq_slow"] += ctr.Load(&h.stats.deqSlow)
		m["deq_empty"] += ctr.Load(&h.stats.deqEmpty)
		m["help_scans"] += ctr.Load(&h.stats.helpScans)
		m["help_donated"] += ctr.Load(&h.stats.helpDonated)
		m["deq_donations"] += ctr.Load(&h.stats.deqDonations)
	}
	return m
}

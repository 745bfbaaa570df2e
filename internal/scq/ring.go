// Package scq implements a bounded, cache-resident MPMC FIFO queue built
// from two SCQ rings (Nikolaev, "A Scalable, Portable, and Memory-Efficient
// Lock-Free FIFO Queue", DISC '19) plus a single-word helping layer in the
// spirit of wCQ (Nikolaev & Ravindran, PPoPP '22) so that dequeuers keep a
// bounded step complexity under the model documented in DESIGN.md §7.
//
// Where the paper's queue (internal/core) grows segments without bound, this
// queue is a fixed ring: capacity is chosen at construction, the hot path
// never allocates and never touches a segment pool, and a producer that
// outruns its consumers sees backpressure (ErrFull) instead of heap growth.
//
// # The ring
//
// One ring holds n values' worth of *indices* in R = 2n cycle-tagged slots.
// Doubling the slot count relative to the capacity is SCQ's central trick:
// it guarantees an enqueuer's FAA ticket always lands on a slot whose
// previous-cycle value has had a chance to drain, so a single FAA plus one
// CAS claims a slot in the common case — the same "as fast as fetch-and-add"
// shape as the paper's infinite array, without the infinite array.
//
// Each slot packs (cycle, safe bit, index) into one uint64. Enqueue does
// FAA(tail) and claims slot remap(t) for cycle t/R; Dequeue does FAA(head)
// and consumes the slot if its cycle matches. A dequeuer arriving early
// leaves a poisoned (cycle-advanced or unsafe-marked) slot so the late
// enqueuer retries with a fresh ticket instead of publishing into the past —
// the safe bit plus the head<=tail re-check is SCQ's exactness argument.
// The threshold counter (3n-1, reset by every enqueue) bounds how many
// tickets a dequeuer may burn before an EMPTY verdict is sound, which is
// what makes "the ring was empty at some point during the call" a valid
// linearization and rules out the a-dequeuer-chases-enqueuers livelock.
//
// # The indirection
//
// Values live in a plain vals[n] array. A free-index ring (fq, initially
// full of 0..n-1) hands producers a slot; an allocated-index ring (aq,
// initially empty) carries the slot to consumers; consumers return the slot
// to fq. Full detection is exact: TryEnqueue fails if and only if fq was
// observed empty, i.e. all n value slots were simultaneously in flight at a
// linearizable point.
package scq

import (
	"sync/atomic"

	"wfqueue/internal/pad"
)

// ringMinOrder is the smallest supported ring order (R = 8 slots, capacity
// 4): the cache remap shifts by log2(64B line / 8B slot) = 3 bits, so the
// ring must span at least one full line's worth of slots.
const ringMinOrder = 3

// idxBot is the reserved index-field value marking an empty slot. Valid
// indices are < n = R/2 < (1<<order)-1, so the all-ones pattern is free.
func idxBot(order uint) uint64 { return (uint64(1) << order) - 1 }

// ring is one SCQ ring over R = 1<<order slots carrying indices in [0, R/2).
//
// Slot layout (one uint64): [ cycle : 63-order | safe : 1 | index : order ].
// The cycle field monotonically increases with the slot's reuse generation;
// 63-order bits cannot wrap within 2^50+ operations for any sane order.
type ring struct {
	order uint   // log2(R)
	mask  uint64 // R-1
	bot   uint64 // idxBot(order)
	// thresh3 is SCQ's livelock-avoidance threshold for a 2n ring: half +
	// n - 1 = 3n - 1 tickets may be burned by dequeuers between enqueues
	// before EMPTY is provable (Nikolaev's lfring_threshold3).
	thresh3 int64

	slots []uint64 // atomically accessed, remapped (see remap)

	_         pad.CacheLinePad
	head      atomic.Uint64
	_         pad.CacheLinePad
	tail      atomic.Uint64
	_         pad.CacheLinePad
	threshold atomic.Int64
	_         pad.CacheLinePad
}

// remap spreads consecutive tickets across cache lines: successive tickets
// land 8 slots (one 64-byte line) apart, so the FAA-adjacent enqueuer and
// dequeuer of neighboring tickets do not collide on a line. At the minimum
// order the transform degenerates to the identity.
func (r *ring) remap(t uint64) uint64 {
	return ((t & r.mask) >> (r.order - ringMinOrder)) | ((t << ringMinOrder) & r.mask)
}

func (r *ring) pack(cycle, safe, idx uint64) uint64 {
	return cycle<<(r.order+1) | safe<<r.order | idx
}

func (r *ring) unpack(e uint64) (cycle, safe, idx uint64) {
	return e >> (r.order + 1), (e >> r.order) & 1, e & r.bot
}

// initRing sets up a ring of 1<<order slots. full=false: the ring starts
// empty. full=true: the ring starts holding indices 0..n-1 in order (the
// free ring's initial state).
//
// Both head and tail start at R rather than 0 so the very first tickets
// carry cycle 1 while the initial slots carry cycle 0 — the same "previous
// cycle already drained" invariant steady state maintains, without signed
// cycle arithmetic.
func (r *ring) initRing(order uint, full bool) {
	n := uint64(1) << (order - 1) // capacity
	R := uint64(1) << order
	r.order = order
	r.mask = R - 1
	r.bot = idxBot(order)
	r.thresh3 = int64(R + n - 1) // half + n - 1 with half = n, n = R
	r.slots = make([]uint64, R)
	for i := uint64(0); i < R; i++ {
		r.slots[i] = r.pack(0, 1, r.bot)
	}
	r.head.Store(R)
	r.tail.Store(R)
	r.threshold.Store(-1)
	if full {
		// Tickets R..R+n-1 (cycle 1) hold values 0..n-1.
		for i := uint64(0); i < n; i++ {
			t := R + i
			r.slots[r.remap(t)] = r.pack(t>>order, 1, i)
		}
		r.tail.Store(R + n)
		r.threshold.Store(r.thresh3)
	}
}

// enqueue publishes idx into the ring. The caller must guarantee the ring
// is not full — both rings here carry at most n of the n distinct indices by
// construction, so a ticket whose slot never frees cannot exist.
func (r *ring) enqueue(idx uint64) {
	//wfqlint:bounded(RETRY, lock-free ticket retry: a ticket is abandoned only when its slot still holds an unconsumed previous-cycle entry marked unsafe by a dequeuer, which implies that dequeuer and the slot's consumer both made progress; by the SCQ invariant at most n of 2n slots hold live entries, so tickets find a claimable slot after bounded interference. Dequeuer-side wait-freedom is layered above (DESIGN.md §7).)
	for {
		t := r.tail.Add(1) - 1
		if r.claimAt(t, idx) {
			return
		}
	}
}

// claimAt attempts to publish idx at ticket t, arming the emptiness
// threshold on success. A false return means the ticket is spent (its slot
// was poisoned by an early dequeuer or already belongs to a later cycle):
// the caller must take a fresh ticket for this index.
func (r *ring) claimAt(t, idx uint64) bool {
	tcyc := t >> r.order
	slot := &r.slots[r.remap(t)]
	//wfqlint:bounded(2*RETRY, CAS retry on one slot: each failure means the slot's word changed — a dequeuer consumed, cycle-advanced or unsafe-marked it — and every such transition either makes the claim condition false (exit to a new ticket) or is the single safe-bit clear, so the reload runs at most twice per transition)
	for {
		e := atomic.LoadUint64(slot)
		ecyc, esafe, eidx := r.unpack(e)
		if ecyc < tcyc && eidx == r.bot && (esafe == 1 || r.head.Load() <= t) {
			if !atomic.CompareAndSwapUint64(slot, e, r.pack(tcyc, 1, idx)) {
				continue
			}
			// Arm the emptiness threshold: dequeuers may burn up to
			// 3n-1 tickets after this enqueue before EMPTY is provable.
			if r.threshold.Load() != r.thresh3 {
				r.threshold.Store(r.thresh3)
			}
			return true
		}
		return false
	}
}

// dequeue removes the oldest index. ok=false with exhausted=false is a sound
// EMPTY: the ring held no value at some linearizable point during the call.
// maxTickets > 0 bounds how many FAA tickets the call may take; when the
// budget runs out before either a value or an EMPTY proof, it returns
// exhausted=true and the caller (the helping layer) decides what to do —
// this is what keeps the wait-free dequeue path's step count bounded.
func (r *ring) dequeue(maxTickets int) (idx uint64, ok bool, exhausted bool) {
	// Empty fast path: a negative threshold proves dequeuers already burned
	// the post-enqueue ticket allowance without finding a value.
	if r.threshold.Load() < 0 {
		return 0, false, false
	}
	tickets := 0
	//wfqlint:bounded(FAST_TICKETS, each iteration burns one FAA ticket and decrements the threshold; the loop ends with EMPTY once threshold < 0, so it runs at most 3n-1 iterations past the last concurrent enqueue, or earlier when maxTickets caps it)
	for {
		h := r.head.Add(1) - 1
		if idx, got := r.visitAt(h); got {
			return idx, true, false
		}
		// Emptiness check for this ticket.
		tail := r.tail.Load()
		if tail <= h+1 {
			r.catchup(tail, h+1)
			r.threshold.Add(-1)
			return 0, false, false
		}
		if r.threshold.Add(-1) < 0 {
			return 0, false, false
		}
		tickets++
		if maxTickets > 0 && tickets >= maxTickets {
			return 0, false, true
		}
	}
}

// visitAt runs the per-ticket slot protocol for head ticket h: consume a
// matching-cycle entry, or poison the slot (unsafe-mark a live older
// entry / cycle-advance an empty one) so its late enqueuer retries with a
// fresh ticket. A false return means the ticket yielded nothing; the
// caller decides the emptiness accounting.
func (r *ring) visitAt(h uint64) (uint64, bool) {
	hcyc := h >> r.order
	slot := &r.slots[r.remap(h)]
	//wfqlint:bounded(2*RETRY, CAS retry on one slot: while the slot's cycle is behind this ticket each failed CAS means another operation advanced the slot (progress), and once the cycle matches the only possible concurrent transition is a single safe-bit clear, so the consume CAS reloads at most twice)
	for {
		e := atomic.LoadUint64(slot)
		ecyc, esafe, eidx := r.unpack(e)
		if ecyc == hcyc {
			if eidx == r.bot {
				// Only this ticket writes hcyc into this slot, so an
				// empty slot at our own cycle is unreachable; kept as a
				// defensive exit to the emptiness check.
				return 0, false
			}
			// Consume: blank the index bits, preserve cycle and safe
			// bit (a later-cycle dequeuer may clear safe concurrently;
			// both orders commute).
			if atomic.CompareAndSwapUint64(slot, e, r.pack(ecyc, esafe, r.bot)) {
				return eidx, true
			}
			continue
		}
		if ecyc > hcyc {
			return 0, false // ticket expired: the slot is already past us
		}
		var enew uint64
		if eidx != r.bot {
			if esafe == 0 {
				return 0, false // already unsafe; leave it for its enqueuer
			}
			// Unsafe-mark a still-unconsumed older entry: its enqueuer
			// raced ahead of its dequeuer; the mark forces any future
			// enqueue of this slot to re-verify against head.
			enew = r.pack(ecyc, 0, eidx)
		} else {
			// Advance an empty older slot to our cycle so the matching
			// late enqueuer must retry with a fresh ticket.
			enew = r.pack(hcyc, esafe, r.bot)
		}
		if atomic.CompareAndSwapUint64(slot, e, enew) {
			return 0, false
		}
	}
}

// catchup drags tail forward to head after a dequeuer overran it, so the
// tail FAA counter never lags arbitrarily behind burned dequeue tickets.
func (r *ring) catchup(tail, head uint64) {
	//wfqlint:bounded(RETRY, CAS retry: each failure means tail moved — an enqueuer took a ticket or another catchup advanced it — and the loop exits as soon as tail >= head, so it retries at most once per concurrent tail movement)
	for !r.tail.CompareAndSwap(tail, head) {
		head = r.head.Load()
		tail = r.tail.Load()
		if tail >= head {
			break
		}
	}
}

// size estimates the number of values in the ring (exact when quiescent).
func (r *ring) size() int {
	t := r.tail.Load()
	h := r.head.Load()
	if t <= h {
		return 0
	}
	n := t - h
	if max := uint64(1) << (r.order - 1); n > max {
		n = max
	}
	return int(n)
}

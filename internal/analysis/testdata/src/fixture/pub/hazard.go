package pub

import "sync/atomic"

// H is a handle with a hazard word that cleaners read atomically.
type H struct {
	hzdp int64
	head int64
}

// R is a request whose state a helper re-reads after publishing.
type R struct {
	state uint64
}

// Ring owns the index the fast path claims with FAA.
type Ring struct {
	idx   int64
	cells [8]uint64
}

// scan is the cleaner's side: the atomic load that makes hzdp a protocol
// word.
func scan(h *H) int64 { return atomic.LoadInt64(&h.hzdp) }

// advance is the owner's side of head and state, pairing their loads.
func advance(h *H, r *R) {
	atomic.AddInt64(&h.head, 1)
	atomic.StoreUint64(&r.state, 1)
}

// claim is the fast path's first shared access, an FAA, one call down.
func (r *Ring) claim() int64 { return atomic.AddInt64(&r.idx, 1) - 1 }

// FastPublish publishes with a plain store and then claims a cell through
// claim's FAA, which orders the store on x86 — clean.
func FastPublish(r *Ring, h *H) uint64 {
	h.hzdp = atomic.LoadInt64(&h.head) //wfqlint:allow(atomic, fixture: the FAA in claim orders this publish)
	i := r.claim()
	v := atomic.LoadUint64(&r.cells[i&7])
	h.hzdp = -1 //wfqlint:allow(atomic, fixture: a constant clear is a retraction, not a publication)
	return v
}

// HelpPublish is helpDeq's shape: a plain publish followed by a load of
// the request state. x86 lets that load pass the store — the true
// positive.
func HelpPublish(h *H, r *R) uint64 {
	h.hzdp = atomic.LoadInt64(&h.head) //wfqlint:allow(atomic, fixture: helpDeq-shaped publish)
	return atomic.LoadUint64(&r.state)
}

// BranchPublish reaches the FAA on one arm only; the other arm loads
// first — flagged.
func BranchPublish(ring *Ring, h *H, r *R, fast bool) {
	h.hzdp = atomic.LoadInt64(&h.head) //wfqlint:allow(atomic, fixture: one arm loads before any FAA)
	if fast {
		ring.claim()
	} else {
		atomic.LoadUint64(&r.state)
	}
	atomic.StoreInt64(&h.hzdp, -1)
}

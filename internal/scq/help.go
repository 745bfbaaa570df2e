package scq

import (
	"unsafe"

	"wfqueue/internal/ctr"
)

// The helping layer: how dequeuers keep a bounded step count on a ring
// whose raw operations are only lock-free.
//
// wCQ proper makes every ring transition helpable with double-width CAS;
// Go's race-detector-visible atomics stop at 64 bits, so this layer helps
// at the operation level instead, through one single-word request per
// handle:
//
//	deqReq = (epoch << reqBits) | marker
//
// with markers reqIdle, reqAwait, reqEmpty, and reqDonated+idx. Epochs come
// from a queue-global FAA, so they are unique per published request and
// comparable across handles (helpers serve the oldest awaiting request).
//
// Protocol:
//
//   - A dequeuer whose fast path exhausts its ticket budget publishes
//     (epoch<<reqBits)|reqAwait and bumps pendingDeqs. It then alternates
//     bounded windows: spin on the word (a helper may satisfy it), close
//     the request with a CAS back to reqIdle (a failed close means a
//     donation landed — consume it), run one budgeted ring attempt of its
//     own while closed, republish under a fresh epoch.
//
//   - Every dequeuer checks pendingDeqs at operation start (one load when
//     idle). If requests are pending it scans the handle array for the
//     oldest awaiting request, performs a *fresh* budgeted ring dequeue on
//     the requester's behalf, and donates the outcome with a single CAS on
//     the exact (epoch, reqAwait) word it observed.
//
// Linearizability hinges on one rule: the helper's ring dequeue happens
// AFTER it observed the peer's published request, and the donation CAS
// succeeds only while that same request (same epoch) is still open — so
// the donated value's ring-removal point lies strictly inside the
// requester's operation interval and serves as its linearization point.
// A helper holding a value whose donation CAS fails keeps the value as its
// own result: the helper is itself a dequeuer mid-operation, so the same
// removal point linearizes its own call instead. Only dequeuers help;
// an enqueuer could not keep an orphaned value without reordering it.
//
// An EMPTY donation (reqEmpty) is sound the same way: the helper's EMPTY
// verdict comes with SCQ's threshold proof that the ring was empty at some
// point during the helper's nested attempt, which is inside the
// requester's interval.
//
// Progress: a slow-path dequeuer's own closed-window attempts burn tickets
// only under contention; whenever an attempt exhausts its budget, other
// operations completed ring transitions in the meantime, and every active
// dequeuer (including those peers) routes one bounded help attempt at the
// oldest request per operation. DESIGN.md §7 states the resulting bound
// and its honest fine print (full wCQ needs DWCAS).

// helpPeers serves at most one pending request, the oldest awaiting one.
// If the helper's own donation CAS fails while it holds a freshly dequeued
// value, the value becomes the helper's own result: done=true reports that
// the helper's operation is complete with (v, ok).
func (h *Handle) helpPeers() (v unsafe.Pointer, done, ok bool) {
	q := h.q
	ctr.Inc(&h.stats.helpScans)
	var target *Handle
	var targetWord uint64
	//wfqlint:bounded(THREADS, oldest-request scan: one load per preallocated handle slot)
	for i := range q.handles {
		peer := &q.handles[i]
		if peer == h {
			continue
		}
		w := peer.deqReq.Load()
		if w&(1<<q.reqBits-1) != reqAwait {
			continue
		}
		if target == nil || w>>q.reqBits < targetWord>>q.reqBits {
			target, targetWord = peer, w
		}
	}
	if target == nil {
		return nil, false, false
	}
	// The request was observed open; dequeue on the requester's behalf.
	idx, got, exhausted := q.aq.dequeue(helpTickets)
	if got {
		if target.deqReq.CompareAndSwap(targetWord, targetWord-reqAwait+reqDonated+idx) {
			ctr.Inc(&h.stats.helpDonated)
			return nil, false, false
		}
		// The request closed first (the owner or another helper won):
		// keep the value as this dequeuer's own result.
		ctr.Inc(&h.stats.deqFast)
		return h.takeVal(idx), true, true
	}
	if !exhausted {
		// A sound EMPTY witness (threshold-proved inside the requester's
		// open interval): donate it. On a lost race just fall through to
		// our own operation.
		target.deqReq.CompareAndSwap(targetWord, targetWord-reqAwait+reqEmpty)
	}
	return nil, false, false
}

// dequeueSlow is the published-request path of Dequeue.
func (h *Handle) dequeueSlow() (unsafe.Pointer, bool) {
	q := h.q
	ctr.Inc(&h.stats.deqSlow)
	//wfqlint:bounded(HELP, each round ends in a donation (request word changed), an own-attempt success, or an own-attempt EMPTY proof; a round continues only when the own attempt exhausted its ticket budget, which requires other operations to have completed ring transitions meanwhile — under the §7 model (active peer dequeuers help oldest-first, or enqueuers quiesce so the threshold bound applies) the number of rounds is bounded; the residual gap versus full DWCAS-based wCQ is documented in DESIGN.md §7)
	for {
		epoch := q.epoch.Add(1)
		published := epoch<<q.reqBits | reqAwait
		h.deqReq.Store(published)
		q.pendingDeqs.Add(1)

		// Window 1: wait for a donation.
		donated := uint64(0)
		for i := 0; i < slowSpin; i++ {
			if w := h.deqReq.Load(); w != published {
				donated = w
				break
			}
		}
		if donated == 0 {
			// Close the request; a failed close means a donation landed
			// between the last load and the CAS.
			if !h.deqReq.CompareAndSwap(published, reqIdle) {
				donated = h.deqReq.Load()
			}
		}
		q.pendingDeqs.Add(-1)
		if donated != 0 {
			h.deqReq.Store(reqIdle)
			marker := donated & (1<<q.reqBits - 1)
			if marker == reqEmpty {
				ctr.Inc(&h.stats.deqEmpty)
				return nil, false
			}
			ctr.Inc(&h.stats.deqDonations)
			return h.takeVal(marker - reqDonated), true
		}

		// Window 2 (request closed): one budgeted attempt of our own.
		idx, ok, exhausted := q.aq.dequeue(fastTickets)
		if ok {
			return h.takeVal(idx), true
		}
		if !exhausted {
			ctr.Inc(&h.stats.deqEmpty)
			return nil, false
		}
	}
}

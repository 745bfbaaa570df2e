package core

import "sync/atomic"

// The handle lifecycle: a lock-free, allocation-free free list of the
// queue's preallocated Handles, replacing the sync.Mutex + slice
// bookkeeping Register/Release used to serialize on. The structure is a
// generation-tagged Treiber stack over the handle array. Handles ARE
// reused, so a naive pop could observe a stale next link (ABA); tagging the
// head with a generation that every successful pop advances makes a stale
// CAS fail instead of handing out a checked-out handle. See DESIGN.md §6 for the full lifecycle protocol.
//
// Indices are 24-bit (1-based; 0 terminates), leaving 40 generation bits:
// 2^40 acquires before wraparound, and the tag only needs to not repeat
// while a single popper is preempted mid-pop.
//
// Epoch discipline. Each Handle carries a monotonically increasing life
// counter: odd while checked out, even while free. Register bumps it
// odd after winning the pop; Release bumps it even (by CAS, so exactly one
// of a pair of racing Releases pushes the slot) after neutralizing the
// handle's hazard state. The parity makes double-Release idempotent within
// an epoch: a second Release observes an even life word and returns without
// touching the free list, so the explicit-Release and finalizer paths of
// the public API can race harmlessly. A Release that is delayed past a
// re-acquire by ANOTHER goroutine is caller misuse (the handle contract is
// single-goroutine); the monotonic life word makes even that stale CAS fail
// rather than corrupt the free list, but the public wfqueue.Handle wrapper
// is what actually prevents it (its released flag stops the second call
// from reaching core at all).
//
// Reclamation hand-off. A retiring handle's ring slot persists — cleanup
// walks ALL handles, registered or not, and helpers see no pending request
// in a free handle because Release refuses to retire a handle with a
// pending slow-path request (that is an operation in flight, a contract
// violation). Release re-asserts hzdp = -1 before the slot becomes
// reusable, so a cleaner can never be blocked by, and a helper can never
// chase, a hazard pointer published in a previous epoch.

const (
	handleIdxBits = 24
	handleIdxMask = 1<<handleIdxBits - 1
	// maxHandleCap is the largest maxThreads New supports: 24-bit 1-based
	// indices, minus one so index+1 never wraps the mask.
	maxHandleCap = handleIdxMask - 1
)

// Register checks out a free handle, or returns ErrTooManyHandles when all
// maxThreads handles are in use. Each concurrent worker needs its own;
// callers return it with Handle.Release when done. It is lock-free and
// allocation-free: the fixed handle array is threaded through a
// generation-tagged free list, so acquisition is one tagged-CAS pop plus one
// life-word bump.
func (q *Queue) Register() (*Handle, error) {
	//wfqlint:bounded(RETRY, lock-free CAS retry: a failed CAS means another goroutine completed an acquire or release, so the system makes progress; the lifecycle is documented as lock-free, not wait-free (DESIGN.md §6), and registration is off every queue operation's path)
	for {
		old := q.hfree.Load()
		idx := uint32(old & handleIdxMask)
		if idx == 0 {
			return nil, ErrTooManyHandles
		}
		h := q.handles[idx-1]
		next := atomic.LoadUint32(&h.freeNext)
		gen := old >> handleIdxBits
		if q.hfree.CompareAndSwap(old, (gen+1)<<handleIdxBits|uint64(next)) {
			// Exclusive owner of h from here. Odd life = checked out.
			h.life.Add(1)
			return h, nil
		}
	}
}

// Release returns a handle to the queue's free list. The handle must have
// no operation in flight. Release is idempotent within the handle's
// checkout epoch: a second call (the finalizer racing an explicit Release)
// observes the even life word — or loses the closing CAS — and returns
// without touching the free list. The ring slot persists across release
// (helpers simply see no pending request), so release/re-register cycles
// are cheap and allocation-free.
func (h *Handle) Release() {
	cur := h.life.Load()
	if cur&1 == 0 {
		// Already released this epoch (or never acquired): idempotent no-op.
		return
	}
	// Auto-flush the coalescing buffers (coalesce.go) while the handle is
	// still checked out: buffered enqueues and undrained refill values must
	// enter the shared queue before the slot can be reused, and the flush
	// may legitimately take an enqueue slow path — which is why it runs
	// before the pending-request check below, not after.
	if h.clen > 0 || h.dhead < h.dlen {
		h.q.releaseFlush(h)
	}
	if statePending(atomic.LoadUint64(&h.enqReq.state)) ||
		statePending(atomic.LoadUint64(&h.deqReq.state)) {
		panic("core: Release of handle with operation in flight")
	}
	// Neutralize the hazard state before the slot can be reused: a cleaner
	// scanning the ring must never honor a hazard pointer from a dead epoch.
	// (Operations already reset hzdp on exit; this closes the panic path.)
	atomic.StoreInt64(&h.hzdp, -1)
	if !h.life.CompareAndSwap(cur, cur+1) {
		// Lost the closing race: the other Release pushes the slot.
		return
	}
	h.q.pushHandle(uint32(h.idx + 1))
}

// pushHandle pushes handle index idx (+1 encoding) onto the free list.
// Pushes preserve the generation — only pops advance it: a push armed with
// a stale head word just fails its CAS.
func (q *Queue) pushHandle(idx uint32) {
	//wfqlint:bounded(RETRY, lock-free CAS retry: a failed CAS means another goroutine completed an acquire or release; the lifecycle is documented as lock-free, not wait-free (DESIGN.md §6), and release is off every queue operation's path)
	for {
		old := q.hfree.Load()
		atomic.StoreUint32(&q.handles[idx-1].freeNext, uint32(old&handleIdxMask))
		if q.hfree.CompareAndSwap(old, old>>handleIdxBits<<handleIdxBits|uint64(idx)) {
			return
		}
	}
}

// Registered reports whether the handle is currently checked out (its life
// word is odd). Test and diagnostic use: the answer is stale the moment it
// is returned.
func (h *Handle) Registered() bool { return h.life.Load()&1 == 1 }

package core

import (
	"sync/atomic"
	"unsafe"

	"wfqueue/internal/pad"
)

// segPool is a lock-free, bounded, generation-tagged Treiber stack of
// recycled segments — the queue's segment free list. The paper's C
// implementation reuses retired segments through a thread-cached free list;
// this is the Go analogue, with two properties the hot path needs:
//
//   - No locks anywhere: push and pop are single-CAS retry loops, so
//     findCell's list extension and cleanup's segment retirement never take
//     a mutex (the pre-existing sync.Mutex pool serialized every segment
//     allocation across all threads).
//   - No allocation: the node array is laid out once at construction, and
//     segments are threaded through it by index, so recycling a segment
//     allocates nothing.
//
// ABA safety. A naïve Treiber pop (read head A, read A.next=B, CAS head
// A→B) is unsound here because segments ARE reused: A can be popped,
// recycled into the live list, retired again and re-pushed while a slow
// popper still holds the stale next=B — its CAS would then succeed and hand
// out B, which may be live. The classic fix, and the one used here, is a
// generation-tagged head: the head word packs (generation:48, index:16) and
// every successful pop increments the generation. Generations are
// monotonic, so a head word never repeats and a stale CAS can never
// succeed. (2^48 pops ≈ 10^14 segment recyclings before wraparound; at one
// recycling per 2^10 queue operations that is ~10^17 operations, far past
// any counter the queue itself can represent in practice.)
//
// GC visibility. Nodes hold segments as unsafe.Pointer fields of an
// ordinary slice reachable from the Queue, so pooled segments stay visible
// to the garbage collector — no uintptr laundering, which would let the GC
// free a pooled segment out from under us.
//
// The pool is bounded (16-bit indices; capacity chosen from maxThreads and
// maxGarbage at construction). A push that finds the pool full simply drops
// the segment for the GC to collect: the pool is a performance cache, not a
// correctness structure, and steady-state traffic never fills it because
// pops (newSegment) and pushes (cleanup) proceed at the same rate.
type segPool struct {
	_ pad.CacheLinePad
	// head is the tagged top of the stack of full nodes:
	// (generation:48 | node index+1:16), 0 index meaning empty.
	head atomic.Uint64
	_    pad.CacheLinePad
	// free is the tagged top of the stack of unused nodes, maintained with
	// the same discipline so node recycling is itself ABA-safe.
	free atomic.Uint64
	_    pad.CacheLinePad

	nodes []segPoolNode
}

// segPoolNode is one slot of the pool. A node is on exactly one of the two
// stacks at any time; seg is non-nil only while the node is on the full
// stack. next links nodes by index+1 (0 terminates) and is only written by
// the node's exclusive owner between a pop from one stack and the push onto
// the other, ordered by the publishing CAS.
type segPoolNode struct {
	seg  unsafe.Pointer // *segment
	next uint32
}

const (
	segPoolIdxBits = 16
	segPoolIdxMask = 1<<segPoolIdxBits - 1
	segPoolMaxCap  = segPoolIdxMask - 1
)

// newSegPool builds a pool with the given capacity (clamped to what 16-bit
// node indices can address) with every node on the free stack.
func newSegPool(capacity int) *segPool {
	if capacity < 1 {
		capacity = 1
	}
	if capacity > segPoolMaxCap {
		capacity = segPoolMaxCap
	}
	p := &segPool{nodes: make([]segPoolNode, capacity)}
	// Chain all nodes onto the free stack: node i links to i+1.
	for i := 0; i < capacity-1; i++ {
		p.nodes[i].next = uint32(i + 2)
	}
	p.free.Store(1) // generation 0, top = node index 0 (+1 encoding)
	return p
}

// popNode pops a node index (+1 encoding) off the tagged stack at h, or
// returns 0 if the stack is empty. Each successful pop bumps the
// generation, which is what defeats ABA (see type comment).
func (p *segPool) popNode(h *atomic.Uint64) uint32 {
	//wfqlint:bounded(RETRY, lock-free CAS retry: a failed CAS means another thread completed a pop or push, so the system makes progress; the pool is documented as lock-free, not wait-free (DESIGN.md §3.2), and newSegment can always fall back to a heap allocation)
	for {
		old := h.Load()
		idx := uint32(old & segPoolIdxMask)
		if idx == 0 {
			return 0
		}
		next := atomic.LoadUint32(&p.nodes[idx-1].next)
		gen := old >> segPoolIdxBits
		if h.CompareAndSwap(old, (gen+1)<<segPoolIdxBits|uint64(next)) {
			return idx
		}
	}
}

// pushNode pushes node index idx (+1 encoding) onto the tagged stack at h.
// Pushes preserve the generation: only pops need to advance it, and a CAS
// retry loop that only requires head equality is ABA-immune on the push
// side (a stale head value just fails the CAS).
func (p *segPool) pushNode(h *atomic.Uint64, idx uint32) {
	//wfqlint:bounded(RETRY, lock-free CAS retry: a failed CAS means another thread completed a pop or push; the pool is documented as lock-free, not wait-free (DESIGN.md §3.2), and push may simply drop the segment to the GC)
	for {
		old := h.Load()
		atomic.StoreUint32(&p.nodes[idx-1].next, uint32(old&segPoolIdxMask))
		if h.CompareAndSwap(old, old>>segPoolIdxBits<<segPoolIdxBits|uint64(idx)) {
			return
		}
	}
}

// push adds s to the pool. It reports false — and retains no reference —
// when the pool is at capacity; the caller just drops the segment for the
// GC.
func (p *segPool) push(s *segment) bool {
	n := p.popNode(&p.free)
	if n == 0 {
		return false
	}
	atomic.StorePointer(&p.nodes[n-1].seg, unsafe.Pointer(s))
	p.pushNode(&p.head, n)
	return true
}

// pop removes and returns a pooled segment, or nil if the pool is empty.
func (p *segPool) pop() *segment {
	n := p.popNode(&p.head)
	if n == 0 {
		return nil
	}
	s := (*segment)(atomic.LoadPointer(&p.nodes[n-1].seg))
	atomic.StorePointer(&p.nodes[n-1].seg, nil)
	p.pushNode(&p.free, n)
	return s
}

// size reports an instantaneous count of pooled segments (test/stats use;
// O(n) walk, racy by nature).
func (p *segPool) size() int {
	n := 0
	idx := uint32(p.head.Load() & segPoolIdxMask)
	for ; idx != 0 && n <= len(p.nodes); n++ {
		idx = atomic.LoadUint32(&p.nodes[idx-1].next)
	}
	return n
}

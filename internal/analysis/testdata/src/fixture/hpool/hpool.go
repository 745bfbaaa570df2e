// Package hpool is a wfqlint fixture for the handle-pool lifecycle shape:
// the generation-tagged Treiber free list behind Register/Release
// (DESIGN.md §6). Pop carries the sanctioned lock-free-retry annotation and
// becomes a proof obligation; BadPush is the true positive — the same CAS
// retry loop with no annotation, which the bounded-loop audit must flag.
package hpool

import "sync/atomic"

const idxBits = 24
const idxMask = 1<<idxBits - 1

// Pool is a miniature of the core queue's handle free list: a tagged head
// word over a fixed slot array linked through next indices.
type Pool struct {
	head atomic.Uint64
	next [8]uint32
}

// Pop is the discharged case: a tagged pop whose CAS-retry bound lives in
// the annotation, exactly like core's (*Queue).Register.
func (p *Pool) Pop() uint32 {
	//wfqlint:bounded(RETRY, fixture: lock-free CAS retry — a failed CAS means another goroutine completed a pop or push, and the lifecycle is documented lock-free, not wait-free)
	for {
		old := p.head.Load()
		idx := uint32(old & idxMask)
		if idx == 0 {
			return 0
		}
		next := atomic.LoadUint32(&p.next[idx-1])
		gen := old >> idxBits
		if p.head.CompareAndSwap(old, (gen+1)<<idxBits|uint64(next)) {
			return idx
		}
	}
}

// BadPush is the true positive: the matching push loop with its annotation
// missing. The audit has no way to know the retry terminates, so it must
// report an unbounded loop here.
func (p *Pool) BadPush(idx uint32) {
	for {
		old := p.head.Load()
		atomic.StoreUint32(&p.next[idx-1], uint32(old&idxMask))
		if p.head.CompareAndSwap(old, old>>idxBits<<idxBits|uint64(idx)) {
			return
		}
	}
}

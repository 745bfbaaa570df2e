package core

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"wfqueue/internal/pad"
)

// sid atomically reads a segment's id; see newSegment for why this must be
// atomic.
func sid(s *segment) int64 { return atomic.LoadInt64(&s.id) }

// slotRotation returns how far findCell rotates a cell's in-segment offset
// to get its slot, for segments of 1<<segShift cells. Consecutive indices go
// to different threads (they are consecutive FAA tickets), but consecutive
// 24-byte cells share a cache line, so without the map the owners of
// tickets i and i+1 false-share. Rotating the offset left by k bits puts
// index i+1 a stride of 2^k slots after index i, as internal/scq's
// ring.remap does for ring slots. The stride is the smallest power of two
// whose span reaches a full line past the end of a cell (stride·size ≥
// line + size − 1), so two cells a stride apart never share a line wherever
// the segment starts: 4 slots (96 B) on 64-bit targets, 8 slots (96 B) on
// 32-bit ones. The one pair the rotation does not put a stride apart is the
// wrap from the last row of slots to the next column, 2^segShift − 2^k − 1
// slots apart; that reaches a stride only when the segment holds at least
// four strides. Smaller segments get the identity (rotation 0).
func slotRotation(segShift uint) uint {
	const size = unsafe.Sizeof(cell{})
	k := uint(bits.Len(uint((pad.CacheLineSize+2*size-2)/size - 1)))
	if segShift < k+2 {
		return 0
	}
	return k
}

// newSegment returns a segment with the given id and all cells in the
// initial (⊥, ⊥e, ⊥d) state, reusing a retired one where it can: the
// handle's one-segment cache first, then the shared lock-free pool
// (segpool.go), and only then the heap. The common steady-state case — a
// thread reusing the segment it itself retired — touches no shared state at
// all. h is nil only for the initial segment built by New, before any
// handle exists.
func (q *Queue) newSegment(h *Handle, id int64) *segment {
	s := (*segment)(nil)
	if h != nil && h.segCache != nil {
		s, h.segCache = h.segCache, nil
		ctrInc(&h.stats.SegCacheHits)
	} else if s = q.pool.pop(); s != nil && h != nil {
		ctrInc(&h.stats.SegPoolHits)
	}
	if s != nil {
		// id is stored atomically: a cleaner that loaded a reference to
		// this segment before it was recycled may still read the id (the
		// read is gated — it can only influence the CAS on q.I, which
		// then fails — but it must be a defined read).
		atomic.StoreInt64(&s.id, id)
		s.next = nil
		clear(s.cells)
		return s
	}
	if h != nil {
		ctrInc(&h.stats.SegAllocs)
	}
	return &segment{id: id, cells: make([]cell, q.segMask+1)}
}

// recycleSegment takes back a retired segment the hazard protocol has
// proved unreachable (or a findCell CAS loser no thread ever saw): into the
// handle's cache if empty, else the shared pool, else — the pool is full —
// dropped for the GC, which is what keeps retention bounded (segpool.go).
func (q *Queue) recycleSegment(h *Handle, s *segment) {
	if h != nil && h.segCache == nil {
		h.segCache = s
		return
	}
	q.pool.push(s)
}

// findCell locates cell Q[cellID], extending the segment list as needed
// (paper lines 33-52). sp points at a segment pointer — either a local
// traversal variable or a handle's head/tail field, which cleaners may CAS
// concurrently — and is updated to the segment containing the cell.
func (q *Queue) findCell(h *Handle, sp *unsafe.Pointer, cellID int64) *cell {
	orig := atomic.LoadPointer(sp)
	s := (*segment)(orig)
	//wfqlint:bounded(SEGS, segment-list walk from the cached anchor: sid advances one per hop and reclamation (§3.6) bounds the live list length)
	for i := sid(s); i < cellID>>q.segShift; i++ {
		next := (*segment)(atomic.LoadPointer(&s.next))
		if next == nil {
			// The list needs another segment: get one and try to extend
			// the list. A failed CAS means another thread already
			// extended it; the loser's segment goes back to be recycled.
			tmp := q.newSegment(h, i+1)
			if atomic.CompareAndSwapPointer(&s.next, nil, unsafe.Pointer(tmp)) {
				ctrInc(&h.stats.Segments)
			} else {
				q.recycleSegment(h, tmp)
			}
			next = (*segment)(atomic.LoadPointer(&s.next))
		}
		s = next
	}
	// Update the caller's segment hint only when it moved: the store is a
	// GC-write-barriered pointer write, and in the common case (1023 of
	// 1024 operations with the default segment size) the hint is already
	// correct.
	if unsafe.Pointer(s) != orig {
		atomic.StorePointer(sp, unsafe.Pointer(s))
	}
	// The slot map: the offset rotated left by slotRot bits (slotRotation).
	// Written out rather than called, since the step certificate charges
	// every call and findCell runs on every cell access.
	off := cellID & q.segMask
	return &s.cells[(off<<q.slotRot|off>>(q.segShift-q.slotRot))&q.segMask]
}

// advanceEndForLinearizability bumps the head or tail index *e to at least
// cid (paper lines 53-55), preserving Invariants 4 and 8: a value is only
// deposited in (taken from) a cell whose index is below T (H) by the time
// the operation completes.
func advanceEndForLinearizability(e *int64, cid int64) {
	//wfqlint:bounded(THREADS, paper lines 53-55: returns once the observed index reaches cid; a failed CAS means another thread advanced e, which is monotonic, so at most cid - v rounds)
	for {
		v := atomic.LoadInt64(e)
		if v >= cid || atomic.CompareAndSwapInt64(e, v, cid) {
			return
		}
	}
}

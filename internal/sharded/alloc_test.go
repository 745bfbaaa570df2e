package sharded

import (
	"testing"
	"unsafe"

	"wfqueue/internal/core"
	"wfqueue/internal/qtest"
)

// queueFrames are the frame prefixes qtest.QueueAllocs counts allocations
// under: this package's code and the core lanes beneath it. Both gates
// count nothing else, so they hold under -race too.
var queueFrames = []string{"wfqueue/internal/sharded.", "wfqueue/internal/core."}

// TestShardedSteadyStateAllocsZero is the sharded-layer zero-allocation
// gate: each value is enqueued on one handle's home lane and stolen by the
// next handle's sweep, and every few pairs an EMPTY dequeue runs the full
// two-pass sweep over every foreign lane, so the window covers home-lane
// dispatch, successful steals and the EMPTY witness pass on top of the core
// lanes. All of it must allocate nothing at steady state.
func TestShardedSteadyStateAllocsZero(t *testing.T) {
	const ops = 50_000
	q := New(4, WithLanes(4), WithCoreOptions(core.WithSegmentShift(6), core.WithMaxGarbage(1)))
	// One handle per lane, all driven by this goroutine in rotation: every
	// lane keeps receiving enqueues, so the cells the EMPTY sweeps poison on
	// foreign lanes are continually passed by that lane's own T and the
	// segments recycle. A sweep poisons at most one cell per lane and empty
	// streak: once a core handle has seen EMPTY, its next dequeue tests
	// T ≤ H and takes no cell, so a lane polled but never fed stops growing
	// after the first poll of each streak.
	var hs [4]*Handle
	for i := range hs {
		h, err := q.RegisterOnLane(i)
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	p := unsafe.Pointer(new(uint64))
	i := 0
	step := func() {
		h := hs[i%len(hs)]
		q.Enqueue(h, p)
		// The next handle's home lane is empty, so its dequeue steals the
		// value from h's lane.
		q.Dequeue(hs[(i+1)%len(hs)])
		// One EMPTY full-queue sweep every few pairs keeps the definitive
		// pass in the measured window.
		if i&7 == 0 {
			q.Dequeue(h)
		}
		i++
	}
	// Warm every lane past its first reclamation cycle, then one untimed
	// pass more: the EMPTY sweeps widen each lane's live segment window over
	// its first pass (four fresh segments), and the pools settle only after
	// that.
	for n := 4*(4<<6) + ops; n > 0; n-- {
		step()
	}
	if a := qtest.QueueAllocs(ops, step, queueFrames...); a.Objects != 0 {
		t.Fatalf("%d sharded enqueue+steal pairs allocated %d objects at steady state, want 0, at:\n%s",
			ops, a.Objects, a.Sites())
	}
}

// TestChurnAllocsZero is the handle-lifecycle gate: Register/Release cycles
// a pre-allocated shell plus one core handle per lane, so it must not touch
// the heap (DESIGN.md §6).
func TestChurnAllocsZero(t *testing.T) {
	q := New(2, WithLanes(2))
	a := qtest.QueueAllocs(100000, func() {
		h, err := q.Register()
		if err != nil {
			panic(err) // cannot happen: capacity 2, one handle in flight
		}
		h.Release()
	}, queueFrames...)
	if a.Objects != 0 || a.Bytes != 0 {
		t.Errorf("100000 Register+Release cycles allocated %d objects, %d bytes, want exactly 0, at:\n%s",
			a.Objects, a.Bytes, a.Sites())
	}
}

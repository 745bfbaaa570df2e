package wfqueue_test

// Allocation behavior of the public generic façades: after warm-up, the
// box-recycling path (box.go getBox/putBox) makes Enqueue/Dequeue of any
// fixed-size T — and the batched variants — allocation-free. When a
// producer handle and a consumer handle split the work, the boxes cross
// between them in blocks through the queue's shared pools, and that
// allocates nothing either (TestFacadeZeroAllocPipeline).

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"wfqueue"
	"wfqueue/internal/qtest"
)

// facadeFrames are the frame prefixes qtest.QueueAllocs counts allocations
// under: the façades' code and the core queue beneath it.
var facadeFrames = []string{"wfqueue.", "wfqueue/internal/core."}

func setFinalizer[T any](v *T, f func(*T)) { runtime.SetFinalizer(v, f) }

// eventuallyCollected forces GCs until the finalizer fires (or times out).
func eventuallyCollected(ch <-chan struct{}) bool {
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-ch:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// warmAllocQueue builds a queue with tiny segments and runs
// enough pairs to populate the spare segment slots and the handle's box
// free list.
func warmAllocQueue[T any](t *testing.T, v T) (*wfqueue.Queue[T], *wfqueue.Handle[T]) {
	t.Helper()
	q := wfqueue.New[T](2,
		wfqueue.WithSegmentShift(4),
		wfqueue.WithMaxGarbage(1))
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		h.Enqueue(v)
		h.Dequeue()
	}
	return q, h
}

func TestFacadeZeroAllocPointer(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	x := new(int)
	_, h := warmAllocQueue(t, x)
	defer h.Release()
	if a := qtest.QueueAllocs(10000, func() {
		h.Enqueue(x)
		h.Dequeue()
	}, facadeFrames...); a.Objects != 0 {
		t.Errorf("Queue[*int]: 10000 enqueue+dequeue pairs after warm-up allocated %d objects, want 0, at:\n%s", a.Objects, a.Sites())
	}
}

func TestFacadeZeroAllocScalar(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	_, h := warmAllocQueue(t, uint64(7))
	defer h.Release()
	if a := qtest.QueueAllocs(10000, func() {
		h.Enqueue(99)
		h.Dequeue()
	}, facadeFrames...); a.Objects != 0 {
		t.Errorf("Queue[uint64]: 10000 enqueue+dequeue pairs after warm-up allocated %d objects, want 0, at:\n%s", a.Objects, a.Sites())
	}
}

func TestFacadeZeroAllocBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	_, h := warmAllocQueue(t, uint64(7))
	defer h.Release()
	vs := []uint64{1, 2, 3, 4, 5}
	dst := make([]uint64, 5)
	// Warm the batch scratch buffer and box supply at this batch size.
	for i := 0; i < 64; i++ {
		h.EnqueueBatch(vs)
		h.DequeueBatch(dst)
	}
	if a := qtest.QueueAllocs(5000, func() {
		h.EnqueueBatch(vs)
		h.DequeueBatch(dst)
	}, facadeFrames...); a.Objects != 0 {
		t.Errorf("5000 batched enqueue+dequeue pairs after warm-up allocated %d objects, want 0, at:\n%s", a.Objects, a.Sites())
	}
}

// pipelineBurst is the burst the pipeline-shaped tests move from a
// producer handle to a consumer handle: more than a box free list holds, so
// every burst makes the consumer spill blocks of boxes to the shared pool
// and the producer refill from them.
const pipelineBurst = 1000

// TestFacadeZeroAllocPipeline is the allocation gate for boxes flowing one
// way between handles: a producer handle enqueues bursts of pipelineBurst
// values and a consumer handle drains each one. After warm-up the boxes
// circulate in blocks through the queue's shared pools, so the window must
// not allocate, on either façade.
func TestFacadeZeroAllocPipeline(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates, and sync.Pool drops items on purpose under -race")
	}
	t.Run("Queue", func(t *testing.T) {
		q := wfqueue.New[uint64](2)
		prod, cons := mustRegister(t, q), mustRegister(t, q)
		defer prod.Release()
		defer cons.Release()
		burst := func() {
			for i := 0; i < pipelineBurst; i++ {
				prod.Enqueue(uint64(i))
			}
			for i := 0; i < pipelineBurst; i++ {
				if _, ok := cons.Dequeue(); !ok {
					t.Fatalf("Dequeue %d of a %d-value burst saw EMPTY", i, pipelineBurst)
				}
			}
		}
		checkPipelineAllocs(t, "Queue[uint64]", burst)
	})
	t.Run("BoundedQueue", func(t *testing.T) {
		q, prod := mustBounded[uint64](t, 2, pipelineBurst)
		cons, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		defer prod.Release()
		defer cons.Release()
		burst := func() {
			for i := 0; i < pipelineBurst; i++ {
				if err := prod.TryEnqueue(uint64(i)); err != nil {
					t.Fatalf("TryEnqueue %d of a %d-value burst: %v", i, pipelineBurst, err)
				}
			}
			for i := 0; i < pipelineBurst; i++ {
				if _, ok := cons.Dequeue(); !ok {
					t.Fatalf("Dequeue %d of a %d-value burst saw EMPTY", i, pipelineBurst)
				}
			}
		}
		checkPipelineAllocs(t, "BoundedQueue[uint64]", burst)
	})
}

// checkPipelineAllocs runs 64 warm-up bursts, about 62 default-size
// segments, so the core recycles segments and the box blocks circulate,
// then requires a 20-burst window to allocate nothing.
func checkPipelineAllocs(t *testing.T, name string, burst func()) {
	t.Helper()
	for i := 0; i < 64; i++ {
		burst()
	}
	if a := qtest.QueueAllocs(20, burst, facadeFrames...); a.Objects != 0 {
		t.Errorf("%s: 20 warm producer→consumer bursts of %d values allocated %d objects, want 0, at:\n%s",
			name, pipelineBurst, a.Objects, a.Sites())
	}
}

func mustRegister[T any](t *testing.T, q *wfqueue.Queue[T]) *wfqueue.Handle[T] {
	t.Helper()
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestBoxRecyclingCrossHandle splits production and consumption across
// handles and checks values survive the box round-trips intact, each
// arriving exactly once. The consumer's free list fills and spills blocks
// while the producer's drains and refills from them: concurrently on two
// goroutines, and in bursts on one, where every burst is sure to spill and
// refill.
func TestBoxRecyclingCrossHandle(t *testing.T) {
	t.Run("concurrent", func(t *testing.T) {
		const n = 20000
		q := wfqueue.New[int](2, wfqueue.WithSegmentShift(4))
		prod, cons := mustRegister(t, q), mustRegister(t, q)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer prod.Release()
			for i := 0; i < n; i++ {
				prod.Enqueue(i)
			}
		}()
		seen := make([]bool, n)
		for got := 0; got < n; {
			if v, ok := cons.Dequeue(); ok {
				if v < 0 || v >= n || seen[v] {
					t.Fatalf("value %d out of range or duplicated", v)
				}
				seen[v] = true
				got++
			}
		}
		wg.Wait()
		cons.Release()
	})
	t.Run("bursts", func(t *testing.T) {
		const rounds = 8
		q := wfqueue.New[int](2, wfqueue.WithSegmentShift(4))
		prod, cons := mustRegister(t, q), mustRegister(t, q)
		defer prod.Release()
		defer cons.Release()
		seen := make([]bool, rounds*pipelineBurst)
		for r := 0; r < rounds; r++ {
			for i := 0; i < pipelineBurst; i++ {
				prod.Enqueue(r*pipelineBurst + i)
			}
			for i := 0; i < pipelineBurst; i++ {
				v, ok := cons.Dequeue()
				if !ok {
					t.Fatalf("round %d: EMPTY after %d of %d values", r, i, pipelineBurst)
				}
				if v < 0 || v >= len(seen) || seen[v] {
					t.Fatalf("value %d out of range or duplicated", v)
				}
				seen[v] = true
			}
			if _, ok := cons.Dequeue(); ok {
				t.Fatalf("round %d: a value beyond the burst", r)
			}
		}
	})
}

// TestBoxZeroedOnRecycle checks putBox clears the recycled box: a queue of
// pointers must not keep dequeued values reachable through its free lists
// or through the blocks its handles spill to the shared pool.
// (Whitebox-by-effect: we can't inspect the boxes, but a GC after the
// dequeues must be able to collect the values, observed via finalizers.)
func TestBoxZeroedOnRecycle(t *testing.T) {
	t.Run("free list", func(t *testing.T) {
		q := wfqueue.New[*int](1)
		h := mustRegister(t, q)
		defer h.Release()

		collected := make(chan struct{}, 1)
		func() {
			v := new(int)
			*v = 42
			setFinalizer(v, func(*int) { collected <- struct{}{} })
			h.Enqueue(v)
			got, ok := h.Dequeue()
			if !ok || got != v {
				t.Fatal("round-trip failed")
			}
		}()
		if !eventuallyCollected(collected) {
			t.Error("dequeued value still reachable; a recycled box retains the old pointer")
		}
	})
	t.Run("spilled blocks", func(t *testing.T) {
		// The consumer's free list overflows several times while it drains
		// a burst, so most boxes leave it in spilled blocks; a second burst
		// refills the producer from them. Every value of the first burst
		// must still be collectable.
		q := wfqueue.New[*int](2)
		prod, cons := mustRegister(t, q), mustRegister(t, q)
		defer prod.Release()
		defer cons.Release()

		collected := make(chan struct{}, pipelineBurst)
		func() {
			for i := 0; i < pipelineBurst; i++ {
				v := new(int)
				*v = i
				setFinalizer(v, func(*int) { collected <- struct{}{} })
				prod.Enqueue(v)
			}
			for i := 0; i < pipelineBurst; i++ {
				if got, ok := cons.Dequeue(); !ok || *got != i {
					t.Fatalf("dequeue %d of the burst failed", i)
				}
			}
		}()
		filler := new(int)
		for i := 0; i < pipelineBurst; i++ {
			prod.Enqueue(filler)
		}
		for i := 0; i < pipelineBurst; i++ {
			cons.Dequeue()
		}
		for i := 0; i < pipelineBurst; i++ {
			if !eventuallyCollected(collected) {
				t.Fatalf("%d of %d dequeued values still reachable; a spilled box retains the old pointer",
					pipelineBurst-i, pipelineBurst)
			}
		}
	})
}

// registerAllocs is what one Register+Release costs on either façade: the
// handle itself, its box free list (boxFreeListCap slots, sized once at
// registration) and the finalizer record. The core lifecycle underneath
// allocates nothing (TestChurnAllocsZero in internal/core).
const registerAllocs = 3

// TestRegisterReleaseAllocs pins the façades' handle lifecycle at
// registerAllocs allocations per Register+Release, so the bounded façade,
// which registers through Queue[T]'s handle, costs no more than it does.
func TestRegisterReleaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	for _, f := range facades(t, 1) {
		t.Run(f.name, func(t *testing.T) {
			n := testing.AllocsPerRun(1000, func() {
				h, err := f.register()
				if err != nil {
					t.Fatal(err)
				}
				h.Release()
			})
			if n != registerAllocs {
				t.Errorf("%s: Register+Release allocated %v objects, want %d", f.name, n, registerAllocs)
			}
		})
	}
}

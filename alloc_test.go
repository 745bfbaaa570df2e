package wfqueue_test

// Allocation behavior of the public generic facade: after warm-up, the
// box-recycling path (box.go getBox/putBox) makes Enqueue/Dequeue of
// any fixed-size T — and the batched variants — allocation-free, and the
// shared sync.Pool keeps cross-handle producer/consumer splits from
// allocating per value.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"wfqueue"
)

// mallocs returns the heap allocations (MemStats.Mallocs) made across runs
// calls of f, measured as testing.AllocsPerRun does (GOMAXPROCS 1, one
// warm-up call first) but reported for the whole window: AllocsPerRun
// divides by runs and rounds down, so a window that allocates one segment
// every few pairs reads 0 there. MemStats is process-wide, and now and then
// another goroutine (the runtime, the test runner) allocates
// inside a window; an allocation on f's own path lands in every window, so
// the fewest over three windows is exact for it.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := ^uint64(0)
	for w := 0; w < 3 && least != 0; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

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
	if n := mallocs(10000, func() {
		h.Enqueue(x)
		h.Dequeue()
	}); n != 0 {
		t.Errorf("Queue[*int]: 10000 enqueue+dequeue pairs after warm-up allocated %d objects, want 0", n)
	}
}

func TestFacadeZeroAllocScalar(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	_, h := warmAllocQueue(t, uint64(7))
	defer h.Release()
	if n := mallocs(10000, func() {
		h.Enqueue(99)
		h.Dequeue()
	}); n != 0 {
		t.Errorf("Queue[uint64]: 10000 enqueue+dequeue pairs after warm-up allocated %d objects, want 0", n)
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
	if n := mallocs(5000, func() {
		h.EnqueueBatch(vs)
		h.DequeueBatch(dst)
	}); n != 0 {
		t.Errorf("5000 batched enqueue+dequeue pairs after warm-up allocated %d objects, want 0", n)
	}
}

// TestBoxRecyclingCrossHandle splits production and consumption across
// handles (the consumer's free list fills while the producer's drains; the
// shared Pool rebalances) and checks values survive the box round-trips
// intact.
func TestBoxRecyclingCrossHandle(t *testing.T) {
	const n = 20000
	q := wfqueue.New[int](2, wfqueue.WithSegmentShift(4))
	prod, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	cons, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
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
	got := 0
	for got < n {
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
}

// TestBoxZeroedOnRecycle checks putBox clears the recycled box: a queue of
// pointers must not keep dequeued values reachable through its free lists.
// (Whitebox-by-effect: we can't inspect the boxes, but a GC after the
// dequeues must be able to collect the values, observed via finalizers.)
func TestBoxZeroedOnRecycle(t *testing.T) {
	q := wfqueue.New[*int](1)
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
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
}

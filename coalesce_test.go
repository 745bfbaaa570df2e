package wfqueue_test

// Behavior of the public facade under WithCoalescing: window clamping,
// visibility at the flush (not the Enqueue), Handle.Flush, Release
// auto-flush, batch routing through the coalescing buffers, per-producer
// order under concurrency, and allocation-freedom of the coalesced path.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"wfqueue"
	"wfqueue/internal/qtest"
)

func TestCoalesceWindowOption(t *testing.T) {
	if got := wfqueue.New[int](1).CoalesceWindow(); got != 1 {
		t.Fatalf("default CoalesceWindow = %d, want 1", got)
	}
	for _, tc := range []struct{ in, want int }{
		{-1, 1}, {0, 1}, {1, 1}, {16, 16}, {64, 64}, {1000, 64},
	} {
		q := wfqueue.New[int](1, wfqueue.WithCoalescing(tc.in))
		if got := q.CoalesceWindow(); got != tc.want {
			t.Errorf("WithCoalescing(%d): window = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestCoalesceVisibilityAtFlush: values below the window are invisible to a
// second handle until Flush; the flush publishes the run in order.
func TestCoalesceVisibilityAtFlush(t *testing.T) {
	const w = 16
	q := wfqueue.New[int](2, wfqueue.WithCoalescing(w))
	prod, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Release()
	cons, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Release()

	for i := 1; i < w; i++ {
		prod.Enqueue(i)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d with a sub-window buffer, want 0", q.Len())
	}
	if v, ok := cons.Dequeue(); ok {
		t.Fatalf("buffered value %d visible before flush", v)
	}
	prod.Flush()
	for i := 1; i < w; i++ {
		v, ok := cons.Dequeue()
		if !ok || v != i {
			t.Fatalf("after flush: dequeue = (%d,%v), want %d", v, ok, i)
		}
	}
	// Filling the window flushes implicitly.
	for i := 100; i < 100+w; i++ {
		prod.Enqueue(i)
	}
	if v, ok := cons.Dequeue(); !ok || v != 100 {
		t.Fatalf("after window fill: dequeue = (%d,%v), want 100", v, ok)
	}
}

// TestCoalesceOwnHandleNeverStuck: a handle that enqueues then dequeues
// through the same coalescing window always sees its own values (the
// flush-before-EMPTY guarantee), so single-handle code needs no Flush calls.
func TestCoalesceOwnHandleNeverStuck(t *testing.T) {
	q := wfqueue.New[int](1, wfqueue.WithCoalescing(16))
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	for i := 0; i < 1000; i++ {
		h.Enqueue(i)
		v, ok := h.Dequeue()
		if !ok || v != i {
			t.Fatalf("pair %d: got (%d,%v)", i, v, ok)
		}
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("empty queue returned a value")
	}
}

// TestCoalesceReleasePublishes: Release flushes the window, so a value
// enqueued just before Release is recoverable through another handle.
func TestCoalesceReleasePublishes(t *testing.T) {
	q := wfqueue.New[int](2, wfqueue.WithCoalescing(16))
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	h.Enqueue(7)
	h.Enqueue(8)
	h.Release()

	h2, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	for want := 7; want <= 8; want++ {
		v, ok := h2.Dequeue()
		if !ok || v != want {
			t.Fatalf("after Release: dequeue = (%d,%v), want %d", v, ok, want)
		}
	}
}

// TestCoalesceBatchRouting: EnqueueBatch publishes buffered singletons
// first (producer order), and DequeueBatch serves the drain buffer before
// harvesting.
func TestCoalesceBatchRouting(t *testing.T) {
	q := wfqueue.New[int](1, wfqueue.WithCoalescing(16))
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()

	h.Enqueue(1)
	h.Enqueue(2)
	h.EnqueueBatch([]int{3, 4, 5})
	dst := make([]int, 8)
	if n := h.DequeueBatch(dst); n != 5 {
		t.Fatalf("DequeueBatch = %d, want 5 (singletons + batch)", n)
	}
	for i, want := range []int{1, 2, 3, 4, 5} {
		if dst[i] != want {
			t.Fatalf("dst[%d] = %d, want %d (buffered singletons keep their place)", i, dst[i], want)
		}
	}
	// Drain buffer first: a scalar dequeue leaves harvested values in the
	// drain buffer; the next batch must start with them.
	h.EnqueueBatch([]int{10, 11, 12, 13})
	if v, ok := h.Dequeue(); !ok || v != 10 {
		t.Fatalf("scalar dequeue = (%d,%v), want 10", v, ok)
	}
	if n := h.DequeueBatch(dst[:3]); n != 3 || dst[0] != 11 || dst[1] != 12 || dst[2] != 13 {
		t.Fatalf("DequeueBatch after drain-buffer fill = %d %v", n, dst[:3])
	}
}

// TestCoalescedMPMCFacade: coalesced concurrent producers/consumers on the
// generic facade lose nothing, duplicate nothing, and keep per-producer
// order.
func TestCoalescedMPMCFacade(t *testing.T) {
	const (
		producers   = 4
		consumers   = 2
		perProducer = 10000
	)
	q := wfqueue.New[[2]int](producers+consumers, wfqueue.WithCoalescing(16))
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p int, h *wfqueue.Handle[[2]int]) {
			defer wg.Done()
			for s := 1; s <= perProducer; s++ {
				h.Enqueue([2]int{p, s})
			}
			h.Flush()
		}(p, h)
	}
	var total int64
	results := make([][][2]int, consumers)
	for c := 0; c < consumers; c++ {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c int, h *wfqueue.Handle[[2]int]) {
			defer wg.Done()
			defer h.Release()
			var local [][2]int
			for atomic.LoadInt64(&total) < producers*perProducer {
				v, ok := h.Dequeue()
				if !ok {
					runtime.Gosched()
					continue
				}
				local = append(local, v)
				atomic.AddInt64(&total, 1)
			}
			results[c] = local
		}(c, h)
	}
	wg.Wait()
	seen := make(map[[2]int]bool, producers*perProducer)
	for c, local := range results {
		last := map[int]int{}
		for _, v := range local {
			if seen[v] {
				t.Fatalf("value %v dequeued twice", v)
			}
			seen[v] = true
			if l, ok := last[v[0]]; ok && v[1] <= l {
				t.Fatalf("consumer %d: producer %d seq %d after %d", c, v[0], v[1], l)
			}
			last[v[0]] = v[1]
		}
	}
	if len(seen) != producers*perProducer {
		t.Fatalf("dequeued %d distinct values, want %d", len(seen), producers*perProducer)
	}
}

// TestCoalesceZeroAlloc: the coalesced path keeps the facade's steady-state
// zero-allocation property — buffers are fixed arrays in the core handle
// and values still travel in recycled boxes.
func TestCoalesceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	q := wfqueue.New[uint64](1,
		wfqueue.WithCoalescing(16),
		wfqueue.WithSegmentShift(4),
		wfqueue.WithMaxGarbage(1))
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	for i := 0; i < 2048; i++ {
		h.Enqueue(uint64(i))
		h.Dequeue()
	}
	if a := qtest.QueueAllocs(10000, func() {
		h.Enqueue(99)
		h.Dequeue()
	}, facadeFrames...); a.Objects != 0 {
		t.Errorf("10000 coalesced enqueue+dequeue pairs after warm-up allocated %d objects, want 0, at:\n%s", a.Objects, a.Sites())
	}
}

package wfqueue_test

// The bounded façade (bounded.go: the core queue plus an occupancy
// counter): capacity semantics (fill to capacity, ErrFull, drain one, retry
// succeeds), FIFO order across backpressure, zero-allocation operations on a
// warm queue — across segment boundaries, and in a TryEnqueue loop running
// entirely against a full queue — flat retention under a parked consumer,
// and the handle lifecycle contract shared with the unbounded façade.

import (
	"errors"
	"math"
	"sync"
	"testing"

	"wfqueue"
	"wfqueue/internal/qtest"
)

func mustBounded[T any](t *testing.T, maxHandles, capacity int) (*wfqueue.BoundedQueue[T], *wfqueue.BoundedHandle[T]) {
	t.Helper()
	q, err := wfqueue.NewBounded[T](maxHandles, capacity)
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	return q, h
}

func TestBoundedFullRetry(t *testing.T) {
	q, h := mustBounded[int](t, 2, 4)
	defer h.Release()
	if q.Capacity() != 4 {
		t.Fatalf("capacity = %d, want 4", q.Capacity())
	}
	for i := 0; i < q.Capacity(); i++ {
		if err := h.TryEnqueue(i); err != nil {
			t.Fatalf("TryEnqueue(%d) on a non-full queue: %v", i, err)
		}
	}
	if err := h.TryEnqueue(99); !errors.Is(err, wfqueue.ErrFull) {
		t.Fatalf("TryEnqueue at capacity: err = %v, want ErrFull", err)
	}
	if n := q.Stats()["enq_full"]; n != 1 {
		t.Fatalf("enq_full = %d after one rejection, want 1", n)
	}
	// Drain one and the retry must succeed; FIFO must hold across the
	// rejection.
	if v, ok := h.Dequeue(); !ok || v != 0 {
		t.Fatalf("Dequeue = (%d, %v), want (0, true)", v, ok)
	}
	if err := h.TryEnqueue(99); err != nil {
		t.Fatalf("TryEnqueue after drain: %v", err)
	}
	want := []int{1, 2, 3, 99}
	for _, w := range want {
		if v, ok := h.Dequeue(); !ok || v != w {
			t.Fatalf("Dequeue = (%d, %v), want (%d, true)", v, ok, w)
		}
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("Dequeue on an empty queue returned ok")
	}
	st := q.Stats()
	if st["enq_full"] != 1 {
		t.Errorf("enq_full = %d after accepted retries, want it still 1", st["enq_full"])
	}
	if enqs := st["enq_fast"] + st["enq_slow"]; enqs != 5 {
		t.Errorf("core enqueues = %d, want the 5 accepted values (a rejection never reaches the core)", enqs)
	}
	if q.MaxHandles() != 2 {
		t.Errorf("MaxHandles = %d, want 2", q.MaxHandles())
	}
}

// TestBoundedRejectAtCapacity pins the reject path on a full queue: each
// TryEnqueue is turned away with ErrFull and counted once in enq_full, and
// Len reads Capacity() throughout. Len clamps at Capacity, so the dequeue
// at the end checks that no rejection left a unit behind.
func TestBoundedRejectAtCapacity(t *testing.T) {
	q, h := mustBounded[int](t, 1, 16)
	defer h.Release()
	for i := 0; i < q.Capacity(); i++ {
		if err := h.TryEnqueue(i); err != nil {
			t.Fatalf("TryEnqueue(%d) on a non-full queue: %v", i, err)
		}
	}
	const n = 1000
	before := q.Stats()["enq_full"]
	for i := 0; i < n; i++ {
		if err := h.TryEnqueue(i); !errors.Is(err, wfqueue.ErrFull) {
			t.Fatalf("rejection %d: err = %v, want ErrFull", i, err)
		}
		if got := q.Len(); got != q.Capacity() {
			t.Fatalf("Len = %d after rejection %d, want Capacity %d", got, i, q.Capacity())
		}
	}
	if got := q.Stats()["enq_full"] - before; got != n {
		t.Errorf("enq_full rose by %d over %d rejections, want exactly %d", got, n, n)
	}
	if v, ok := h.Dequeue(); !ok || v != 0 {
		t.Fatalf("Dequeue after the rejections = (%d, %v), want (0, true)", v, ok)
	}
	if got := q.Len(); got != q.Capacity()-1 {
		t.Errorf("Len = %d after one dequeue, want %d", got, q.Capacity()-1)
	}
}

// TestBoundedStatsShape: BoundedQueue.Stats has exactly Counters.Map's key
// set (enq_full among them, TestCountersCensus); Queue[T], which never
// rejects an enqueue, reads EnqFull 0.
func TestBoundedStatsShape(t *testing.T) {
	q, h := mustBounded[int](t, 1, 4)
	defer h.Release()
	st, want := q.Stats(), wfqueue.Counters{}.Map()
	if len(st) != len(want) {
		t.Errorf("Stats has %d keys, Counters.Map has %d", len(st), len(want))
	}
	for k := range want {
		if _, ok := st[k]; !ok {
			t.Errorf("Stats lacks Counters.Map key %q", k)
		}
	}

	u := wfqueue.New[int](1)
	uh := mustRegister(t, u)
	defer uh.Release()
	for i := 0; i < 100; i++ {
		uh.Enqueue(i)
	}
	if n := u.Stats().EnqFull; n != 0 {
		t.Errorf("Queue[int] EnqFull = %d, want 0", n)
	}
}

func TestBoundedCapacityRounding(t *testing.T) {
	q, err := wfqueue.NewBounded[int](1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if q.Capacity() != 8 {
		t.Fatalf("capacity 5 rounds to %d, want 8", q.Capacity())
	}
	if _, err := wfqueue.NewBounded[int](0, 4); err == nil {
		t.Fatal("NewBounded with 0 handles succeeded")
	}
	if _, err := wfqueue.NewBounded[int](1, 0); err == nil {
		t.Fatal("NewBounded with 0 capacity succeeded")
	}
	if _, err := wfqueue.NewBounded[int](1<<24, 4); err == nil {
		t.Fatal("NewBounded with more handles than the core can index succeeded")
	}
	if _, err := wfqueue.NewBounded[int](1, math.MaxInt); err == nil {
		t.Fatal("NewBounded with a capacity that rounds past math.MaxInt succeeded")
	}
}

func TestBoundedBlockingEnqueue(t *testing.T) {
	q, prod := mustBounded[int](t, 2, 4)
	cons, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer prod.Release()
		for i := 0; i < n; i++ {
			prod.Enqueue(i) // blocks on backpressure, never loses a value
		}
	}()
	next := 0
	for next < n {
		if v, ok := cons.Dequeue(); ok {
			if v != next {
				t.Errorf("dequeued %d, want %d (FIFO broken across backpressure)", v, next)
				break
			}
			next++
		}
	}
	wg.Wait()
	cons.Release()
}

func TestBoundedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	q, h := mustBounded[uint64](t, 1, 64)
	// Warm: run pairs until the core has reclaimed segments twice, so the
	// value boxes circulate and the spare segment slots and the handle's
	// segment cache hold what the window below recycles.
	for i := 0; q.Stats()["cleanups"] < 2; i++ {
		if i == 1<<20 {
			t.Fatal("warm-up never reclaimed a segment")
		}
		if err := h.TryEnqueue(uint64(i)); err != nil {
			t.Fatal(err)
		}
		h.Dequeue()
	}
	// A pair moves both core indices one cell on, so the window's 10000
	// pairs cross about nine boundaries of the default 1024-cell segments:
	// each one a recycled segment linked in and a reclaimed one let go.
	before := q.Stats()
	if a := qtest.QueueAllocs(10000, func() {
		h.TryEnqueue(7)
		h.Dequeue()
	}, facadeFrames...); a.Objects != 0 {
		t.Errorf("BoundedQueue[uint64]: 10000 warm TryEnqueue+Dequeue pairs allocated %d objects, want 0, at:\n%s", a.Objects, a.Sites())
	}
	after := q.Stats()
	if after["segments"] == before["segments"] || after["cleanups"] == before["cleanups"] {
		t.Errorf("the window linked %d segments and ran %d reclamation passes, want both > 0",
			after["segments"]-before["segments"], after["cleanups"]-before["cleanups"])
	}
	h.Release()
}

// TestBoundedZeroAllocOnRejection pins the box-recycling contract of the
// ErrFull path: an enqueue loop running entirely against a full queue must
// return every rejected value's box and allocate nothing.
func TestBoundedZeroAllocOnRejection(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	q, h := mustBounded[uint64](t, 1, 4)
	for i := 0; i < q.Capacity(); i++ {
		if err := h.TryEnqueue(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if a := qtest.QueueAllocs(10000, func() {
		if h.TryEnqueue(7) == nil {
			t.Fatal("TryEnqueue on a full queue succeeded")
		}
	}, facadeFrames...); a.Objects != 0 {
		t.Errorf("10000 rejected TryEnqueues allocated %d objects, want 0 (box not recycled on ErrFull), at:\n%s", a.Objects, a.Sites())
	}
	h.Release()
}

func TestBoundedHandleLifecycle(t *testing.T) {
	q, err := wfqueue.NewBounded[int](1, 4)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Register(); !errors.Is(err, wfqueue.ErrTooManyHandles) {
		t.Fatalf("second Register: err = %v, want ErrTooManyHandles", err)
	}
	h1.Release()
	h1.Release() // idempotent
	h2, err := q.Register()
	if err != nil {
		t.Fatalf("Register after Release: %v", err)
	}
	defer h2.Release()

	defer func() {
		if recover() == nil {
			t.Error("operation on a released handle did not panic")
		}
	}()
	h1.TryEnqueue(1)
}

// TestBoundedConcurrent hammers one small queue from producers (counting
// accepted values) and consumers, then checks the accepted multiset arrives
// exactly once.
func TestBoundedConcurrent(t *testing.T) {
	const producers, consumers, perProducer = 2, 2, 5000
	q, err := wfqueue.NewBounded[uint64](producers+consumers, 16)
	if err != nil {
		t.Fatal(err)
	}
	var accepted, consumed sync.Map
	var wg sync.WaitGroup
	var done sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h, err := q.Register()
			if err != nil {
				t.Error(err)
				return
			}
			defer h.Release()
			for i := 0; i < perProducer; i++ {
				v := uint64(p)<<32 | uint64(i)
				if h.TryEnqueue(v) == nil {
					accepted.Store(v, true)
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	for c := 0; c < consumers; c++ {
		done.Add(1)
		go func() {
			defer done.Done()
			h, err := q.Register()
			if err != nil {
				t.Error(err)
				return
			}
			defer h.Release()
			for {
				if v, ok := h.Dequeue(); ok {
					if _, dup := consumed.LoadOrStore(v, true); dup {
						t.Errorf("value %x consumed twice", v)
					}
					continue
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	// Producers are done: one more full drain pass each, then stop.
	close(stop)
	done.Wait()
	// Anything accepted but unconsumed is still in the queue; drain it.
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	for {
		v, ok := h.Dequeue()
		if !ok {
			break
		}
		if _, dup := consumed.LoadOrStore(v, true); dup {
			t.Errorf("value %x consumed twice", v)
		}
	}
	accepted.Range(func(k, _ any) bool {
		if _, ok := consumed.Load(k); !ok {
			t.Errorf("accepted value %x lost", k)
		}
		return true
	})
	consumed.Range(func(k, _ any) bool {
		if _, ok := accepted.Load(k); !ok {
			t.Errorf("consumed value %x never accepted", k)
		}
		return true
	})
}

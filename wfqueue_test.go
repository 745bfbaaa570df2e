package wfqueue_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"wfqueue"
)

func TestBasicUsage(t *testing.T) {
	q := wfqueue.New[string](4)
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	h.Enqueue("a")
	h.Enqueue("b")
	if v, ok := h.Dequeue(); !ok || v != "a" {
		t.Fatalf("got (%q,%v), want (a,true)", v, ok)
	}
	if v, ok := h.Dequeue(); !ok || v != "b" {
		t.Fatalf("got (%q,%v), want (b,true)", v, ok)
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("empty queue returned a value")
	}
}

func TestZeroValues(t *testing.T) {
	// The facade boxes values, so zero values — including nil-like ones —
	// are first-class, unlike the pointer-based core.
	q := wfqueue.New[int](1)
	h, _ := q.Register()
	h.Enqueue(0)
	if v, ok := h.Dequeue(); !ok || v != 0 {
		t.Fatalf("zero int: got (%d,%v)", v, ok)
	}

	qp := wfqueue.New[*int](1)
	hp, _ := qp.Register()
	hp.Enqueue(nil)
	if v, ok := hp.Dequeue(); !ok || v != nil {
		t.Fatalf("nil pointer: got (%v,%v)", v, ok)
	}
}

func TestStructValues(t *testing.T) {
	type pair struct {
		A int
		B string
	}
	q := wfqueue.New[pair](2)
	h, _ := q.Register()
	for i := 0; i < 100; i++ {
		h.Enqueue(pair{A: i, B: "x"})
	}
	for i := 0; i < 100; i++ {
		v, ok := h.Dequeue()
		if !ok || v.A != i || v.B != "x" {
			t.Fatalf("dequeue %d: got (%+v,%v)", i, v, ok)
		}
	}
}

func TestLenAndStats(t *testing.T) {
	q := wfqueue.New[int](2)
	h, _ := q.Register()
	for i := 0; i < 10; i++ {
		h.Enqueue(i)
	}
	if q.Len() != 10 {
		t.Errorf("Len = %d, want 10", q.Len())
	}
	st := q.Stats()
	if st.EnqFast+st.EnqSlow != 10 {
		t.Errorf("stats enqueues = %d, want 10", st.EnqFast+st.EnqSlow)
	}
	if q.Capacity() != 2 {
		t.Errorf("Capacity = %d, want 2", q.Capacity())
	}
}

func TestRegisterExhaustion(t *testing.T) {
	q := wfqueue.New[int](1)
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Register(); err == nil {
		t.Fatal("expected ErrTooManyHandles")
	}
	h.Release()
	if _, err := q.Register(); err != nil {
		t.Fatalf("re-register after Release: %v", err)
	}
}

func TestConcurrentFacade(t *testing.T) {
	const workers = 8
	per := 5000
	if testing.Short() {
		per = 500
	}
	q := wfqueue.New[int](workers, wfqueue.WithSegmentShift(6))
	var wg sync.WaitGroup
	var got sync.Map
	var count int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, h *wfqueue.Handle[int]) {
			defer wg.Done()
			defer h.Release()
			for i := 0; i < per; i++ {
				h.Enqueue(w*per*10 + i)
				for {
					v, ok := h.Dequeue()
					if ok {
						if _, dup := got.LoadOrStore(v, true); dup {
							t.Errorf("duplicate %d", v)
						}
						mu.Lock()
						count++
						mu.Unlock()
						break
					}
					runtime.Gosched()
				}
			}
		}(w, h)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if count != int64(workers*per) {
		t.Fatalf("dequeued %d values, want %d", count, workers*per)
	}
}

func TestOptionsRoundTrip(t *testing.T) {
	q := wfqueue.New[int](2,
		wfqueue.WithPatience(0),
		wfqueue.WithSegmentShift(4),
		wfqueue.WithMaxGarbage(1))
	h, _ := q.Register()
	for i := 0; i < 1000; i++ {
		h.Enqueue(i)
		if v, ok := h.Dequeue(); !ok || v != i {
			t.Fatalf("round %d: got (%d,%v)", i, v, ok)
		}
	}
	if q.ReclaimedSegments() == 0 {
		t.Error("tiny segments + MaxGarbage(1) should reclaim")
	}
}

func TestReleaseIdempotent(t *testing.T) {
	q := wfqueue.New[int](1)
	h, _ := q.Register()
	h.Release()
	h.Release() // must be a no-op, so `defer h.Release()` composes
	// The slot must be checked in exactly once: after re-registering, the
	// queue is at capacity again.
	h2, err := q.Register()
	if err != nil {
		t.Fatalf("re-register after double Release: %v", err)
	}
	if _, err := q.Register(); err == nil {
		t.Fatal("double Release must not free the slot twice")
	}
	h2.Release()
}

func TestUseAfterReleasePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on released Handle should panic", name)
			}
		}()
		f()
	}
	q := wfqueue.New[int](1)
	h, _ := q.Register()
	h.Release()
	mustPanic("Enqueue", func() { h.Enqueue(1) })
	mustPanic("Dequeue", func() { h.Dequeue() })
	mustPanic("EnqueueBatch", func() { h.EnqueueBatch([]int{1, 2}) })
	mustPanic("DequeueBatch", func() { h.DequeueBatch(make([]int, 2)) })
}

func TestBatchFacade(t *testing.T) {
	q := wfqueue.New[string](2)
	h, _ := q.Register()
	defer h.Release()

	h.EnqueueBatch([]string{"a", "b", "c"})
	h.EnqueueBatch(nil) // no-op
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	dst := make([]string, 5)
	if n := h.DequeueBatch(dst); n != 3 {
		t.Fatalf("DequeueBatch = %d, want 3", n)
	}
	if dst[0] != "a" || dst[1] != "b" || dst[2] != "c" {
		t.Fatalf("batch order wrong: %v", dst[:3])
	}
	if n := h.DequeueBatch(dst); n != 0 {
		t.Fatalf("DequeueBatch on empty = %d, want 0", n)
	}
	if n := h.DequeueBatch(nil); n != 0 {
		t.Fatalf("DequeueBatch(nil) = %d, want 0", n)
	}

	// The caller's input slice can be reused immediately: values were
	// copied to a private backing array.
	src := []string{"x", "y"}
	h.EnqueueBatch(src)
	src[0], src[1] = "mut", "ated"
	if n := h.DequeueBatch(dst[:2]); n != 2 || dst[0] != "x" || dst[1] != "y" {
		t.Fatalf("batch values aliased the caller's slice: %v", dst[:2])
	}
}

func TestBatchFacadeSingleFAA(t *testing.T) {
	q := wfqueue.New[int](1)
	h, _ := q.Register()
	defer h.Release()
	vs := make([]int, 64)
	for i := range vs {
		vs[i] = i
	}
	h.EnqueueBatch(vs)
	got := make([]int, 64)
	if n := h.DequeueBatch(got); n != 64 {
		t.Fatalf("DequeueBatch = %d, want 64", n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	st := q.Stats()
	if st.EnqBatchCalls != 1 || st.EnqBatchFAAs != 1 {
		t.Errorf("enq batch: calls=%d faas=%d, want 1/1", st.EnqBatchCalls, st.EnqBatchFAAs)
	}
	if st.DeqBatchCalls != 1 || st.DeqBatchFAAs != 1 {
		t.Errorf("deq batch: calls=%d faas=%d, want 1/1", st.DeqBatchCalls, st.DeqBatchFAAs)
	}
}

func TestConcurrentBatchFacade(t *testing.T) {
	const workers = 4
	const batch = 16
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	q := wfqueue.New[int](2*workers, wfqueue.WithSegmentShift(6))
	var wg sync.WaitGroup
	var got sync.Map
	var count int64
	var mu sync.Mutex
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		hp, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		hc, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(w int, h *wfqueue.Handle[int]) {
			defer wg.Done()
			defer h.Release()
			vs := make([]int, batch)
			for r := 0; r < rounds; r++ {
				for i := range vs {
					vs[i] = (w*rounds+r)*batch + i
				}
				h.EnqueueBatch(vs)
			}
		}(w, hp)
		go func(h *wfqueue.Handle[int]) {
			defer wg.Done()
			defer h.Release()
			dst := make([]int, batch)
			for {
				mu.Lock()
				done := count == int64(workers*rounds*batch)
				mu.Unlock()
				if done || failed.Load() {
					return
				}
				n := h.DequeueBatch(dst)
				if n == 0 {
					runtime.Gosched()
					continue
				}
				for _, v := range dst[:n] {
					if _, dup := got.LoadOrStore(v, true); dup {
						t.Errorf("duplicate %d", v)
						failed.Store(true)
						return
					}
				}
				mu.Lock()
				count += int64(n)
				mu.Unlock()
			}
		}(hc)
	}
	wg.Wait()
	if !failed.Load() && count != int64(workers*rounds*batch) {
		t.Fatalf("dequeued %d values, want %d", count, workers*rounds*batch)
	}
}

// A handle leaked by a dead goroutine must eventually return to the pool
// via its finalizer.
func TestLeakedHandleReclaimed(t *testing.T) {
	q := wfqueue.New[int](1)
	func() {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		h.Enqueue(1)
		// h goes out of scope without Release — a "crashed" worker.
	}()
	var ok bool
	for i := 0; i < 50 && !ok; i++ {
		runtime.GC()
		if h2, err := q.Register(); err == nil {
			// Slot recovered; the queue content survived the leak.
			if v, got := h2.Dequeue(); !got || v != 1 {
				t.Fatalf("value lost across handle leak: (%d,%v)", v, got)
			}
			h2.Release()
			ok = true
		}
	}
	if !ok {
		t.Fatal("leaked handle was never reclaimed by the finalizer")
	}
}

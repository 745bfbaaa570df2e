package core

// Whitebox tests for the lock-free handle lifecycle (handlepool.go): the
// generation-tagged free list, the life-word idempotency protocol, and the
// invariant helpers depend on — a free handle's ring slot never shows a
// pending request or a live hazard pointer.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAcquireReleaseBasics: Register hands out each slot exactly once,
// exhaustion reports ErrTooManyHandles, and released slots recirculate.
func TestAcquireReleaseBasics(t *testing.T) {
	const n = 5
	q := New(n)
	seen := map[*Handle]bool{}
	hs := make([]*Handle, 0, n)
	for i := 0; i < n; i++ {
		h, err := q.Register()
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if seen[h] {
			t.Fatalf("acquire %d returned an already-checked-out handle", i)
		}
		seen[h] = true
		hs = append(hs, h)
	}
	if _, err := q.Register(); err != ErrTooManyHandles {
		t.Fatalf("exhausted acquire: err = %v, want ErrTooManyHandles", err)
	}
	for _, h := range hs {
		h.Release()
	}
	for i := 0; i < n; i++ {
		if _, err := q.Register(); err != nil {
			t.Fatalf("re-acquire %d after release: %v", i, err)
		}
	}
}

// TestMaxThreadsClamped: New clamps maxThreads to what 24-bit free-list
// indices can address rather than mis-linking the chain.
func TestMaxThreadsClamped(t *testing.T) {
	// Building 2^24 handles would be slow; check the constant arithmetic
	// and the small-end clamp instead.
	if maxHandleCap != 1<<24-2 {
		t.Fatalf("maxHandleCap = %d, want %d", maxHandleCap, 1<<24-2)
	}
	if got := New(-7).Capacity(); got != 1 {
		t.Fatalf("Capacity after New(-7) = %d, want 1", got)
	}
}

// TestReleasePendingOpPanics: retiring a handle that still has a pending
// slow-path request is an operation in flight — Release must refuse loudly
// instead of letting a helper chase a recycled slot.
func TestReleasePendingOpPanics(t *testing.T) {
	q := New(1)
	h := mustRegister(t, q)
	atomic.StoreUint64(&h.enqReq.state, packState(true, 1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release with pending enqueue request should panic")
			}
		}()
		h.Release()
	}()
	atomic.StoreUint64(&h.enqReq.state, packState(false, 1))
	atomic.StoreUint64(&h.deqReq.state, packState(true, 2))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release with pending dequeue request should panic")
			}
		}()
		h.Release()
	}()
	atomic.StoreUint64(&h.deqReq.state, packState(false, 2))
	h.Release() // now clean: must succeed
	if _, err := q.Register(); err != nil {
		t.Fatalf("slot lost after refused releases: %v", err)
	}
}

// TestConcurrentChurnStorm: goroutines hammer acquire/op/release on a pool
// smaller than the goroutine count, while a scanner goroutine continuously
// asserts the helper-visibility invariant: any handle whose life word reads
// even (free) must show no pending request and an idle hazard pointer at
// that moment — the exact reads an in-flight helper or cleaner performs, so
// a violation here is a helper chasing a recycled slot.
func TestConcurrentChurnStorm(t *testing.T) {
	const (
		capacity = 4
		workers  = 12
		cycles   = 300
	)
	q := New(capacity, WithPatience(0)) // patience 0 exercises the slow path
	var stop atomic.Bool
	var scanErr atomic.Pointer[string]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for _, h := range q.handles {
				life := h.life.Load()
				if life&1 == 1 {
					continue // checked out: owner may have anything in flight
				}
				pendE := statePending(atomic.LoadUint64(&h.enqReq.state))
				pendD := statePending(atomic.LoadUint64(&h.deqReq.state))
				hzdp := atomic.LoadInt64(&h.hzdp)
				// Re-read life: only report if the handle was free across
				// the whole observation (otherwise it was re-acquired under
				// us and the reads raced a legitimate owner).
				if h.life.Load() != life {
					continue
				}
				if pendE || pendD || hzdp != -1 {
					msg := "free handle observed with pending request or live hazard pointer"
					scanErr.Store(&msg)
					return
				}
			}
			runtime.Gosched()
		}
	}()
	var workerWG sync.WaitGroup
	var acquired uint64
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func(seed int64) {
			defer workerWG.Done()
			for i := 0; i < cycles; i++ {
				h, err := q.Register()
				if err != nil {
					runtime.Gosched()
					continue
				}
				atomic.AddUint64(&acquired, 1)
				q.Enqueue(h, box(seed))
				q.Dequeue(h)
				h.Release()
			}
		}(int64(w + 1))
	}
	workerWG.Wait()
	stop.Store(true)
	wg.Wait() // scanner
	if msg := scanErr.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if acquired == 0 {
		t.Fatal("storm never acquired a handle")
	}
	// Every acquire was matched by a release: the pool must be exactly full.
	for i := 0; i < capacity; i++ {
		if _, err := q.Register(); err != nil {
			t.Fatalf("slot %d lost after storm: %v", i, err)
		}
	}
	if _, err := q.Register(); err == nil {
		t.Fatal("storm duplicated a slot")
	}
}

// TestRetiredSlotInvisibleToHelpers: drive real slow-path traffic (patience
// 0 forces every operation through the helping ring) through a churning set
// of handles, then assert the retired handles' ring state is neutral: no
// pending request, hazard pointer idle. A helper that ran concurrently can
// only have observed completed (non-pending) requests in those slots.
func TestRetiredSlotInvisibleToHelpers(t *testing.T) {
	const n = 8
	q := New(n, WithPatience(0), WithMaxSpin(1))
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h, err := q.Register()
				if err != nil {
					runtime.Gosched()
					continue
				}
				q.Enqueue(h, box(int64(w*1000+i)))
				q.Dequeue(h)
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	for i, h := range q.handles {
		if h.Registered() {
			t.Errorf("handle %d still registered after storm", i)
		}
		if statePending(atomic.LoadUint64(&h.enqReq.state)) {
			t.Errorf("retired handle %d has pending enqueue request", i)
		}
		if statePending(atomic.LoadUint64(&h.deqReq.state)) {
			t.Errorf("retired handle %d has pending dequeue request", i)
		}
		if got := atomic.LoadInt64(&h.hzdp); got != -1 {
			t.Errorf("retired handle %d hazard pointer = %d, want -1", i, got)
		}
	}
	// Drain whatever the churn left behind and check nothing was lost to a
	// recycled slot: total enqueues must equal dequeues + remaining.
	h := mustRegister(t, q)
	for {
		if _, ok := q.Dequeue(h); !ok {
			break
		}
	}
	st := q.Stats()
	enq := st.EnqFast + st.EnqSlow
	deq := st.DeqFast + st.DeqSlow
	if enq != deq {
		t.Errorf("enqueues = %d, dequeues = %d after full drain", enq, deq)
	}
	h.Release()
}

// TestHandlePoolABAGeneration: the tagged head advances its generation on
// every successful pop, so a slot cycling through acquire/release never
// reuses a head word (the ABA defense).
func TestHandlePoolABAGeneration(t *testing.T) {
	q := New(2)
	prevGen := q.hfree.Load() >> handleIdxBits
	for i := 0; i < 64; i++ {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		gen := q.hfree.Load() >> handleIdxBits
		if gen <= prevGen {
			t.Fatalf("cycle %d: generation %d did not advance past %d", i, gen, prevGen)
		}
		prevGen = gen
		h.Release()
	}
}

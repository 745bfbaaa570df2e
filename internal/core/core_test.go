package core

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// box converts a small integer into a stable pointer for the queue.
func box(v int64) unsafe.Pointer {
	p := new(int64)
	*p = v
	return unsafe.Pointer(p)
}

func unbox(p unsafe.Pointer) int64 { return *(*int64)(p) }

func mustRegister(t testing.TB, q *Queue) *Handle {
	t.Helper()
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestStatePacking(t *testing.T) {
	f := func(idRaw uint64, pending bool) bool {
		id := int64(idRaw &^ (1 << 63)) // any 63-bit id
		s := packState(pending, id)
		return statePending(s) == pending && stateID(s) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSequentialFIFO(t *testing.T) {
	for _, patience := range []int{0, 1, 10} {
		q := New(4, WithPatience(patience))
		h := mustRegister(t, q)
		const n = 1000
		for i := int64(0); i < n; i++ {
			q.Enqueue(h, box(i))
		}
		for i := int64(0); i < n; i++ {
			v, ok := q.Dequeue(h)
			if !ok {
				t.Fatalf("patience=%d: dequeue %d: unexpectedly empty", patience, i)
			}
			if got := unbox(v); got != i {
				t.Fatalf("patience=%d: dequeue %d: got %d", patience, i, got)
			}
		}
		if _, ok := q.Dequeue(h); ok {
			t.Fatalf("patience=%d: drained queue should be empty", patience)
		}
	}
}

func TestEmptyQueue(t *testing.T) {
	q := New(2)
	h := mustRegister(t, q)
	for i := 0; i < 10; i++ {
		if _, ok := q.Dequeue(h); ok {
			t.Fatal("empty queue returned a value")
		}
	}
	// The queue must still work after empty dequeues consumed cells.
	q.Enqueue(h, box(42))
	v, ok := q.Dequeue(h)
	if !ok || unbox(v) != 42 {
		t.Fatalf("got (%v,%v), want 42", v, ok)
	}
}

func TestInterleavedEmptyAndValues(t *testing.T) {
	q := New(2, WithSegmentShift(2)) // tiny segments to cross boundaries
	h := mustRegister(t, q)
	next := int64(0)
	for round := 0; round < 200; round++ {
		if round%3 == 0 {
			if _, ok := q.Dequeue(h); ok {
				t.Fatalf("round %d: queue should be empty", round)
			}
		}
		q.Enqueue(h, box(next))
		v, ok := q.Dequeue(h)
		if !ok || unbox(v) != next {
			t.Fatalf("round %d: got (%v,%v), want %d", round, v, ok, next)
		}
		next++
	}
}

// Property: any single-threaded interleaving of enqueues and dequeues
// behaves exactly like a slice model, across patience levels and segment
// sizes.
func TestQuickAgainstModel(t *testing.T) {
	type cfg struct {
		patience int
		shift    uint
	}
	for _, c := range []cfg{{0, 1}, {0, 4}, {10, 2}, {10, 10}} {
		c := c
		f := func(ops []byte) bool {
			q := New(2, WithPatience(c.patience), WithSegmentShift(c.shift), WithMaxGarbage(1))
			h, err := q.Register()
			if err != nil {
				return false
			}
			var model []int64
			next := int64(1)
			for _, op := range ops {
				if op%2 == 0 {
					q.Enqueue(h, box(next))
					model = append(model, next)
					next++
				} else {
					v, ok := q.Dequeue(h)
					if len(model) == 0 {
						if ok {
							return false
						}
					} else {
						if !ok || unbox(v) != model[0] {
							return false
						}
						model = model[1:]
					}
				}
			}
			// Drain and compare the remainder.
			for _, want := range model {
				v, ok := q.Dequeue(h)
				if !ok || unbox(v) != want {
					return false
				}
			}
			_, ok := q.Dequeue(h)
			return !ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("patience=%d shift=%d: %v", c.patience, c.shift, err)
		}
	}
}

// produceConsume runs P producers and C consumers moving total values and
// validates: no loss, no duplication, and per-producer FIFO order.
func produceConsume(t *testing.T, q *Queue, producers, consumers, perProducer int) {
	t.Helper()
	total := producers * perProducer

	// Values encode (producer, seq): producer*2^32 + seq.
	results := make([][]int64, consumers)
	var wg sync.WaitGroup

	for p := 0; p < producers; p++ {
		h := mustRegister(t, q)
		wg.Add(1)
		go func(p int, h *Handle) {
			defer wg.Done()
			defer h.Release()
			for s := 0; s < perProducer; s++ {
				q.Enqueue(h, box(int64(p)<<32|int64(s)))
			}
		}(p, h)
	}

	var consumed sync.WaitGroup
	var got int64
	var gotMu sync.Mutex
	for c := 0; c < consumers; c++ {
		h := mustRegister(t, q)
		consumed.Add(1)
		go func(c int, h *Handle) {
			defer consumed.Done()
			defer h.Release()
			local := make([]int64, 0, total/consumers+1)
			for {
				gotMu.Lock()
				if got >= int64(total) {
					gotMu.Unlock()
					break
				}
				gotMu.Unlock()
				v, ok := q.Dequeue(h)
				if !ok {
					runtime.Gosched()
					continue
				}
				local = append(local, unbox(v))
				gotMu.Lock()
				got++
				gotMu.Unlock()
			}
			results[c] = local
		}(c, h)
	}

	wg.Wait()
	consumed.Wait()

	// Validate: exactly one occurrence of each value; per-producer order
	// within each consumer is increasing (FIFO implies it).
	seen := make(map[int64]bool, total)
	for c, local := range results {
		lastSeq := make(map[int64]int64)
		for _, v := range local {
			if seen[v] {
				t.Fatalf("value %d dequeued twice", v)
			}
			seen[v] = true
			p, s := v>>32, v&0xffffffff
			if last, ok := lastSeq[p]; ok && s <= last {
				t.Fatalf("consumer %d: producer %d order violation: %d after %d", c, p, s, last)
			}
			lastSeq[p] = s
		}
	}
	if len(seen) != total {
		t.Fatalf("dequeued %d distinct values, want %d", len(seen), total)
	}
	if _, ok := q.Dequeue(mustRegister(t, q)); ok {
		t.Fatal("queue should be drained")
	}
}

func TestConcurrentMPMC(t *testing.T) {
	per := 20000
	if testing.Short() {
		per = 2000
	}
	q := New(16)
	produceConsume(t, q, 4, 4, per)
}

func TestConcurrentMPMCPatienceZero(t *testing.T) {
	per := 10000
	if testing.Short() {
		per = 1000
	}
	q := New(16, WithPatience(0))
	produceConsume(t, q, 4, 4, per)
}

func TestConcurrentTinySegments(t *testing.T) {
	per := 5000
	if testing.Short() {
		per = 500
	}
	q := New(16, WithSegmentShift(2), WithMaxGarbage(1))
	produceConsume(t, q, 4, 4, per)
}

func TestConcurrentRecycling(t *testing.T) {
	per := 5000
	if testing.Short() {
		per = 500
	}
	q := New(16, WithSegmentShift(2), WithMaxGarbage(1), WithRecycling(true))
	produceConsume(t, q, 4, 4, per)
	if q.ReclaimedSegments() == 0 {
		t.Error("tiny segments with MaxGarbage=1 should have reclaimed segments")
	}
}

// TestConcurrentRemappedSegments is TestConcurrentRecycling at shift 4, the
// smallest segment where findCell's slot map is active on 64-bit targets,
// with patience 0 so helpers reach the slow path through remapped cells.
func TestConcurrentRemappedSegments(t *testing.T) {
	per := 5000
	if testing.Short() {
		per = 500
	}
	q := New(16, WithSegmentShift(4), WithMaxGarbage(1), WithRecycling(true), WithPatience(0))
	if q.slotRot == 0 && unsafe.Sizeof(uintptr(0)) == 8 {
		t.Fatal("slot map inactive at shift 4")
	}
	produceConsume(t, q, 4, 4, per)
	if q.ReclaimedSegments() == 0 {
		t.Error("16-cell segments with MaxGarbage=1 should have reclaimed segments")
	}
}

func TestOversubscribed(t *testing.T) {
	per := 2000
	if testing.Short() {
		per = 300
	}
	n := 4 * runtime.GOMAXPROCS(0)
	q := New(2 * n)
	produceConsume(t, q, n, n, per)
}

func TestRegisterExhaustionAndRelease(t *testing.T) {
	q := New(2)
	h1 := mustRegister(t, q)
	h2 := mustRegister(t, q)
	if _, err := q.Register(); err == nil {
		t.Fatal("third Register should fail")
	}
	h1.Release()
	h3 := mustRegister(t, q)
	q.Enqueue(h3, box(1))
	q.Enqueue(h2, box(2))
	if v, ok := q.Dequeue(h3); !ok || unbox(v) != 1 {
		t.Fatal("reused handle broken")
	}
	h2.Release()
	h3.Release()
}

// TestReleaseIdempotent: a second Release of the same handle epoch is a
// no-op (the finalizer path of the public API can race an explicit
// Release), and the slot is handed out exactly once afterwards.
func TestReleaseIdempotent(t *testing.T) {
	q := New(1)
	h := mustRegister(t, q)
	h.Release()
	h.Release() // must not panic, must not double-free the slot
	h2 := mustRegister(t, q)
	if h2 != h {
		t.Fatal("expected the single slot back")
	}
	// The double Release above must not have pushed the slot twice.
	if _, err := q.Register(); err == nil {
		t.Fatal("double Release duplicated the free slot")
	}
	if !h2.Registered() {
		t.Fatal("acquired handle reports unregistered")
	}
	h2.Release()
	if h2.Registered() {
		t.Fatal("released handle reports registered")
	}
}

func TestEnqueueNilPanics(t *testing.T) {
	q := New(1)
	h := mustRegister(t, q)
	defer func() {
		if recover() == nil {
			t.Fatal("Enqueue(nil) should panic")
		}
	}()
	q.Enqueue(h, nil)
}

func TestSizeApproximation(t *testing.T) {
	q := New(1)
	h := mustRegister(t, q)
	if q.Size() != 0 {
		t.Fatalf("new queue size = %d", q.Size())
	}
	for i := int64(0); i < 5; i++ {
		q.Enqueue(h, box(i))
	}
	if q.Size() != 5 {
		t.Fatalf("size = %d, want 5", q.Size())
	}
	q.Dequeue(h)
	if q.Size() != 4 {
		t.Fatalf("size = %d, want 4", q.Size())
	}
	// Empty dequeues advance H past T; Size must clamp at 0.
	for i := 0; i < 10; i++ {
		q.Dequeue(h)
	}
	if q.Size() != 0 {
		t.Fatalf("size = %d, want 0 after draining", q.Size())
	}
}

func TestStatsAccounting(t *testing.T) {
	q := New(2)
	h := mustRegister(t, q)
	const n = 100
	for i := int64(0); i < n; i++ {
		q.Enqueue(h, box(i))
	}
	for i := 0; i < n; i++ {
		q.Dequeue(h)
	}
	q.Dequeue(h) // one EMPTY
	st := q.Stats()
	if st.EnqFast+st.EnqSlow != n {
		t.Errorf("enqueues accounted %d+%d, want %d", st.EnqFast, st.EnqSlow, n)
	}
	if st.DeqFast+st.DeqSlow+st.DeqEmpty < n+1 {
		t.Errorf("dequeues accounted %d+%d+%d, want >= %d",
			st.DeqFast, st.DeqSlow, st.DeqEmpty, n+1)
	}
	if st.DeqEmpty == 0 {
		t.Error("expected at least one EMPTY dequeue")
	}
}

func TestOptionClamping(t *testing.T) {
	q := New(0, WithPatience(-5), WithSegmentShift(0), WithMaxGarbage(0))
	if q.Capacity() != 1 {
		t.Errorf("capacity = %d, want 1", q.Capacity())
	}
	if q.Patience() != 0 {
		t.Errorf("patience = %d, want 0", q.Patience())
	}
	if q.SegmentSize() != 2 {
		t.Errorf("segment size = %d, want 2", q.SegmentSize())
	}
	h := mustRegister(t, q)
	q.Enqueue(h, box(7))
	if v, ok := q.Dequeue(h); !ok || unbox(v) != 7 {
		t.Fatal("clamped queue must still work")
	}
}

// TestKnobsClampToCertifiedCaps pins the caps the wait-freedom certificate
// substitutes for PATIENCE and MAX_SPIN: no option value can build a queue
// whose step bounds exceed the certified ones.
func TestKnobsClampToCertifiedCaps(t *testing.T) {
	if got := New(1, WithPatience(100)).Patience(); got != PatienceCap {
		t.Errorf("WithPatience(100): Patience = %d, want PatienceCap = %d", got, PatienceCap)
	}
	if got := New(1, WithMaxSpin(1<<24)).MaxSpin(); got != MaxSpinCap {
		t.Errorf("WithMaxSpin(1<<24): MaxSpin = %d, want MaxSpinCap = %d", got, MaxSpinCap)
	}
	if got := New(1, WithPatience(PatienceCap)).Patience(); got != PatienceCap {
		t.Errorf("WithPatience(PatienceCap): Patience = %d", got)
	}
	if got := New(1, WithMaxSpin(MaxSpinCap)).MaxSpin(); got != MaxSpinCap {
		t.Errorf("WithMaxSpin(MaxSpinCap): MaxSpin = %d", got)
	}
}

func TestStringer(t *testing.T) {
	q := New(3)
	if s := q.String(); s == "" {
		t.Error("String() empty")
	}
}

// A slow consumer must not be starved: with patience 0 every operation
// exercises helping, and the run must still terminate with all values
// accounted for. This is the wait-freedom smoke test — under a lock-free
// but non-wait-free design a pathological schedule could starve a thread,
// which we cannot force deterministically, but helping-path coverage
// under heavy contention is the practical proxy.
func TestHelpingPathsExercised(t *testing.T) {
	if testing.Short() {
		t.Skip("contention test")
	}
	q := New(32, WithPatience(0))
	produceConsume(t, q, 8, 8, 5000)
	st := q.Stats()
	if st.EnqSlow == 0 && st.DeqSlow == 0 {
		t.Log("warning: no slow-path operations recorded; contention too low to exercise helping")
	}
}

// Handles released and re-registered while a peer runs traffic: released
// handles stay in the helping ring (helpers must skip them gracefully), and
// re-registration hands out clean state. The churner only enqueues sentinel
// values — if it also dequeued, it could legitimately consume the worker's
// values and the worker's strict accounting below would block forever.
func TestHandleChurnUnderTraffic(t *testing.T) {
	per := 10000
	churns := 2000
	if testing.Short() {
		per, churns = 1000, 200
	}
	q := New(4, WithPatience(0))
	worker := mustRegister(t, q)

	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; i < churns; i++ {
			h, err := q.Register()
			if err != nil {
				runtime.Gosched()
				continue
			}
			q.Enqueue(h, box(-1))
			h.Release()
		}
	}()

	last := int64(-1)
	got := 0
	for i := 0; i < per; i++ {
		q.Enqueue(worker, box(int64(i)))
		for {
			v, ok := q.Dequeue(worker)
			if !ok {
				runtime.Gosched()
				continue
			}
			if n := unbox(v); n >= 0 { // skip churner sentinels
				if n <= last {
					t.Fatalf("order violation: %d after %d", n, last)
				}
				last = n
				got++
				break
			}
		}
	}
	<-churnDone
	if got != per {
		t.Fatalf("got %d of %d own values", got, per)
	}
}

package scq

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// boxes for pointer currency in tests.
func box(v uint64) unsafe.Pointer { b := new(uint64); *b = v; return unsafe.Pointer(b) }
func unbox(p unsafe.Pointer) uint64 {
	if p == nil {
		panic("nil value")
	}
	return *(*uint64)(p)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8); err == nil {
		t.Error("maxHandles 0 accepted")
	}
	if _, err := New(1, 0); err == nil {
		t.Error("capacity 0 accepted")
	}
	q, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Capacity() != MinCapacity {
		t.Errorf("capacity 1 rounded to %d, want %d", q.Capacity(), MinCapacity)
	}
	q, err = New(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if q.Capacity() != 128 {
		t.Errorf("capacity 100 rounded to %d, want 128", q.Capacity())
	}
	if q.MaxHandles() != 3 {
		t.Errorf("MaxHandles = %d, want 3", q.MaxHandles())
	}
}

func TestRemapIsPermutation(t *testing.T) {
	for order := uint(ringMinOrder); order <= 10; order++ {
		r := &ring{}
		r.initRing(order, false)
		seen := make(map[uint64]bool)
		for i := uint64(0); i < uint64(1)<<order; i++ {
			j := r.remap(i)
			if j >= uint64(1)<<order {
				t.Fatalf("order %d: remap(%d) = %d out of range", order, i, j)
			}
			if seen[j] {
				t.Fatalf("order %d: remap collision at %d", order, i)
			}
			seen[j] = true
		}
	}
}

// TestRingFullInit proves the free ring's initial state hands out 0..n-1 in
// order and then reports empty.
func TestRingFullInit(t *testing.T) {
	r := &ring{}
	r.initRing(4, true) // capacity 8
	for want := uint64(0); want < 8; want++ {
		idx, ok, exhausted := r.dequeue(0)
		if !ok || exhausted {
			t.Fatalf("dequeue %d: ok=%v exhausted=%v", want, ok, exhausted)
		}
		if idx != want {
			t.Fatalf("dequeue returned %d, want %d", idx, want)
		}
	}
	if _, ok, _ := r.dequeue(0); ok {
		t.Fatal("dequeue succeeded on drained ring")
	}
}

// TestRingWrap drives a small ring through many cycles sequentially.
func TestRingWrap(t *testing.T) {
	r := &ring{}
	r.initRing(ringMinOrder, false) // capacity 4
	for round := uint64(0); round < 1000; round++ {
		for i := uint64(0); i < 4; i++ {
			r.enqueue((round + i) % 4)
		}
		for i := uint64(0); i < 4; i++ {
			idx, ok, _ := r.dequeue(0)
			if !ok {
				t.Fatalf("round %d: premature empty", round)
			}
			if idx != (round+i)%4 {
				t.Fatalf("round %d: got %d want %d", round, idx, (round+i)%4)
			}
		}
		if _, ok, _ := r.dequeue(0); ok {
			t.Fatalf("round %d: ring not empty after drain", round)
		}
	}
}

// TestFullQueueSemantics is the sequential backpressure contract: fill to
// capacity, observe ErrFull, drain one, retry succeeds, FIFO throughout.
func TestFullQueueSemantics(t *testing.T) {
	q, err := New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()

	for i := uint64(0); i < 8; i++ {
		if err := h.TryEnqueue(box(i)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := h.TryEnqueue(box(99)); !errors.Is(err, ErrFull) {
		t.Fatalf("enqueue at capacity: err=%v, want ErrFull", err)
	}
	if q.Size() != 8 {
		t.Errorf("Size = %d, want 8", q.Size())
	}

	v, ok := h.Dequeue()
	if !ok || unbox(v) != 0 {
		t.Fatalf("dequeue after full: %v %v", v, ok)
	}
	if err := h.TryEnqueue(box(8)); err != nil {
		t.Fatalf("retry after drain-one: %v", err)
	}
	for want := uint64(1); want <= 8; want++ {
		v, ok := h.Dequeue()
		if !ok || unbox(v) != want {
			t.Fatalf("drain: got (%v,%v), want %d", v, ok, want)
		}
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("dequeue succeeded on empty queue")
	}
	st := q.Stats()
	if st["enq_full"] == 0 {
		t.Errorf("enq_full counter not bumped: %v", st)
	}
}

func TestRegisterRelease(t *testing.T) {
	q, err := New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Register(); !errors.Is(err, ErrTooManyHandles) {
		t.Fatalf("third Register: %v, want ErrTooManyHandles", err)
	}
	h1.Release()
	h3, err := q.Register()
	if err != nil {
		t.Fatalf("Register after Release: %v", err)
	}
	h3.Release()
	h2.Release()
}

// TestMPMC is the loss/duplication battery: values encode (producer,seq),
// consumers check per-producer order, totals must balance.
func TestMPMC(t *testing.T) {
	const (
		producers = 3
		consumers = 3
		perProd   = 20000
	)
	q, err := New(producers+consumers, 64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var consumed atomic.Int64
	var dups atomic.Int64
	seen := make([][]atomic.Bool, producers)
	for p := range seen {
		seen[p] = make([]atomic.Bool, perProd)
	}
	lastSeq := make([][]int64, consumers) // per-consumer per-producer order
	for c := range lastSeq {
		lastSeq[c] = make([]int64, producers)
		for p := range lastSeq[c] {
			lastSeq[c][p] = -1
		}
	}
	var orderViolations atomic.Int64
	done := make(chan struct{})

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
			for s := 0; s < perProd; s++ {
				v := box(uint64(p)<<32 | uint64(s))
				for h.TryEnqueue(v) != nil {
					runtime.Gosched()
				}
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h, err := q.Register()
			if err != nil {
				t.Error(err)
				return
			}
			defer h.Release()
			for {
				v, ok := h.Dequeue()
				if !ok {
					select {
					case <-done:
						// Final drain: one more pass after everything was
						// consumed elsewhere, then exit.
						for {
							v, ok := h.Dequeue()
							if !ok {
								return
							}
							record(unbox(v), c, seen, lastSeq, &dups, &orderViolations, &consumed)
						}
					default:
						runtime.Gosched()
						continue
					}
				}
				record(unbox(v), c, seen, lastSeq, &dups, &orderViolations, &consumed)
			}
		}(c)
	}

	// Release the consumers once every produced value was consumed.
	go func() {
		for consumed.Load() < producers*perProd {
			runtime.Gosched()
		}
		close(done)
	}()
	wg.Wait()

	if n := consumed.Load(); n != producers*perProd {
		t.Errorf("consumed %d, want %d", n, producers*perProd)
	}
	if d := dups.Load(); d != 0 {
		t.Errorf("%d duplicated values", d)
	}
	if o := orderViolations.Load(); o != 0 {
		t.Errorf("%d per-producer order violations", o)
	}
	for p := range seen {
		for s := range seen[p] {
			if !seen[p][s].Load() {
				t.Fatalf("lost value p=%d s=%d", p, s)
			}
		}
	}
}

func record(v uint64, c int, seen [][]atomic.Bool, lastSeq [][]int64, dups, orderViolations *atomic.Int64, consumed *atomic.Int64) {
	p := int(v >> 32)
	s := int64(v & 0xffffffff)
	if seen[p][s].Swap(true) {
		dups.Add(1)
	}
	if s <= lastSeq[c][p] {
		orderViolations.Add(1)
	}
	lastSeq[c][p] = s
	consumed.Add(1)
}

// TestHelpingDonation drives the request-word protocol deterministically:
// a peer with a published request receives the value an active dequeuer
// removes on its behalf, and the donor's own operation then reports EMPTY.
func TestHelpingDonation(t *testing.T) {
	q, err := New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := q.Register()
	helper, _ := q.Register()
	defer owner.Release()
	defer helper.Release()

	if err := helper.TryEnqueue(box(42)); err != nil {
		t.Fatal(err)
	}

	// Publish a request on owner's behalf, as dequeueSlow would.
	epoch := q.epoch.Add(1)
	published := epoch<<q.reqBits | reqAwait
	owner.deqReq.Store(published)
	q.pendingDeqs.Add(1)

	// The helper's next Dequeue must help first: it removes 42 for the
	// owner, donates it, and its own attempt then observes EMPTY.
	if v, ok := helper.Dequeue(); ok {
		t.Fatalf("helper kept the value (%d) instead of donating", unbox(v))
	}

	w := owner.deqReq.Load()
	marker := w & (1<<q.reqBits - 1)
	if marker < reqDonated {
		t.Fatalf("owner word %#x: marker %d, want a donation", w, marker)
	}
	if w>>q.reqBits != epoch {
		t.Fatalf("owner word epoch %d, want %d", w>>q.reqBits, epoch)
	}
	// Consume as the owner would.
	q.pendingDeqs.Add(-1)
	owner.deqReq.Store(reqIdle)
	if got := unbox(owner.takeVal(marker - reqDonated)); got != 42 {
		t.Fatalf("donated value %d, want 42", got)
	}
	st := q.Stats()
	if st["help_donated"] != 1 {
		t.Errorf("help_donated = %d, want 1: %v", st["help_donated"], st)
	}
}

// TestHelpingEmptyWitness: with an empty ring, a helper donates a sound
// EMPTY verdict to the pending peer.
func TestHelpingEmptyWitness(t *testing.T) {
	q, err := New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := q.Register()
	helper, _ := q.Register()
	defer owner.Release()
	defer helper.Release()

	epoch := q.epoch.Add(1)
	owner.deqReq.Store(epoch<<q.reqBits | reqAwait)
	q.pendingDeqs.Add(1)

	if _, ok := helper.Dequeue(); ok {
		t.Fatal("helper dequeued from an empty queue")
	}
	w := owner.deqReq.Load()
	if w&(1<<q.reqBits-1) != reqEmpty {
		t.Fatalf("owner word %#x, want an EMPTY donation", w)
	}
	q.pendingDeqs.Add(-1)
	owner.deqReq.Store(reqIdle)
}

// TestStatsKeys pins the Stats surface the registry adapter exposes.
func TestStatsKeys(t *testing.T) {
	q, _ := New(1, 8)
	st := q.Stats()
	for _, k := range []string{"enq", "enq_full", "deq_fast", "deq_slow", "deq_empty", "help_scans", "help_donated", "deq_donations"} {
		if _, ok := st[k]; !ok {
			t.Errorf("Stats missing key %q: %v", k, st)
		}
	}
}

// TestChurn registers and releases through the pool from many goroutines
// while operating, proving the generation-tagged free list recycles slots.
func TestChurn(t *testing.T) {
	q, err := New(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h, err := q.Register()
				if err != nil {
					runtime.Gosched()
					continue
				}
				if h.TryEnqueue(box(uint64(g))) == nil {
					h.Dequeue()
				}
				h.Release()
			}
		}(g)
	}
	wg.Wait()
	// Pool must be whole: exactly maxHandles registrations available.
	hs := make([]*Handle, 0, 4)
	for {
		h, err := q.Register()
		if err != nil {
			break
		}
		hs = append(hs, h)
	}
	if len(hs) != 4 {
		t.Errorf("pool holds %d handles after churn, want 4", len(hs))
	}
	for _, h := range hs {
		h.Release()
	}
}

func TestSizeEstimate(t *testing.T) {
	q, _ := New(1, 16)
	h, _ := q.Register()
	defer h.Release()
	for i := 0; i < 5; i++ {
		if err := h.TryEnqueue(box(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Size(); got != 5 {
		t.Errorf("Size = %d, want 5", got)
	}
	if st := q.Stats(); st["enq"] != 5 {
		t.Errorf("enq counter = %d, want 5", st["enq"])
	}
}

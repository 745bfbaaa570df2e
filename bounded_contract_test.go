package wfqueue_test

// The bounded façade against its contract: a sequential model fuzzer (one
// thread, nothing in flight, so ErrFull and EMPTY are exact), recorded
// concurrent histories checked under the in-flight FULL rule, and the
// stalled-consumer adversary: flat retention on the bounded façade, against
// the unbounded façade's growth with every value.

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"wfqueue"
	"wfqueue/internal/lincheck"
	"wfqueue/internal/workload"
)

// maxBoundedFuzzOps caps the op stream of one FuzzBoundedAgainstModel input.
const maxBoundedFuzzOps = 4096

// FuzzBoundedAgainstModel checks coverage-guided op streams against a
// bounded-slice model. data[0] picks the requested capacity (1..32, so the
// queue fills cheaply); each remaining byte is one op, TryEnqueue when its
// low bit is clear, else Dequeue. In one thread no operation is in flight,
// so TryEnqueue must fail exactly when the model holds Capacity() values,
// Dequeue must report EMPTY exactly when it holds none, and Len must match
// it. Enqueued values are the op positions, so a lost, duplicated or
// reordered value cannot match.
func FuzzBoundedAgainstModel(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{4, 0, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 1})
	f.Add(append([]byte{31}, make([]byte, 40)...))
	// Alternating pairs: 4095 ops cross two boundaries of the core's
	// 1024-cell segments.
	alt := make([]byte, maxBoundedFuzzOps)
	for i := range alt {
		alt[i] = byte(i & 1)
	}
	f.Add(alt)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capReq := int(data[0]&31) + 1
		data = data[1:]
		if len(data) > maxBoundedFuzzOps {
			data = data[:maxBoundedFuzzOps]
		}
		q, h := mustBounded[uint64](t, 1, capReq)
		defer h.Release()
		c := q.Capacity()
		var model []uint64
		for i, b := range data {
			if b&1 == 0 {
				err := h.TryEnqueue(uint64(i))
				switch {
				case len(model) < c && err != nil:
					t.Fatalf("cap %d op %d: TryEnqueue failed with %d/%d queued: %v", c, i, len(model), c, err)
				case len(model) < c:
					model = append(model, uint64(i))
				case !errors.Is(err, wfqueue.ErrFull):
					t.Fatalf("cap %d op %d: TryEnqueue on a full queue returned %v, want ErrFull", c, i, err)
				}
			} else {
				v, ok := h.Dequeue()
				switch {
				case len(model) == 0 && ok:
					t.Fatalf("cap %d op %d: dequeued %d from an empty queue", c, i, v)
				case len(model) == 0:
				case !ok:
					t.Fatalf("cap %d op %d: EMPTY with %d queued", c, i, len(model))
				case v != model[0]:
					t.Fatalf("cap %d op %d: dequeued %d, want %d", c, i, v, model[0])
				default:
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				t.Fatalf("cap %d op %d: Len = %d, want %d", c, i, q.Len(), len(model))
			}
		}
	})
}

// recordBoundedHistory drives a fresh capacity-4 queue with nthreads
// workers, each making opsPerThread TryEnqueue or Dequeue calls at a 3:1
// enqueue bias so the queue is often full, and returns the recorded
// history.
func recordBoundedHistory(t *testing.T, nthreads, opsPerThread int, seed uint64) (lincheck.History, int) {
	t.Helper()
	q, err := wfqueue.NewBounded[uint64](nthreads, 4)
	if err != nil {
		t.Fatal(err)
	}
	col := lincheck.NewCollector(nthreads)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < nthreads; i++ {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		log := col.Thread(i)
		rng := workload.NewRNG(seed + uint64(i)*977)
		done.Add(1)
		go func(i int, h *wfqueue.BoundedHandle[uint64]) {
			defer done.Done()
			defer h.Release()
			start.Wait()
			for k := 0; k < opsPerThread; k++ {
				if rng.Next()%4 != 0 {
					v := uint64(i)<<32 | uint64(k) + 1
					log.TryEnq(v, func() bool { return h.TryEnqueue(v) == nil })
				} else {
					log.Deq(h.Dequeue)
				}
			}
		}(i, h)
	}
	start.Done()
	done.Wait()
	return col.History(), q.Capacity()
}

// TestBoundedLinearizability checks recorded concurrent histories with
// lincheck.CheckBoundedInFlight: no state may hold more than Capacity()
// values, and every ErrFull must be explained by the queued values plus the
// operations overlapping it (DESIGN.md §7).
func TestBoundedLinearizability(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	fulls := 0
	check := func(nthreads, opsPerThread int, seed uint64) {
		h, c := recordBoundedHistory(t, nthreads, opsPerThread, seed)
		for _, op := range h {
			if op.Kind == lincheck.TryEnqFull {
				fulls++
			}
		}
		ok, err := lincheck.CheckBoundedInFlight(h, c)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("cap %d: non-linearizable bounded history:\n%v", c, h)
		}
	}
	for trial := 0; trial < trials; trial++ {
		check(3, 6, uint64(trial)*131+7)
	}
	for trial := 0; trial < trials/4; trial++ {
		check(6, 3, uint64(trial)*733+1)
	}
	if fulls == 0 {
		t.Error("no history recorded an ErrFull; the FULL rule went unchecked")
	}
}

// TestBoundedStall is the stalled-consumer adversary on each façade: two
// producers make 200k enqueue attempts each (TryEnqueue on the bounded
// façade) while the consumer is parked between operations, and the drain
// must recover exactly what was accepted. The unbounded Queue accepts every
// value and its live heap grows by at least 256 KiB; the BoundedQueue's
// accepts stop at Capacity(), every rejection counts in enq_full, and its
// live heap grows by at most 128 KiB.
func TestBoundedStall(t *testing.T) {
	const producers, warmPairs, attempts = 2, 2048, 200_000
	for _, f := range facades(t, producers+1) {
		t.Run(f.name, func(t *testing.T) { runStall(t, f, producers, warmPairs, attempts) })
	}
}

// runStall drives one façade through TestBoundedStall's adversary.
func runStall(t *testing.T, f facade, producers, warmPairs, attempts int) {
	consumer, err := f.register()
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Release()
	hs := make([]facadeHandle, producers)
	for p := range hs {
		if hs[p], err = f.register(); err != nil {
			t.Fatal(err)
		}
		defer hs[p].Release()
	}
	// offer enqueues v, through TryEnqueue on the bounded façade, and
	// reports whether the queue accepted it.
	offer := func(h facadeHandle, v int) bool {
		if b, ok := h.(interface{ TryEnqueue(int) error }); ok {
			return b.TryEnqueue(v) == nil
		}
		h.Enqueue(v)
		return true
	}
	// Warm-up: pairs through every producer's handle, so the core's
	// segments and the value boxes reach steady state before the baseline.
	for i := 0; i < warmPairs; i++ {
		for p, h := range hs {
			if !offer(h, p*attempts+i) {
				t.Fatalf("warm-up round %d: enqueue rejected", i)
			}
		}
		for range hs {
			if _, ok := consumer.Dequeue(); !ok {
				t.Fatalf("warm-up round %d lost a value", i)
			}
		}
	}
	baseline := settledHeap()

	var accepted atomic.Uint64
	var wg sync.WaitGroup
	for p, h := range hs {
		wg.Add(1)
		go func(p int, h facadeHandle) {
			defer wg.Done()
			var n uint64
			for i := 0; i < attempts; i++ {
				if offer(h, p*attempts+i) {
					n++
				}
			}
			accepted.Add(n)
		}(p, h)
	}
	wg.Wait()
	stalled := settledHeap()

	var drained uint64
	for {
		if _, ok := consumer.Dequeue(); !ok {
			break
		}
		drained++
	}
	acc, offered := accepted.Load(), uint64(producers*attempts)
	switch {
	case f.capacity == 0 && acc != offered:
		t.Errorf("accepted %d of %d values on an unbounded queue", acc, offered)
	case f.capacity > 0 && acc > uint64(f.capacity):
		t.Errorf("accepted %d values into capacity %d", acc, f.capacity)
	case acc == 0:
		t.Error("the stalled queue accepted nothing")
	}
	if drained != acc {
		t.Errorf("drain mismatch: accepted %d drained %d", acc, drained)
	}
	if full := f.stats()["enq_full"]; full != offered-acc {
		t.Errorf("enq_full = %d, want the %d rejected attempts", full, offered-acc)
	}
	t.Logf("capacity %d: accepted %d, drained %d, live heap %d -> %d bytes", f.capacity, acc, drained, baseline, stalled)
	if raceEnabled {
		return
	}
	if f.capacity == 0 && stalled < baseline+256<<10 {
		t.Errorf("stall retained %d bytes of live heap for %d queued values, want at least 256 KiB",
			int64(stalled)-int64(baseline), acc)
	}
	if f.capacity > 0 && stalled > baseline+128<<10 {
		t.Errorf("stall retained %d bytes of live heap, want at most 128 KiB", stalled-baseline)
	}
}

// settledHeap forces collection and returns the live heap. Two GC cycles
// let finalizer-revived garbage settle before the read.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

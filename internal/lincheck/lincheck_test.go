package lincheck

import (
	"math/rand"
	"sync"
	"testing"
)

func mustCheck(t *testing.T, h History) bool {
	t.Helper()
	ok, err := Check(h)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestEmptyHistory(t *testing.T) {
	if !mustCheck(t, nil) {
		t.Error("empty history must be linearizable")
	}
}

func TestSequentialValid(t *testing.T) {
	h := History{
		{Kind: Enq, Value: 1, Start: 0, End: 1},
		{Kind: Enq, Value: 2, Start: 2, End: 3},
		{Kind: Deq, Value: 1, OK: true, Start: 4, End: 5},
		{Kind: Deq, Value: 2, OK: true, Start: 6, End: 7},
		{Kind: Deq, OK: false, Start: 8, End: 9},
	}
	if !mustCheck(t, h) {
		t.Error("valid sequential history rejected")
	}
}

func TestSequentialFIFOViolation(t *testing.T) {
	h := History{
		{Kind: Enq, Value: 1, Start: 0, End: 1},
		{Kind: Enq, Value: 2, Start: 2, End: 3},
		{Kind: Deq, Value: 2, OK: true, Start: 4, End: 5}, // LIFO!
		{Kind: Deq, Value: 1, OK: true, Start: 6, End: 7},
	}
	if mustCheck(t, h) {
		t.Error("LIFO history accepted")
	}
}

func TestConcurrentEnqueuesReorderable(t *testing.T) {
	h := History{
		{Kind: Enq, Value: 1, Start: 0, End: 10, Thread: 0},
		{Kind: Enq, Value: 2, Start: 5, End: 15, Thread: 1},
		{Kind: Deq, Value: 2, OK: true, Start: 20, End: 25},
		{Kind: Deq, Value: 1, OK: true, Start: 30, End: 35},
	}
	if !mustCheck(t, h) {
		t.Error("overlapping enqueues must be reorderable")
	}
}

func TestNonOverlappingEnqueuesOrdered(t *testing.T) {
	h := History{
		{Kind: Enq, Value: 1, Start: 0, End: 5},
		{Kind: Enq, Value: 2, Start: 10, End: 15},
		{Kind: Deq, Value: 2, OK: true, Start: 20, End: 25},
		{Kind: Deq, Value: 1, OK: true, Start: 30, End: 35},
	}
	if mustCheck(t, h) {
		t.Error("real-time enqueue order violated but history accepted")
	}
}

func TestFalseEmpty(t *testing.T) {
	h := History{
		{Kind: Enq, Value: 1, Start: 0, End: 5},
		{Kind: Deq, OK: false, Start: 10, End: 15}, // after the enqueue completed
	}
	if mustCheck(t, h) {
		t.Error("EMPTY after completed enqueue with no dequeue accepted")
	}
}

func TestEmptyOverlappingEnqueueOK(t *testing.T) {
	h := History{
		{Kind: Enq, Value: 1, Start: 0, End: 20, Thread: 0},
		{Kind: Deq, OK: false, Start: 5, End: 10, Thread: 1}, // may linearize before the enqueue
		{Kind: Deq, Value: 1, OK: true, Start: 30, End: 35, Thread: 1},
	}
	if !mustCheck(t, h) {
		t.Error("EMPTY concurrent with enqueue must be acceptable")
	}
}

func TestDuplicateDequeue(t *testing.T) {
	h := History{
		{Kind: Enq, Value: 1, Start: 0, End: 1},
		{Kind: Deq, Value: 1, OK: true, Start: 2, End: 3},
		{Kind: Deq, Value: 1, OK: true, Start: 4, End: 5},
	}
	if mustCheck(t, h) {
		t.Error("duplicated dequeue accepted")
	}
}

func TestDequeueOfNeverEnqueued(t *testing.T) {
	h := History{
		{Kind: Enq, Value: 1, Start: 0, End: 1},
		{Kind: Deq, Value: 7, OK: true, Start: 2, End: 3},
	}
	if mustCheck(t, h) {
		t.Error("dequeue of a value never enqueued accepted")
	}
}

func mustCheckInFlight(t *testing.T, h History, capacity int) bool {
	t.Helper()
	ok, err := CheckBoundedInFlight(h, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// TestBoundedFullVerdict: with nothing overlapping it, a rejection is legal
// exactly when the queue can hold capacity values at some linearization
// point inside its interval.
func TestBoundedFullVerdict(t *testing.T) {
	h := History{
		{Kind: Enq, Value: 1, Start: 0, End: 1},
		{Kind: Enq, Value: 2, Start: 2, End: 3},
		{Kind: TryEnqFull, Value: 3, Start: 4, End: 5},
		{Kind: Deq, Value: 1, OK: true, Start: 6, End: 7},
		{Kind: Enq, Value: 3, Start: 8, End: 9},
	}
	if !mustCheckInFlight(t, h, 2) {
		t.Error("legal full/drain-one/retry history rejected at capacity 2")
	}
	// At capacity 3 the same rejection is a false full verdict.
	if mustCheckInFlight(t, h, 3) {
		t.Error("false full verdict accepted at capacity 3")
	}
}

// TestBoundedOverAcceptance: more values in flight than capacity can never
// linearize.
func TestBoundedOverAcceptance(t *testing.T) {
	h := History{
		{Kind: Enq, Value: 1, Start: 0, End: 1},
		{Kind: Enq, Value: 2, Start: 2, End: 3},
		{Kind: Enq, Value: 3, Start: 4, End: 5},
	}
	if mustCheckInFlight(t, h, 2) {
		t.Error("three completed enqueues accepted at capacity 2")
	}
	if !mustCheckInFlight(t, h, 3) {
		t.Error("three completed enqueues rejected at capacity 3")
	}
}

// TestBoundedFullConcurrentDequeue: a rejection overlapping a dequeue may
// linearize before it (while still full) — the bounded analogue of
// TestEmptyOverlappingEnqueueOK.
func TestBoundedFullConcurrentDequeue(t *testing.T) {
	h := History{
		{Kind: Enq, Value: 1, Start: 0, End: 1, Thread: 0},
		{Kind: Deq, Value: 1, OK: true, Start: 2, End: 20, Thread: 1},
		{Kind: TryEnqFull, Value: 2, Start: 4, End: 6, Thread: 0},
	}
	if !mustCheckInFlight(t, h, 1) {
		t.Error("full verdict concurrent with the draining dequeue rejected")
	}
}

// TestTryEnqFullUnbounded: a full claim can never linearize under the
// unbounded checker.
func TestTryEnqFullUnbounded(t *testing.T) {
	h := History{{Kind: TryEnqFull, Value: 1, Start: 0, End: 1}}
	if mustCheck(t, h) {
		t.Error("unbounded Check accepted a TryEnqFull op")
	}
}

// TestBoundedInFlightEnqueue: one value queued and one enqueue in flight
// make a capacity-2 queue full under the in-flight rule, though the
// in-flight enqueue cannot linearize before the rejection (the EMPTY
// dequeue after it proves its value was not yet queued).
func TestBoundedInFlightEnqueue(t *testing.T) {
	h := History{
		{Kind: Enq, Value: 1, Start: 0, End: 1, Thread: 0},
		{Kind: Enq, Value: 2, Start: 10, End: 40, Thread: 1},
		{Kind: TryEnqFull, Value: 3, Start: 12, End: 14, Thread: 0},
		{Kind: Deq, Value: 1, OK: true, Start: 16, End: 18, Thread: 0},
		{Kind: Deq, OK: false, Start: 20, End: 22, Thread: 0},
		{Kind: Deq, Value: 2, OK: true, Start: 50, End: 52, Thread: 0},
	}
	if !mustCheckInFlight(t, h, 2) {
		t.Error("FULL overlapping an in-flight enqueue rejected")
	}
}

// TestBoundedInFlightTakenDequeue: a dequeue that has taken value 1 but not
// returned overlaps the rejection. The dequeue of 2 that completes before
// the rejection forces it to linearize first, so at the rejection only
// value 3 is queued and no overlapping operation is unlinearized. A
// counted queue returns FULL here (the slow dequeue still holds its unit),
// so the in-flight rule counts it anyway.
func TestBoundedInFlightTakenDequeue(t *testing.T) {
	h := History{
		{Kind: Enq, Value: 1, Start: 0, End: 1, Thread: 0},
		{Kind: Enq, Value: 2, Start: 2, End: 3, Thread: 0},
		{Kind: Deq, Value: 1, OK: true, Start: 4, End: 40, Thread: 1},
		{Kind: Deq, Value: 2, OK: true, Start: 10, End: 11, Thread: 0},
		{Kind: Enq, Value: 3, Start: 12, End: 13, Thread: 0},
		{Kind: TryEnqFull, Value: 4, Start: 14, End: 15, Thread: 0},
		{Kind: Deq, Value: 3, OK: true, Start: 50, End: 51, Thread: 0},
	}
	if !mustCheckInFlight(t, h, 2) {
		t.Error("FULL overlapping a dequeue that had taken its value rejected")
	}
}

// TestBoundedInFlightFalseFull: with nothing overlapping, FULL still needs
// capacity values queued; one overlapping operation makes up one value and
// no more.
func TestBoundedInFlightFalseFull(t *testing.T) {
	alone := History{
		{Kind: Enq, Value: 1, Start: 0, End: 1},
		{Kind: TryEnqFull, Value: 2, Start: 2, End: 3},
		{Kind: Deq, Value: 1, OK: true, Start: 4, End: 5},
	}
	if mustCheckInFlight(t, alone, 2) {
		t.Error("FULL with one value queued and nothing in flight accepted at capacity 2")
	}
	if !mustCheckInFlight(t, alone, 1) {
		t.Error("FULL with the queue exactly full rejected at capacity 1")
	}
	short := History{
		{Kind: Enq, Value: 1, Start: 0, End: 1, Thread: 0},
		{Kind: Deq, OK: false, Start: 2, End: 20, Thread: 1},
		{Kind: TryEnqFull, Value: 2, Start: 4, End: 6, Thread: 0},
	}
	if mustCheckInFlight(t, short, 3) {
		t.Error("FULL with one value queued and one operation in flight accepted at capacity 3")
	}
}

// TestBoundedInFlightOverAcceptance: the in-flight rule loosens FULL only;
// no state may hold more than capacity values, however much overlaps.
func TestBoundedInFlightOverAcceptance(t *testing.T) {
	h := History{
		{Kind: Enq, Value: 1, Start: 0, End: 10, Thread: 0},
		{Kind: Enq, Value: 2, Start: 0, End: 10, Thread: 1},
		{Kind: Enq, Value: 3, Start: 0, End: 10, Thread: 2},
		{Kind: TryEnqFull, Value: 4, Start: 0, End: 10, Thread: 3},
	}
	if mustCheckInFlight(t, h, 2) {
		t.Error("three concurrent accepted enqueues accepted at capacity 2")
	}
	if !mustCheckInFlight(t, h, 3) {
		t.Error("three concurrent accepted enqueues rejected at capacity 3")
	}
}

// TestBoundedInFlightWeakensStrict: the in-flight checker accepts every
// history of a strict bounded queue, whose FULL means exactly capacity
// values queued. Random legal sequential strict executions are smeared into
// overlapping intervals, as in TestRandomSmearedHistoriesAccepted.
func TestBoundedInFlightWeakensStrict(t *testing.T) {
	const capacity = 2
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var queue []uint64
		next := uint64(1)
		h := make(History, 0, 16)
		for i := 0; i < 4+rng.Intn(12); i++ {
			lin := int64(i * 100)
			start, end := lin-int64(rng.Intn(99)), lin+int64(rng.Intn(99))
			switch {
			case len(queue) > 0 && rng.Intn(3) == 0:
				h = append(h, Op{Kind: Deq, Value: queue[0], OK: true, Start: start, End: end})
				queue = queue[1:]
			case len(queue) == capacity:
				h = append(h, Op{Kind: TryEnqFull, Value: next, Start: start, End: end})
			default:
				h = append(h, Op{Kind: Enq, Value: next, Start: start, End: end})
				queue = append(queue, next)
				next++
			}
		}
		if !mustCheckInFlight(t, h, capacity) {
			t.Fatalf("trial %d: in-flight checker rejected a strictly legal history: %v", trial, h)
		}
	}
}

func TestCheckBoundedInFlightValidation(t *testing.T) {
	if _, err := CheckBoundedInFlight(nil, 0); err == nil {
		t.Error("CheckBoundedInFlight accepted capacity 0")
	}
}

// TestTryEnqRecording: the ThreadLog helper records accepts as Enq and
// rejections as TryEnqFull.
func TestTryEnqRecording(t *testing.T) {
	c := NewCollector(1)
	log := c.Thread(0)
	if !log.TryEnq(7, func() bool { return true }) {
		t.Fatal("TryEnq did not relay acceptance")
	}
	if log.TryEnq(8, func() bool { return false }) {
		t.Fatal("TryEnq did not relay rejection")
	}
	h := c.History()
	if len(h) != 2 || h[0].Kind != Enq || h[1].Kind != TryEnqFull || h[1].Value != 8 {
		t.Fatalf("recorded history %v", h)
	}
}

func TestTooLarge(t *testing.T) {
	h := make(History, MaxOps+1)
	for i := range h {
		h[i] = Op{Kind: Enq, Value: uint64(i), Start: int64(2 * i), End: int64(2*i + 1)}
	}
	if _, err := Check(h); err != ErrTooLarge {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

// Randomized soundness: build a random legal sequential execution, then
// expand each linearization point into a random enclosing interval (which
// only adds concurrency). The result must always be accepted.
func TestRandomSmearedHistoriesAccepted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nops := 4 + rng.Intn(14)
		var queue []uint64
		next := uint64(1)
		h := make(History, 0, nops)
		for i := 0; i < nops; i++ {
			lin := int64(i * 100)
			start := lin - int64(rng.Intn(99))
			end := lin + int64(rng.Intn(99))
			switch {
			case len(queue) == 0 && rng.Intn(3) == 0:
				h = append(h, Op{Kind: Deq, OK: false, Start: start, End: end})
			case len(queue) > 0 && rng.Intn(2) == 0:
				h = append(h, Op{Kind: Deq, Value: queue[0], OK: true, Start: start, End: end})
				queue = queue[1:]
			default:
				h = append(h, Op{Kind: Enq, Value: next, Start: start, End: end})
				queue = append(queue, next)
				next++
			}
		}
		if !mustCheck(t, h) {
			t.Fatalf("trial %d: smeared legal history rejected: %v", trial, h)
		}
	}
}

func TestCollectorRecordsIntervals(t *testing.T) {
	c := NewCollector(2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			log := c.Thread(i)
			log.Enq(uint64(i), func() {})
			log.Deq(func() (uint64, bool) { return uint64(i), true })
		}(i)
	}
	wg.Wait()
	h := c.History()
	if len(h) != 4 {
		t.Fatalf("history has %d ops, want 4", len(h))
	}
	for _, op := range h {
		if op.End < op.Start {
			t.Errorf("op %v has End < Start", op)
		}
	}
}

func TestOpString(t *testing.T) {
	ops := History{
		{Kind: Enq, Value: 3, Thread: 1},
		{Kind: Deq, Value: 3, OK: true},
		{Kind: Deq, OK: false},
	}
	for _, op := range ops {
		if op.String() == "" {
			t.Error("empty Op string")
		}
	}
}

func TestBatchRecording(t *testing.T) {
	c := NewCollector(1)
	log := c.Thread(0)
	log.EnqBatch([]uint64{1, 2, 3}, func() {})
	got := log.DeqBatch(func() []uint64 { return []uint64{1, 2} }, 2)
	if len(got) != 2 {
		t.Fatalf("DeqBatch returned %v", got)
	}
	// Short batch: 1 value back out of 2 asked -> one value op + one EMPTY.
	log.DeqBatch(func() []uint64 { return []uint64{3} }, 2)

	h := c.History()
	// 3 enq + 2 deq + (1 deq + 1 empty) = 7 ops.
	if len(h) != 7 {
		t.Fatalf("history has %d ops, want 7", len(h))
	}
	ok, err := Check(h)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("legal batched history rejected:\n%v", h)
	}
}

// A short DeqBatch claims an EMPTY observation; if values provably remained
// in the queue for the whole call the history must be rejected.
func TestBatchShortClaimRejected(t *testing.T) {
	h := History{
		// Three values enqueued, all before time 10.
		{Kind: Enq, Value: 1, Start: 0, End: 1, Thread: 0},
		{Kind: Enq, Value: 2, Start: 2, End: 3, Thread: 0},
		{Kind: Enq, Value: 3, Start: 4, End: 5, Thread: 0},
		// A batched dequeue of 2 that returned only value 1 and claimed
		// EMPTY — impossible: 2 and 3 are in the queue throughout.
		{Kind: Deq, Value: 1, OK: true, Start: 10, End: 12, Thread: 1},
		{Kind: Deq, OK: false, Start: 10, End: 12, Thread: 1},
	}
	ok, err := Check(h)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("impossible EMPTY claim accepted")
	}
}

// A batch that loses a value must be rejected: the enqueues are strictly
// ordered in real time, yet 2 never comes out while 3 does. (Within ONE
// batch the recorded intervals are identical, so the checker permits
// intra-batch reorderings — order across sequential operations is what it
// enforces, as here.)
func TestBatchLostValueRejected(t *testing.T) {
	h := History{
		{Kind: Enq, Value: 1, Start: 0, End: 1, Thread: 0},
		{Kind: Enq, Value: 2, Start: 2, End: 3, Thread: 0},
		{Kind: Enq, Value: 3, Start: 4, End: 5, Thread: 0},
		{Kind: Deq, Value: 1, OK: true, Start: 10, End: 12, Thread: 1},
		{Kind: Deq, Value: 3, OK: true, Start: 10, End: 12, Thread: 1},
	}
	ok, err := Check(h)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("history with a skipped FIFO value accepted")
	}
}

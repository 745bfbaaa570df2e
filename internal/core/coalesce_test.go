package core

// Tests of the transparent operation-coalescing layer: window clamping, the
// passthrough contract at window 1, single-FAA flushes, the op-count
// deadline, the never-EMPTY-while-holding-values invariant, the Release
// auto-flush, and coalesced MPMC correctness.

import (
	"sync"
	"testing"
	"unsafe"
)

// TestCoalesceWindowClamp pins the configuration contract: the window is
// clamped to [1, CoalesceMaxWindow] and defaults to 1.
func TestCoalesceWindowClamp(t *testing.T) {
	if got := New(1).CoalesceWindow(); got != 1 {
		t.Fatalf("default CoalesceWindow = %d, want 1", got)
	}
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {16, 16},
		{CoalesceMaxWindow, CoalesceMaxWindow},
		{CoalesceMaxWindow + 1, CoalesceMaxWindow},
		{1 << 20, CoalesceMaxWindow},
	} {
		if got := New(1, WithCoalescing(tc.in)).CoalesceWindow(); got != tc.want {
			t.Errorf("WithCoalescing(%d): window = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestCoalescePassthroughWindow1 pins the lincheck precondition: at window 1
// the coalesced entry points never buffer — each call is the plain
// operation, and the coalescing counters stay zero.
func TestCoalescePassthroughWindow1(t *testing.T) {
	q := New(2, WithCoalescing(1))
	h := mustRegister(t, q)
	for i := int64(1); i <= 100; i++ {
		q.CoalescedEnqueue(h, box(i))
		if h.Buffered() != 0 {
			t.Fatalf("window 1 buffered %d values", h.Buffered())
		}
	}
	if got := q.Size(); got != 100 {
		t.Fatalf("Size = %d after 100 passthrough enqueues, want 100", got)
	}
	for i := int64(1); i <= 100; i++ {
		v, ok := q.CoalescedDequeue(h)
		if !ok || unbox(v) != i {
			t.Fatalf("dequeue %d: got (%v,%v)", i, v, ok)
		}
		if h.Drained() != 0 {
			t.Fatalf("window 1 drained %d values into the buffer", h.Drained())
		}
	}
	st := q.Stats()
	if st.CoalesceFlushes != 0 || st.CoalesceRefills != 0 {
		t.Fatalf("window 1 touched coalescing: flushes=%d refills=%d", st.CoalesceFlushes, st.CoalesceRefills)
	}
}

// TestCoalesceFlushOnWindowFill: enqueues buffer until the window fills,
// then the whole window enters the queue through one batch call (one FAA).
func TestCoalesceFlushOnWindowFill(t *testing.T) {
	const w = 16
	q := New(2, WithCoalescing(w))
	h := mustRegister(t, q)
	for i := int64(1); i < w; i++ {
		q.CoalescedEnqueue(h, box(i))
		if got := h.Buffered(); got != int(i) {
			t.Fatalf("after %d enqueues: Buffered = %d", i, got)
		}
		if got := q.Size(); got != 0 {
			t.Fatalf("after %d enqueues: Size = %d, want 0 (still buffered)", i, got)
		}
	}
	q.CoalescedEnqueue(h, box(w)) // fills the window
	if got := h.Buffered(); got != 0 {
		t.Fatalf("window fill left Buffered = %d", got)
	}
	if got := q.Size(); got != w {
		t.Fatalf("window fill: Size = %d, want %d", got, w)
	}
	st := q.Stats()
	if st.CoalesceFlushes != 1 || st.CoalesceFlushedVals != w {
		t.Fatalf("flushes=%d flushedVals=%d, want 1/%d", st.CoalesceFlushes, st.CoalesceFlushedVals, w)
	}
	if st.EnqBatchCalls != 1 || st.EnqBatchFAAs != 1 {
		t.Fatalf("flush cost: batch calls=%d FAAs=%d, want 1/1", st.EnqBatchCalls, st.EnqBatchFAAs)
	}
	// FIFO within the window.
	for i := int64(1); i <= w; i++ {
		v, ok := q.CoalescedDequeue(h)
		if !ok || unbox(v) != i {
			t.Fatalf("dequeue %d: got (%v,%v)", i, v, ok)
		}
	}
}

// TestCoalesceRefillRun: a dequeue miss harvests a run of up to window
// cells with one FAA and serves subsequent dequeues from the drain buffer.
func TestCoalesceRefillRun(t *testing.T) {
	const w = 16
	q := New(2, WithCoalescing(w))
	h := mustRegister(t, q)
	q.EnqueueBatch(h, boxN(3*w))

	v, ok := q.CoalescedDequeue(h)
	if !ok || unbox(v) != 1 {
		t.Fatalf("first coalesced dequeue: got (%v,%v)", v, ok)
	}
	if got := h.Drained(); got != w-1 {
		t.Fatalf("Drained = %d after first refill, want %d", got, w-1)
	}
	st := q.Stats()
	if st.CoalesceRefills != 1 {
		t.Fatalf("CoalesceRefills = %d, want 1", st.CoalesceRefills)
	}
	deqFAAs := st.DeqBatchFAAs
	// The rest of the run must come out of the buffer without another FAA.
	for i := int64(2); i <= w; i++ {
		v, ok := q.CoalescedDequeue(h)
		if !ok || unbox(v) != i {
			t.Fatalf("dequeue %d: got (%v,%v)", i, v, ok)
		}
	}
	if st := q.Stats(); st.DeqBatchFAAs != deqFAAs {
		t.Fatalf("drain-buffer hits issued FAAs: %d -> %d", deqFAAs, st.DeqBatchFAAs)
	}
	// Drain the rest and verify order + honest EMPTY.
	for i := int64(w + 1); i <= 3*w; i++ {
		v, ok := q.CoalescedDequeue(h)
		if !ok || unbox(v) != i {
			t.Fatalf("dequeue %d: got (%v,%v)", i, v, ok)
		}
	}
	if _, ok := q.CoalescedDequeue(h); ok {
		t.Fatal("drained queue returned a value")
	}
}

// TestCoalesceNeverEmptyWhileHolding pins the EMPTY invariant: a handle
// holding unflushed values must not observe EMPTY — CoalescedDequeue
// flushes its own buffer and retries before concluding.
func TestCoalesceNeverEmptyWhileHolding(t *testing.T) {
	q := New(2, WithCoalescing(16))
	h := mustRegister(t, q)
	q.CoalescedEnqueue(h, box(42)) // buffered, queue itself empty
	if got := q.Size(); got != 0 {
		t.Fatalf("Size = %d, want 0 (value buffered)", got)
	}
	v, ok := q.CoalescedDequeue(h)
	if !ok || unbox(v) != 42 {
		t.Fatalf("dequeue of own buffered value: got (%v,%v)", v, ok)
	}
	if _, ok := q.CoalescedDequeue(h); ok {
		t.Fatal("empty queue returned a value")
	}
}

// TestCoalesceDeadlineFlush: buffered enqueues are published within
// coalesceDeadline of the producer's own operations even when the window
// never fills — dequeues served from other values tick the deadline too.
func TestCoalesceDeadlineFlush(t *testing.T) {
	const w = 64
	q := New(2, WithCoalescing(w))
	h := mustRegister(t, q)
	feeder := mustRegister(t, q)
	// Keep the queue supplied so refills succeed and the flush-retry path
	// (which would publish immediately) never triggers.
	q.EnqueueBatch(feeder, boxN(2*coalesceDeadline))

	q.CoalescedEnqueue(h, box(-1)) // buffered: 1 < window
	flushedAt := -1
	for i := 0; i < coalesceDeadline+1; i++ {
		if _, ok := q.CoalescedDequeue(h); !ok {
			t.Fatalf("dequeue %d: feeder values exhausted early", i)
		}
		if h.Buffered() == 0 {
			flushedAt = i
			break
		}
	}
	if flushedAt < 0 {
		t.Fatalf("buffered value still unpublished after %d operations", coalesceDeadline+1)
	}
	if st := q.Stats(); st.CoalesceDeadlineFlushes == 0 {
		t.Fatal("CoalesceDeadlineFlushes = 0 after a deadline flush")
	}
}

// TestCoalesceReleaseFlushes: Release publishes both the producer buffer
// and any undrained refill values — a released registration never strands
// values.
func TestCoalesceReleaseFlushes(t *testing.T) {
	const w = 16
	q := New(2, WithCoalescing(w))
	h := mustRegister(t, q)
	// Load the drain buffer: enqueue a window directly, then pull one value.
	q.EnqueueBatch(h, boxN(w))
	if v, ok := q.CoalescedDequeue(h); !ok || unbox(v) != 1 {
		t.Fatalf("refill dequeue: got (%v,%v)", v, ok)
	}
	// And leave values in the producer buffer.
	for i := int64(100); i < 105; i++ {
		q.CoalescedEnqueue(h, box(i))
	}
	if h.Drained() == 0 || h.Buffered() == 0 {
		t.Fatalf("setup failed: Drained=%d Buffered=%d", h.Drained(), h.Buffered())
	}
	h.Release()

	h2 := mustRegister(t, q)
	got := map[int64]bool{}
	for {
		v, ok := q.Dequeue(h2)
		if !ok {
			break
		}
		got[unbox(v)] = true
	}
	if len(got) != w-1+5 {
		t.Fatalf("drained %d values after Release, want %d", len(got), w-1+5)
	}
	for i := int64(2); i <= w; i++ {
		if !got[i] {
			t.Fatalf("undrained refill value %d lost on Release", i)
		}
	}
	for i := int64(100); i < 105; i++ {
		if !got[i] {
			t.Fatalf("buffered value %d lost on Release", i)
		}
	}
}

// TestCoalescedMPMC: concurrent coalesced producers and consumers lose
// nothing, duplicate nothing, and preserve per-producer order. Producers
// flush on exit (the idle-producer contract).
func TestCoalescedMPMC(t *testing.T) {
	const (
		producers   = 4
		consumers   = 4
		perProducer = 20000
		w           = 16
	)
	q := New(producers+consumers, WithCoalescing(w))
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		h := mustRegister(t, q)
		wg.Add(1)
		go func(p int, h *Handle) {
			defer wg.Done()
			for s := 0; s < perProducer; s++ {
				q.CoalescedEnqueue(h, box(int64(p)<<32|int64(s+1)))
			}
			q.Flush(h)
		}(p, h)
	}
	results := make([][]int64, consumers)
	var total int64
	var mu sync.Mutex
	for c := 0; c < consumers; c++ {
		h := mustRegister(t, q)
		wg.Add(1)
		go func(c int, h *Handle) {
			defer wg.Done()
			var local []int64
			for {
				mu.Lock()
				done := total >= producers*perProducer
				mu.Unlock()
				if done {
					break
				}
				v, ok := q.CoalescedDequeue(h)
				if !ok {
					continue
				}
				local = append(local, unbox(v))
				mu.Lock()
				total++
				mu.Unlock()
			}
			results[c] = local
		}(c, h)
	}
	wg.Wait()
	seen := make(map[int64]bool, producers*perProducer)
	for c, local := range results {
		last := map[int64]int64{}
		for _, v := range local {
			if seen[v] {
				t.Fatalf("value %x dequeued twice", v)
			}
			seen[v] = true
			p, s := v>>32, v&0xffffffff
			if l, ok := last[p]; ok && s <= l {
				t.Fatalf("consumer %d: producer %d seq %d after %d", c, p, s, l)
			}
			last[p] = s
		}
	}
	if len(seen) != producers*perProducer {
		t.Fatalf("dequeued %d distinct values, want %d", len(seen), producers*perProducer)
	}
}

// TestCoalescedEnqueuePanicsOnSentinels: the nil/sentinel check happens at
// call time, not at the deferred flush.
func TestCoalescedEnqueuePanicsOnSentinels(t *testing.T) {
	q := New(1, WithCoalescing(16))
	h := mustRegister(t, q)
	for _, p := range []unsafe.Pointer{nil, topVal, emptyVal} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CoalescedEnqueue(%v) did not panic", p)
				}
			}()
			q.CoalescedEnqueue(h, p)
		}()
	}
	if h.Buffered() != 0 {
		t.Fatalf("rejected values were buffered: %d", h.Buffered())
	}
}

package core

import (
	"sync/atomic"
	"testing"
	"unsafe"

	"wfqueue/internal/ctr"
)

// hazardOf reads h's published hazard id the way a cleaner does.
func hazardOf(h *Handle) int64 { return atomic.LoadInt64(&h.hzdp) }

// headID is the id of the segment h's head hint points at.
func headID(h *Handle) int64 { return sid((*segment)(atomic.LoadPointer(&h.head))) }

// TestHazardPublishedAndCleared pins the §3.6 hazard lifecycle on the four
// fast-path operations, whichever store form the build uses
// (plainHazard): the id is published while an operation runs and reset
// to -1 on every exit path.
func TestHazardPublishedAndCleared(t *testing.T) {
	t.Run("published mid-operation", func(t *testing.T) {
		// Segments of 4 cells. Nine pairs leave the head hint in segment
		// 2 (the last dequeue took cell 8) and H at 9, so the stranded
		// cells below (9, then 11) sit in the hint's segment: the
		// published id must equal sid(h.head) while the operation runs,
		// and it cannot be a leftover zero.
		q := New(1, WithSegmentShift(2), WithMaxSpin(8))
		h := mustRegister(t, q)
		for i := int64(0); i < 9; i++ {
			q.Enqueue(h, box(i))
			q.Dequeue(h)
		}
		if headID(h) == 0 {
			t.Fatal("head still in segment 0 after 10 pairs")
		}

		// A stranded enqueuer: T > H with an unfilled cell, so the next
		// dequeue spins out in helpEnq and yields mid-operation.
		var seen []int64
		var want int64
		old := yield
		yield = func() {
			if got := hazardOf(h); got != want || got != headID(h) {
				t.Errorf("hazard inside the operation = %d, want %d (head segment %d)", got, want, headID(h))
			}
			seen = append(seen, hazardOf(h))
		}
		t.Cleanup(func() { yield = old })

		// strand moves T one past H: the cell at H was handed to an
		// enqueuer that never deposits.
		strand := func() { atomic.StoreInt64(&q.T, atomic.LoadInt64(&q.H)+1) }
		strand()
		want = headID(h)
		if _, ok := q.Dequeue(h); ok {
			t.Fatal("dequeue of a stranded cell returned a value")
		}
		if got := hazardOf(h); got != -1 {
			t.Errorf("hazard after Dequeue = %d, want -1", got)
		}

		// The same through DequeueBatch's reservation.
		strand()
		want = headID(h)
		if n := q.DequeueBatch(h, make([]unsafe.Pointer, 2)); n != 0 {
			t.Fatalf("DequeueBatch over a stranded cell returned %d values", n)
		}
		if got := hazardOf(h); got != -1 {
			t.Errorf("hazard after DequeueBatch = %d, want -1", got)
		}
		if len(seen) != 2 {
			t.Fatalf("spin fallback yielded %d times, want 2 (one per operation)", len(seen))
		}
	})

	t.Run("cleared on every exit", func(t *testing.T) {
		q := New(2, WithPatience(0), WithMaxSpin(0))
		h := mustRegister(t, q)
		cleared := func(path string, counter *uint64, before uint64) {
			t.Helper()
			if got := hazardOf(h); got != -1 {
				t.Errorf("%s: hazard after return = %d, want -1", path, got)
			}
			if ctr.Load(counter) == before {
				t.Errorf("%s: the operation did not take that path", path)
			}
		}
		st := &h.stats

		n := ctr.Load(&st.EnqFast)
		q.Enqueue(h, box(1))
		cleared("fast Enqueue", &st.EnqFast, n)

		n = ctr.Load(&st.DeqFast)
		if v, ok := q.Dequeue(h); !ok || unbox(v) != 1 {
			t.Fatalf("value Dequeue = (%v, %v), want 1", v, ok)
		}
		cleared("value Dequeue", &st.DeqFast, n)

		// An EMPTY dequeue poisons the next cell, so the enqueue's only
		// fast-path attempt (patience 0) fails there.
		n = ctr.Load(&st.DeqEmpty)
		if _, ok := q.Dequeue(h); ok {
			t.Fatal("EMPTY Dequeue returned a value")
		}
		cleared("EMPTY Dequeue", &st.DeqEmpty, n)

		n = ctr.Load(&st.EnqSlow)
		q.Enqueue(h, box(2))
		cleared("slow Enqueue", &st.EnqSlow, n)
		if v, ok := q.Dequeue(h); !ok || unbox(v) != 2 {
			t.Fatalf("dequeue after slow Enqueue = (%v, %v), want 2", v, ok)
		}

		// A stranded cell ahead of a value: deqFast meets ⊤ with T > i
		// and, with patience 0, goes slow and finds the value.
		atomic.AddInt64(&q.T, 1)
		q.Enqueue(h, box(3))
		n = ctr.Load(&st.DeqSlow)
		if v, ok := q.Dequeue(h); !ok || unbox(v) != 3 {
			t.Fatalf("slow Dequeue = (%v, %v), want 3", v, ok)
		}
		cleared("slow Dequeue", &st.DeqSlow, n)

		n = ctr.Load(&st.EnqBatchCalls)
		q.EnqueueBatch(h, boxN(4))
		cleared("EnqueueBatch", &st.EnqBatchCalls, n)

		n = ctr.Load(&st.DeqBatchCalls)
		if got := q.DequeueBatch(h, make([]unsafe.Pointer, 4)); got != 4 {
			t.Fatalf("DequeueBatch = %d values, want 4", got)
		}
		cleared("DequeueBatch", &st.DeqBatchCalls, n)
	})
}

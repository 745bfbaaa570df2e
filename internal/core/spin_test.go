package core

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

// swapYield intercepts the MAX_SPIN fallback for the duration of a test and
// returns a counter of interceptions. Tests using it must not run in
// parallel (yield is package state).
func swapYield(t *testing.T) *int {
	t.Helper()
	count := new(int)
	old := yield
	yield = func() { *count++ }
	t.Cleanup(func() { yield = old })
	return count
}

func TestMaxSpinDefaults(t *testing.T) {
	if q := New(1); q.MaxSpin() != DefaultMaxSpin {
		t.Fatalf("MaxSpin = %d, want DefaultMaxSpin = %d", q.MaxSpin(), DefaultMaxSpin)
	}
	if q := New(1, WithMaxSpin(-5)); q.MaxSpin() != 0 {
		t.Fatalf("negative WithMaxSpin not clamped: MaxSpin = %d", q.MaxSpin())
	}
	if q := New(1, WithMaxSpin(7)); q.MaxSpin() != 7 {
		t.Fatalf("MaxSpin = %d, want 7", q.MaxSpin())
	}
}

// TestMaxSpinFallbackYields pins the fallback behavior: a dequeuer visiting
// a cell whose index was claimed by an enqueue FAA (T > i) but never filled
// spins MAX_SPIN times, yields exactly once, bumps SpinFallbacks, and then
// poisons the cell and proceeds — the operation still terminates.
func TestMaxSpinFallbackYields(t *testing.T) {
	q := New(1, WithMaxSpin(8))
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	yields := swapYield(t)

	// Simulate an enqueuer stranded between its FAA on T and its value CAS:
	// T says cell 0 is claimed, but no value ever lands there.
	atomic.AddInt64(&q.T, 1)

	if _, ok := q.Dequeue(h); ok {
		t.Fatal("dequeue of a stranded cell returned a value")
	}
	if *yields != 1 {
		t.Fatalf("yield fallback ran %d times, want 1", *yields)
	}
	if got := q.Stats().SpinFallbacks; got != 1 {
		t.Fatalf("SpinFallbacks = %d, want 1", got)
	}

	// The queue must remain fully usable: the stranded cell is poisoned, so
	// a fresh enqueue lands beyond it and is dequeued normally.
	v := uint64(42)
	q.Enqueue(h, unsafe.Pointer(&v))
	got, ok := q.Dequeue(h)
	if !ok || *(*uint64)(got) != 42 {
		t.Fatalf("post-fallback dequeue = (%v, %v), want 42", got, ok)
	}
}

// TestMaxSpinSkippedWhenEmpty pins the T > i gate: polling a genuinely
// empty queue (no enqueuer in flight) must not spin or yield — EMPTY
// detection stays on the immediate-poison path.
func TestMaxSpinSkippedWhenEmpty(t *testing.T) {
	q := New(1, WithMaxSpin(MaxSpinCap))
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	yields := swapYield(t)
	for i := 0; i < 100; i++ {
		if _, ok := q.Dequeue(h); ok {
			t.Fatal("empty queue returned a value")
		}
	}
	if *yields != 0 {
		t.Fatalf("empty-queue polls yielded %d times, want 0", *yields)
	}
	if got := q.Stats().SpinFallbacks; got != 0 {
		t.Fatalf("SpinFallbacks = %d, want 0", got)
	}
}

// TestMaxSpinZeroPoisonsImmediately pins the WithMaxSpin(0) escape hatch:
// even with an enqueuer in flight the dequeuer never yields.
func TestMaxSpinZeroPoisonsImmediately(t *testing.T) {
	q := New(1, WithMaxSpin(0))
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	yields := swapYield(t)
	atomic.AddInt64(&q.T, 1) // stranded enqueuer on cell 0
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("dequeue of a stranded cell returned a value")
	}
	if *yields != 0 {
		t.Fatalf("WithMaxSpin(0) yielded %d times, want 0", *yields)
	}
}

// TestMaxSpinFindsLateValue verifies the happy case the wait exists for: a
// value that lands before the dequeuer poisons the cell is returned, not
// poisoned over. The deposit runs from the yield hook — after the whole
// spin budget has expired, before the re-read that precedes the poison CAS
// — so the outcome does not depend on scheduling.
func TestMaxSpinFindsLateValue(t *testing.T) {
	q := New(2, WithMaxSpin(MaxSpinCap))
	h := mustRegister(t, q)
	he := mustRegister(t, q)
	// Claim cell 0 as a stranded enqueuer would; the yield fallback then
	// completes the simulated enqueue by depositing into cell 0.
	atomic.AddInt64(&q.T, 1)
	v := uint64(7)
	old := yield
	yield = func() {
		c := q.findCell(he, &he.tail, 0)
		atomic.StorePointer(&c.val, unsafe.Pointer(&v))
	}
	t.Cleanup(func() { yield = old })

	got, ok := q.Dequeue(h)
	if !ok || *(*uint64)(got) != 7 {
		t.Fatalf("Dequeue = (%v, %v), want 7", got, ok)
	}
	if got := q.Stats().SpinFallbacks; got != 1 {
		t.Fatalf("SpinFallbacks = %d, want 1", got)
	}
}

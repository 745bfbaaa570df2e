package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestIdlePollingConsumerLosesNothing is the pipeline shape that once lost
// values: one producer sends 1000-value bursts and one consumer goroutine,
// not locked to a thread, polls with Dequeue and calls runtime.Gosched on
// EMPTY. Between bursts every EMPTY poll burns a cell, so each burst opens
// with the producer's fast path failing and its slow path racing the
// consumer for the same cells. The race that lost values: the consumer's
// helpEnq poisons cell i and tries to claim the producer's pending request
// for it, the producer claims that request for cell i itself first, and a
// helper that then tests its stale pending state moves past cell i before
// the producer commits its value there.
//
// Patience 0 sends every failed fast path to the slow path, MaxSpin 0 lets
// the consumer poison a cell the moment it finds it unfilled, and 16-cell
// segments keep segment allocation and reclamation in the loop. With one
// producer and one consumer, FIFO means the consumer must see 0, 1, 2, ...
// with no gap, so the first lost or duplicated value fails the test. Before
// helpEnq re-read the request state, this lost a value within the first
// thousand bursts in ten runs of ten on a 2-thread host.
func TestIdlePollingConsumerLosesNothing(t *testing.T) {
	const (
		burst = 1000
		gap   = 200 * time.Microsecond // producer idles between bursts
	)
	bursts := 2000
	if testing.Short() || raceEnabled {
		bursts = 300
	}
	q := New(2, WithPatience(0), WithMaxSpin(0), WithSegmentShift(4))
	prod := mustRegister(t, q)
	cons := mustRegister(t, q)

	vals := make([]int64, bursts*burst)
	var sent atomic.Int64 // values enqueued so far, updated per burst
	go func() {
		for k := range vals {
			vals[k] = int64(k)
			q.Enqueue(prod, unsafe.Pointer(&vals[k]))
			if k%burst == burst-1 {
				sent.Store(int64(k + 1))
				time.Sleep(gap)
			}
		}
	}()

	next, dup := int64(0), 0
	for next < int64(len(vals)) {
		done := sent.Load() == int64(len(vals))
		p, ok := q.Dequeue(cons)
		if !ok {
			if done {
				break // every value was enqueued before this EMPTY
			}
			runtime.Gosched()
			continue
		}
		switch k := unbox(p); {
		case k < next:
			dup++
		case k > next:
			t.Fatalf("value %d arrived after %d: %d value(s) lost in burst %d of %d",
				k, next-1, k-next, next/burst, bursts)
		default:
			next++
		}
	}
	if next != int64(len(vals)) || dup != 0 {
		t.Fatalf("%d values sent in %d bursts: %d received in order, %d lost, %d duplicated",
			len(vals), bursts, next, int64(len(vals))-next, dup)
	}
}

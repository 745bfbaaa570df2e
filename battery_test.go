package wfqueue_test

// The public generic API must pass the same conformance battery as the
// internal implementations (which the registry drives through uint64
// adapters); this exercises the boxing/unboxing layer under concurrency,
// for both façades.

import (
	"errors"
	"testing"

	"wfqueue"
	"wfqueue/internal/qtest"
)

func facadeMaker(opts ...wfqueue.Option) qtest.Maker {
	return func(t testing.TB, nworkers int) func() qtest.Ops {
		q := wfqueue.New[int64](nworkers, opts...)
		return func() qtest.Ops {
			h, err := q.Register()
			if err != nil {
				// The Maker contract: capacity denial maps to zero Ops (the
				// churn storm over-registers on purpose); anything else fails.
				if errors.Is(err, wfqueue.ErrTooManyHandles) {
					return qtest.Ops{}
				}
				t.Fatal(err)
			}
			return qtest.Ops{
				Enq:     func(v int64) { h.Enqueue(v) },
				Deq:     func() (int64, bool) { return h.Dequeue() },
				Release: h.Release,
			}
		}
	}
}

func TestFacadeConformance(t *testing.T) {
	qtest.Battery(t, facadeMaker())
}

func TestFacadeConformanceWF0TinySegments(t *testing.T) {
	qtest.Battery(t, facadeMaker(
		wfqueue.WithPatience(0),
		wfqueue.WithSegmentShift(3),
		wfqueue.WithMaxGarbage(1)))
}

// boundedMaker adapts NewBounded to the battery: Enq is the blocking
// Enqueue, TryEnq the ErrFull-reporting TryEnqueue.
func boundedMaker(capacity int) qtest.Maker {
	return func(t testing.TB, nworkers int) func() qtest.Ops {
		q, err := wfqueue.NewBounded[int64](nworkers, capacity)
		if err != nil {
			t.Fatal(err)
		}
		return func() qtest.Ops {
			h, err := q.Register()
			if err != nil {
				if errors.Is(err, wfqueue.ErrTooManyHandles) {
					return qtest.Ops{}
				}
				t.Fatal(err)
			}
			return qtest.Ops{
				Enq:     func(v int64) { h.Enqueue(v) },
				Deq:     func() (int64, bool) { return h.Dequeue() },
				TryEnq:  func(v int64) bool { return h.TryEnqueue(v) == nil },
				Release: h.Release,
			}
		}
	}
}

// TestBoundedConformance runs the unbounded battery at a capacity above its
// sequential fills (Sequential enqueues 2000 values before dequeuing), then
// the backpressure battery at a capacity it fills many times over.
func TestBoundedConformance(t *testing.T) {
	qtest.Battery(t, boundedMaker(4096))
	qtest.BoundedBattery(t, boundedMaker(16), 16)
}

package wfqueue_test

// The public generic API must pass the same conformance battery as the
// internal implementations (which the registry drives through uint64
// adapters); this exercises the boxing/unboxing layer under concurrency.

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

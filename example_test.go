package wfqueue_test

import (
	"fmt"
	"runtime"
	"sync"

	"wfqueue"
)

// The basic single-goroutine round trip.
func Example() {
	q := wfqueue.New[string](1)
	h, _ := q.Register()
	defer h.Release()

	h.Enqueue("first")
	h.Enqueue("second")
	for {
		v, ok := h.Dequeue()
		if !ok {
			break
		}
		fmt.Println(v)
	}
	// Output:
	// first
	// second
}

// Multiple producers and consumers share a queue through per-goroutine
// handles.
func Example_concurrent() {
	const n = 4
	q := wfqueue.New[int](2 * n)

	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		h, _ := q.Register()
		wg.Add(1)
		go func(p int, h *wfqueue.Handle[int]) {
			defer wg.Done()
			defer h.Release()
			for i := 0; i < 100; i++ {
				h.Enqueue(p*100 + i)
			}
		}(p, h)
	}
	wg.Wait()

	h, _ := q.Register()
	defer h.Release()
	sum := 0
	for {
		v, ok := h.Dequeue()
		if !ok {
			break
		}
		sum += v
	}
	fmt.Println(sum)
	// Output:
	// 79800
}

// WithPatience(0) forces the helping slow path on any fast-path failure —
// the paper's WF-0 configuration, useful for exercising wait-freedom.
func Example_patience() {
	q := wfqueue.New[int](8, wfqueue.WithPatience(0))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		h, _ := q.Register()
		wg.Add(1)
		go func(h *wfqueue.Handle[int]) {
			defer wg.Done()
			defer h.Release()
			for i := 0; i < 1000; i++ {
				h.Enqueue(i)
				if _, ok := h.Dequeue(); !ok {
					runtime.Gosched()
				}
			}
		}(h)
	}
	wg.Wait()
	fmt.Println("done")
	// Output:
	// done
}

// Stats snapshots the execution-path counters behind the paper's Table 2.
// Add sums snapshots (say, of several queues) and Map keys each counter by
// its snake_case field name.
func Example_counters() {
	q := wfqueue.New[int](1)
	h, _ := q.Register()
	defer h.Release()
	for i := 0; i < 3; i++ {
		h.Enqueue(i)
	}
	for i := 0; i < 4; i++ {
		h.Dequeue()
	}

	var total wfqueue.Counters
	total.Add(q.Stats())
	fmt.Println(total.EnqFast, total.DeqFast, total.Map()["deq_empty"])
	// Output:
	// 3 3 1
}

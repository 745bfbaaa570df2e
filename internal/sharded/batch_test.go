package sharded

// Tests of the batch entry points' contract at the sharded layer: scalar
// degeneration at lengths 0/1, and partial-batch harvests racing concurrent
// stealers.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestShardedEnqueueBatchDegenerate pins the 0/1 batch contract through the
// sharded layer: length 0 never picks a lane, length 1 rides the scalar
// fast path (no reservation, no batch counters).
func TestShardedEnqueueBatchDegenerate(t *testing.T) {
	q := New(1, WithLanes(2))
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	q.EnqueueBatch(h, nil)
	if got := q.Size(); got != 0 {
		t.Fatalf("EnqueueBatch(nil) changed Size to %d", got)
	}
	if st := q.Stats(); st.Sharded.Enqueues != 0 {
		t.Fatalf("EnqueueBatch(nil) counted %d enqueues", st.Sharded.Enqueues)
	}
	q.EnqueueBatch(h, []unsafe.Pointer{box(1)})
	st := q.Stats()
	if st.Core.EnqBatchCalls != 0 || st.Core.EnqBatchFAAs != 0 {
		t.Fatalf("len-1 batch took the reservation path: calls=%d faas=%d",
			st.Core.EnqBatchCalls, st.Core.EnqBatchFAAs)
	}
	if st.Core.EnqFast+st.Core.EnqSlow != 1 {
		t.Fatalf("len-1 batch: scalar enqueues = %d, want 1", st.Core.EnqFast+st.Core.EnqSlow)
	}
	dst := make([]unsafe.Pointer, 1)
	if n := q.DequeueBatch(h, dst); n != 1 || unbox(dst[0]) != 1 {
		t.Fatalf("DequeueBatch(len 1) = %d", n)
	}
	if st := q.Stats(); st.Core.DeqBatchCalls != 0 {
		t.Fatalf("len-1 dequeue batch took the reservation path: calls=%d", st.Core.DeqBatchCalls)
	}
	if n := q.DequeueBatch(h, nil); n != 0 {
		t.Fatalf("DequeueBatch(nil) = %d", n)
	}
}

// TestShardedDequeueBatchUnderStealers races wide batched harvests (home
// lane + steal sweep) against concurrent scalar stealers on every lane and
// validates the partial-batch contract: nothing is lost, nothing is
// duplicated, and the sum of all harvests is exactly what was enqueued.
func TestShardedDequeueBatchUnderStealers(t *testing.T) {
	const (
		lanes    = 4
		stealers = 4
		rounds   = 200
		width    = 48 // > one lane's share, forces the sweep to top up
	)
	q := New(2+stealers, WithLanes(lanes))
	producer, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	batcher, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}

	var produced int64
	var mu sync.Mutex
	seen := make(map[int64]bool)
	record := func(t *testing.T, vs []unsafe.Pointer, n int, who string) {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < n; i++ {
			v := unbox(vs[i])
			if seen[v] {
				t.Errorf("%s: value %d dequeued twice", who, v)
			}
			seen[v] = true
		}
	}

	var consumed int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < stealers; s++ {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h *Handle) {
			defer wg.Done()
			buf := make([]unsafe.Pointer, 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := q.Dequeue(h); ok {
					buf[0] = v
					record(t, buf, 1, "stealer")
					atomic.AddInt64(&consumed, 1)
				} else {
					runtime.Gosched()
				}
			}
		}(h)
	}

	dst := make([]unsafe.Pointer, width)
	next := int64(1)
	for r := 0; r < rounds; r++ {
		// Spread a burst over the lanes through the normal dispatch.
		burst := 8 + r%57
		for i := 0; i < burst; i++ {
			q.Enqueue(producer, box(next))
			next++
		}
		produced += int64(burst)
		n := q.DequeueBatch(batcher, dst)
		if n > width {
			t.Fatalf("DequeueBatch returned %d > width %d", n, width)
		}
		record(t, dst, n, "batcher")
		atomic.AddInt64(&consumed, int64(n))
	}
	// Drain the tail with wide batches; stealers keep racing.
	for atomic.LoadInt64(&consumed) < produced {
		n := q.DequeueBatch(batcher, dst)
		if n == 0 {
			runtime.Gosched()
			continue
		}
		record(t, dst, n, "batcher")
		atomic.AddInt64(&consumed, int64(n))
	}
	close(stop)
	wg.Wait()

	if int64(len(seen)) != produced {
		t.Fatalf("harvested %d distinct values, want %d", len(seen), produced)
	}
	for i := int64(1); i <= produced; i++ {
		if !seen[i] {
			t.Fatalf("value %d lost", i)
		}
	}
	if n := q.DequeueBatch(batcher, dst); n != 0 {
		t.Fatalf("final DequeueBatch = %d on a drained queue", n)
	}
}

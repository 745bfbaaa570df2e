package sharded

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"wfqueue/internal/ctr"
)

// TestStealWhitebox walks the two sweep passes deterministically. One value
// sits in lane 2; a consumer homed on lane 0 must find it via the hint pass
// (lane 1's zero size hint skips it without poisoning a cell), and a second
// dequeue must come back EMPTY only after real per-lane dequeues.
func TestStealWhitebox(t *testing.T) {
	q := New(2, WithLanes(4))
	prod, err := q.RegisterOnLane(2)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := q.RegisterOnLane(0)
	if err != nil {
		t.Fatal(err)
	}
	q.Enqueue(prod, box(42))

	p, ok := q.Dequeue(cons)
	if !ok || unbox(p) != 42 {
		t.Fatalf("steal dequeue: got (%v,%v), want (42,true)", p, ok)
	}
	st := q.Stats()
	if st.Sharded.Sweeps != 1 || st.Sharded.Steals != 1 {
		t.Errorf("Sweeps/Steals = %d/%d, want 1/1", st.Sharded.Sweeps, st.Sharded.Steals)
	}
	if st.StolenFrom[2] != 1 {
		t.Errorf("StolenFrom = %v, want lane 2 = 1", st.StolenFrom)
	}
	// The hint pass found lane 2 before touching lane 1, so lane 1 has
	// seen no dequeue at all (a real dequeue on an empty lane would have
	// poisoned a cell and counted DeqEmpty).
	if de := q.lanes[1].q.Stats().DeqEmpty; de != 0 {
		t.Errorf("lane 1 DeqEmpty = %d after hint-pass steal, want 0", de)
	}

	// Draining dequeue: hint pass is dry, the definitive pass must witness
	// EMPTY on every lane.
	if _, ok := q.Dequeue(cons); ok {
		t.Fatal("empty queue returned a value")
	}
	for i := 1; i < 4; i++ {
		if de := q.lanes[i].q.Stats().DeqEmpty; de == 0 {
			t.Errorf("lane %d DeqEmpty = 0 after definitive sweep, want ≥1", i)
		}
	}
	st = q.Stats()
	if st.Sharded.EmptyDequeues != 1 {
		t.Errorf("EmptyDequeues = %d, want 1", st.Sharded.EmptyDequeues)
	}
}

// TestStealAdversary is the ISSUE-mandated adversary: producers homed on
// lanes 1..3 race enqueues against consumers homed on lane 0, whose home
// lane never has a value — every successful dequeue is a steal mid-sweep,
// interleaved with in-flight enqueues on the swept lanes. The invariant
// pinned: a steal never loses an element and never doubles one, and
// per-producer order survives stealing.
func TestStealAdversary(t *testing.T) {
	const (
		producers   = 3
		consumers   = 2
		perProducer = 20000
	)
	total := producers * perProducer
	q := New(producers+consumers, WithLanes(4))

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		h, err := q.RegisterOnLane(1 + p) // lanes 1..3; lane 0 stays dry
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p int, h *Handle) {
			defer wg.Done()
			for s := 0; s < perProducer; s++ {
				q.Enqueue(h, box(int64(p)<<32|int64(s+1)))
			}
		}(p, h)
	}

	results := make([][]int64, consumers)
	chs := make([]*Handle, consumers)
	var consumed sync.WaitGroup
	var count int64
	for c := 0; c < consumers; c++ {
		h, err := q.RegisterOnLane(0)
		if err != nil {
			t.Fatal(err)
		}
		chs[c] = h
		consumed.Add(1)
		go func(c int, h *Handle) {
			defer consumed.Done()
			var local []int64
			for atomic.LoadInt64(&count) < int64(total) {
				p, ok := q.Dequeue(h)
				if !ok {
					runtime.Gosched()
					continue
				}
				local = append(local, unbox(p))
				atomic.AddInt64(&count, 1)
			}
			results[c] = local
		}(c, h)
	}
	wg.Wait()
	consumed.Wait()

	seen := make(map[int64]bool, total)
	var got int
	for c, local := range results {
		last := map[int64]int64{}
		for _, v := range local {
			if seen[v] {
				t.Fatalf("value %x stolen twice", v)
			}
			seen[v] = true
			got++
			p, s := v>>32, v&0xffffffff
			if l, ok := last[p]; ok && s <= l {
				t.Fatalf("consumer %d: producer %d order violation: seq %d after %d", c, p, s, l)
			}
			last[p] = s
		}
	}
	if got != total {
		t.Fatalf("stole %d distinct values, want %d — steal lost elements", got, total)
	}

	// Accounting cross-check: the consumers' home lane was always empty, so
	// every one of their dequeues was a steal, and the per-lane StolenFrom
	// tallies must add up to exactly the values moved.
	st := q.Stats()
	var steals, stolenFrom uint64
	for _, c := range chs {
		steals += ctr.Load(&c.stats.Steals)
		if d := ctr.Load(&c.stats.Dequeues); d != ctr.Load(&c.stats.Steals) {
			t.Errorf("consumer dequeues %d != steals %d (home lane was never fed)", d, ctr.Load(&c.stats.Steals))
		}
	}
	if steals != uint64(total) {
		t.Errorf("consumer Steals sum = %d, want %d", steals, total)
	}
	for _, n := range st.StolenFrom {
		stolenFrom += n
	}
	if stolenFrom != uint64(total) {
		t.Errorf("StolenFrom sum = %v = %d, want %d", st.StolenFrom, stolenFrom, total)
	}
	if st.StolenFrom[0] != 0 {
		t.Errorf("StolenFrom[0] = %d, want 0 (nothing ever enqueued there)", st.StolenFrom[0])
	}
}

// TestStealContendedLane races a home consumer against a stealing consumer
// on one lane while its producer is still enqueueing: the hardest
// interleaving for the claim CAS, since home dequeues, steal-sweep
// dequeues, and enqueues all target the same cells.
func TestStealContendedLane(t *testing.T) {
	const total = 50000
	q := New(3, WithLanes(2))
	prod, _ := q.RegisterOnLane(1)
	home, _ := q.RegisterOnLane(1)
	thief, _ := q.RegisterOnLane(0)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); i <= total; i++ {
			q.Enqueue(prod, box(i))
		}
	}()

	var mu sync.Mutex
	seen := make(map[int64]bool, total)
	var count int64
	consume := func(h *Handle) {
		defer wg.Done()
		for atomic.LoadInt64(&count) < total {
			p, ok := q.Dequeue(h)
			if !ok {
				runtime.Gosched()
				continue
			}
			v := unbox(p)
			mu.Lock()
			if seen[v] {
				mu.Unlock()
				t.Errorf("value %d dequeued twice", v)
				return
			}
			seen[v] = true
			mu.Unlock()
			atomic.AddInt64(&count, 1)
		}
	}
	wg.Add(2)
	go consume(home)
	go consume(thief)
	wg.Wait()

	if len(seen) != total {
		t.Fatalf("consumed %d distinct values, want %d", len(seen), total)
	}
	if _, ok := q.Dequeue(home); ok {
		t.Fatal("queue should be empty after full consumption")
	}
	// All of the thief's takes came off lane 1 (its own lane never had
	// values), so the lane tally must equal the thief's steal count.
	st := q.Stats()
	if st.StolenFrom[1] != ctr.Load(&thief.stats.Steals) {
		t.Errorf("StolenFrom[1] = %d, thief Steals = %d", st.StolenFrom[1], ctr.Load(&thief.stats.Steals))
	}
}

// TestStealBatch checks the batched sweep: a DequeueBatch homed on a dry
// lane tops up from other lanes without loss or duplication, and a short
// return really means all lanes were seen empty.
func TestStealBatch(t *testing.T) {
	q := New(3, WithLanes(3))
	prod1, _ := q.RegisterOnLane(1)
	prod2, _ := q.RegisterOnLane(2)
	cons, _ := q.RegisterOnLane(0)

	enqBatch := func(h *Handle, lo, hi int64) {
		ps := make([]unsafe.Pointer, 0, hi-lo+1)
		for v := lo; v <= hi; v++ {
			ps = append(ps, box(v))
		}
		q.EnqueueBatch(h, ps)
	}
	enqBatch(prod1, 1, 6)  // lane 1
	enqBatch(prod2, 7, 10) // lane 2

	dst := make([]unsafe.Pointer, 16)
	n := q.DequeueBatch(cons, dst)
	if n != 10 {
		t.Fatalf("DequeueBatch = %d, want 10", n)
	}
	seen := make(map[int64]bool, 10)
	for i := 0; i < n; i++ {
		v := unbox(dst[i])
		if v < 1 || v > 10 || seen[v] {
			t.Fatalf("dst[%d] = %d: lost or doubled", i, v)
		}
		seen[v] = true
	}
	// Lane 1's run must come out in lane-FIFO order within the result.
	last := int64(0)
	for i := 0; i < n; i++ {
		if v := unbox(dst[i]); v <= 6 {
			if v <= last {
				t.Fatalf("lane 1 order violated: %d after %d", v, last)
			}
			last = v
		}
	}
	st := q.Stats()
	if st.Sharded.Steals != 10 {
		t.Errorf("Steals = %d, want 10 (home lane was dry)", st.Sharded.Steals)
	}
	if q.DequeueBatch(cons, dst[:4]) != 0 {
		t.Error("empty batched dequeue returned values")
	}
}

// TestSweepLane pins the steal-sweep order: the cyclic neighbors of the
// home lane.
func TestSweepLane(t *testing.T) {
	q := New(1, WithLanes(4))
	h, err := q.RegisterOnLane(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 3, 0}
	for off := 1; off < 4; off++ {
		if got := h.sweepLane(off); got != want[off-1] {
			t.Errorf("sweepLane(%d) = %d, want %d", off, got, want[off-1])
		}
	}
}

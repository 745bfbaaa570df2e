package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"wfqueue/internal/lincheck"
	"wfqueue/internal/workload"
)

// TestIdlePollingConsumerLosesNothing is the pipeline shape that once lost
// values: one producer sends 1000-value bursts and one consumer goroutine,
// not locked to a thread, polls with Dequeue and calls runtime.Gosched on
// EMPTY. The race that lost values: the consumer's helpEnq poisons cell i
// and tries to claim the producer's pending request for it, the producer
// claims that request for cell i itself first, and a helper that then tests
// its stale pending state moves past cell i before the producer commits its
// value there.
//
// The race needs idle polls that burn cells, so each burst opens with the
// producer's fast path failing and its slow path racing the consumer for
// the same cells. A handle whose last dequeue came back EMPTY tests T ≤ H
// first and burns nothing, so the race runs twice:
//   - burning clears the consumer's deqIdle flag before every poll, so every
//     EMPTY poisons a cell, as the paper's dequeue does. This is the
//     regression test for the helpEnq state re-read.
//   - precheck leaves the flag live: the shape the queue ships.
//
// Patience 0 sends every failed fast path to the slow path, MaxSpin 0 lets
// the consumer poison a cell the moment it finds it unfilled, and 16-cell
// segments keep segment allocation and reclamation in the loop. With one
// producer and one consumer, FIFO means the consumer must see 0, 1, 2, ...
// with no gap, so the first lost or duplicated value fails the test. Before
// helpEnq re-read the request state, this lost a value within the first
// thousand bursts in ten runs of ten on a 2-thread host; with the re-read
// removed again, burning fails in about three full-size runs of five.
func TestIdlePollingConsumerLosesNothing(t *testing.T) {
	t.Run("burning", func(t *testing.T) { runIdlePollingConsumer(t, true) })
	t.Run("precheck", func(t *testing.T) { runIdlePollingConsumer(t, false) })
}

func runIdlePollingConsumer(t *testing.T, burn bool) {
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
		if burn {
			cons.deqIdle = false
		}
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

// TestIdlePollsKeepHead pins what the T ≤ H test buys: once a handle has
// seen EMPTY, its further empty polls, scalar or batched, take no index
// from H, so they poison no cell and link no segment, and the next enqueue
// finds its cell clean. Only the streak's first EMPTY burns a cell; the
// producer's round trip below absorbs it before the measured window.
func TestIdlePollsKeepHead(t *testing.T) {
	const polls = 10000
	q := New(2, WithSegmentShift(2))
	prod := mustRegister(t, q)
	cons := mustRegister(t, q)

	if _, ok := q.Dequeue(cons); ok {
		t.Fatal("Dequeue on a new queue returned a value")
	}
	v0, v1 := int64(1), int64(2)
	q.Enqueue(prod, unsafe.Pointer(&v0)) // skips the cell the EMPTY burned
	if p, ok := q.Dequeue(prod); !ok || unbox(p) != v0 {
		t.Fatalf("producer round trip: got (%v, %v)", p, ok)
	}

	head := atomic.LoadInt64(&q.H)
	before := q.Stats()
	var dst [8]unsafe.Pointer
	for i := 0; i < polls; i++ {
		if _, ok := q.Dequeue(cons); ok {
			t.Fatalf("poll %d: Dequeue returned a value from an empty queue", i)
		}
		if n := q.DequeueBatch(cons, dst[:8]); n != 0 {
			t.Fatalf("poll %d: DequeueBatch returned %d values from an empty queue", i, n)
		}
	}
	after := q.Stats()
	if got := atomic.LoadInt64(&q.H); got != head {
		t.Errorf("%d idle polls moved H from %d to %d", 2*polls, head, got)
	}
	if after.Segments != before.Segments || after.SegAllocs != before.SegAllocs {
		t.Errorf("idle polls linked segments: Segments %d -> %d, SegAllocs %d -> %d",
			before.Segments, after.Segments, before.SegAllocs, after.SegAllocs)
	}
	if got := after.DeqEmpty - before.DeqEmpty; got != 2*polls {
		t.Errorf("DeqEmpty grew by %d over %d empty polls", got, 2*polls)
	}

	q.Enqueue(prod, unsafe.Pointer(&v1))
	enq := q.Stats()
	if enq.EnqSlow != after.EnqSlow || enq.FastCASFails != after.FastCASFails {
		t.Errorf("the enqueue after idle polls met poisoned cells: EnqSlow %d -> %d, FastCASFails %d -> %d",
			after.EnqSlow, enq.EnqSlow, after.FastCASFails, enq.FastCASFails)
	}
	if p, ok := q.Dequeue(cons); !ok || unbox(p) != v1 {
		t.Fatalf("the poll after the enqueue: got (%v, %v), want %d", p, ok, v1)
	}
}

// TestPrecheckLinearizable checks recorded histories biased to empty polls
// against the sequential FIFO model: 3 or 4 threads, one op in four an
// enqueue, so most dequeues run with deqIdle set and take the T ≤ H test.
// One dequeue in eight is a two-cell DequeueBatch, whose short return is an
// EMPTY claim. Patience 0, MaxSpin 0 and 4-cell segments keep the slow
// path, poisoning and segment turnover in the same histories.
func TestPrecheckLinearizable(t *testing.T) {
	trials := 4000
	if testing.Short() || raceEnabled {
		trials = 1000
	}
	var deqs, gated int
	for trial := 0; trial < trials; trial++ {
		d, g := runPrecheckHistory(t, 3+trial%2, uint64(trial)+1)
		deqs += d
		gated += g
	}
	t.Logf("%d trials: %d dequeues, %d with deqIdle set", trials, deqs, gated)
	if 2*gated < deqs {
		t.Errorf("only %d of %d dequeues ran with deqIdle set; the scenario no longer exercises the T ≤ H test", gated, deqs)
	}
}

// runPrecheckHistory runs one history of 20-24 operations and fails t if it
// is not linearizable. It returns the number of dequeue calls and how many
// of them started with the caller's deqIdle flag set.
func runPrecheckHistory(t *testing.T, threads int, seed uint64) (deqs, gated int) {
	t.Helper()
	opsPerThread := 24 / threads
	q := New(threads, WithPatience(0), WithMaxSpin(0), WithSegmentShift(2))
	col := lincheck.NewCollector(threads)
	counts := make([][2]int, threads)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < threads; i++ {
		h := mustRegister(t, q)
		log := col.Thread(i)
		rng := workload.NewRNG(seed*7919 + uint64(i))
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			var dst [2]unsafe.Pointer
			for k := 0; k < opsPerThread; k++ {
				op := rng.Intn(8)
				if op < 2 {
					v := uint64(i)<<32 | uint64(k) + 1
					log.Enq(v, func() { q.Enqueue(h, box(int64(v))) })
					continue
				}
				counts[i][0]++
				if h.deqIdle {
					counts[i][1]++
				}
				if op == 2 {
					log.DeqBatch(func() []uint64 {
						n := q.DequeueBatch(h, dst[:])
						got := make([]uint64, n)
						for j := range got {
							got[j] = uint64(unbox(dst[j]))
						}
						return got
					}, len(dst))
					continue
				}
				log.Deq(func() (uint64, bool) {
					p, ok := q.Dequeue(h)
					if !ok {
						return 0, false
					}
					return uint64(unbox(p)), true
				})
			}
		}(i)
	}
	start.Done()
	done.Wait()

	hist := col.History()
	ok, err := lincheck.Check(hist)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("%d threads, seed %d: non-linearizable history:\n%v", threads, seed, hist)
	}
	for _, c := range counts {
		deqs += c[0]
		gated += c[1]
	}
	return deqs, gated
}

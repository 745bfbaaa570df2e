// Package lincheck decides whether a concurrent history of FIFO queue
// operations is linearizable (Herlihy & Wing 1990), the correctness
// condition the paper proves for its queue (§4). The checker is a
// Wing–Gong style search: it tries to pick, among the not-yet-linearized
// operations, one whose invocation precedes every outstanding response and
// whose effect is legal for the current abstract queue state, backtracking
// on failure. Visited (chosen-set, queue-state) pairs are memoized (Lowe's
// optimization), which keeps the brutal-but-small histories used in tests
// tractable.
//
// The checker is exact: it accepts a history if and only if some
// linearization into a sequential FIFO history exists.
package lincheck

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Kind distinguishes operation types.
type Kind int

const (
	// Enq is an enqueue of Op.Value.
	Enq Kind = iota
	// Deq is a dequeue; Op.OK reports whether it returned a value
	// (Op.Value) or EMPTY.
	Deq
	// TryEnqFull is a rejected bounded enqueue: the implementation claimed
	// the queue held its full capacity of values. Legal only under
	// CheckBoundedInFlight, in states where the abstract queue is full once
	// the operations in flight are counted.
	TryEnqFull
)

// Op is one completed operation with its real-time interval.
type Op struct {
	Kind   Kind
	Value  uint64
	OK     bool  // Deq only: false means the operation returned EMPTY
	Start  int64 // invocation timestamp
	End    int64 // response timestamp
	Thread int
}

func (o Op) String() string {
	switch {
	case o.Kind == TryEnqFull:
		return fmt.Sprintf("t%d: TryEnq(%d)=FULL [%d,%d]", o.Thread, o.Value, o.Start, o.End)
	case o.Kind == Enq:
		return fmt.Sprintf("t%d: Enq(%d) [%d,%d]", o.Thread, o.Value, o.Start, o.End)
	case o.OK:
		return fmt.Sprintf("t%d: Deq()=%d [%d,%d]", o.Thread, o.Value, o.Start, o.End)
	default:
		return fmt.Sprintf("t%d: Deq()=EMPTY [%d,%d]", o.Thread, o.Start, o.End)
	}
}

// History is a set of completed operations.
type History []Op

// MaxOps bounds the history size the checker accepts (the chosen-set is a
// 64-bit mask).
const MaxOps = 64

// ErrTooLarge is returned for histories beyond MaxOps operations.
var ErrTooLarge = errors.New("lincheck: history exceeds MaxOps operations")

// Check reports whether the history is linearizable as an unbounded FIFO
// queue: every Enq is legal, and a TryEnqFull op (which claims the queue was
// full) can never linearize.
func Check(h History) (bool, error) {
	return check(h, 0)
}

// CheckBoundedInFlight reports whether the history is linearizable as a FIFO
// queue of the given capacity under the in-flight FULL contract: an Enq is
// legal only in states holding fewer than capacity values, and a TryEnqFull
// op linearizes in any state where the queued values plus the other
// operations whose intervals overlap the rejected call reach capacity. That
// is the contract of a queue that counts its occupancy in a counter each
// operation updates outside its linearization point, so FULL is returned
// with at least capacity − (concurrent operations) values queued.
//
// Every overlapping operation counts, linearized or not: a dequeue that has
// already taken its value still holds its unit of the counter until it
// gives it back, and the values dequeued after it may force it to
// linearize before the rejection (TestBoundedInFlightTakenDequeue).
func CheckBoundedInFlight(h History, capacity int) (bool, error) {
	if capacity < 1 {
		return false, fmt.Errorf("lincheck: CheckBoundedInFlight capacity %d < 1", capacity)
	}
	return check(h, capacity)
}

// check is the shared search entry; capacity 0 means unbounded.
func check(h History, capacity int) (bool, error) {
	n := len(h)
	if n > MaxOps {
		return false, ErrTooLarge
	}
	if n == 0 {
		return true, nil
	}
	// Sort by start time: candidate enumeration visits plausible picks
	// first, and ordering makes the memo keys denser.
	ops := make([]Op, n)
	copy(ops, h)
	sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })

	c := &checker{ops: ops, capacity: capacity, visited: make(map[string]struct{})}
	if capacity > 0 {
		c.overlaps = make([]int, n)
		for i, a := range ops {
			for j, b := range ops {
				if i != j && a.Start <= b.End && b.Start <= a.End {
					c.overlaps[i]++
				}
			}
		}
	}
	return c.dfs(0, nil), nil
}

type checker struct {
	ops      []Op
	capacity int // 0: unbounded
	// overlaps[i] counts the other ops whose intervals overlap op i's; nil
	// on an unbounded queue.
	overlaps []int
	visited  map[string]struct{}
}

// key encodes (mask, queue content) compactly.
func key(mask uint64, queue []uint64) string {
	b := make([]byte, 8, 8+8*len(queue))
	for i := 0; i < 8; i++ {
		b[i] = byte(mask >> (8 * i))
	}
	for _, v := range queue {
		for i := 0; i < 8; i++ {
			b = append(b, byte(v>>(8*i)))
		}
	}
	return string(b)
}

func (c *checker) dfs(mask uint64, queue []uint64) bool {
	n := len(c.ops)
	if mask == 1<<uint(n)-1 {
		return true
	}
	k := key(mask, queue)
	if _, seen := c.visited[k]; seen {
		return false
	}
	c.visited[k] = struct{}{}

	// minEnd over unlinearized ops: an op may only linearize next if its
	// invocation precedes every unlinearized response (otherwise some
	// other operation completed strictly before it began and must come
	// first).
	minEnd := int64(1<<63 - 1)
	for i := 0; i < n; i++ {
		if mask&(1<<uint(i)) == 0 && c.ops[i].End < minEnd {
			minEnd = c.ops[i].End
		}
	}
	for i := 0; i < n; i++ {
		if mask&(1<<uint(i)) != 0 {
			continue
		}
		op := c.ops[i]
		if op.Start > minEnd {
			// ops are start-sorted: no later op can qualify either.
			break
		}
		next, legal := c.apply(i, queue)
		if !legal {
			continue
		}
		if c.dfs(mask|1<<uint(i), next) {
			return true
		}
	}
	return false
}

// apply returns the queue state after op i, and whether it is legal in the
// given state under the checker's capacity (0: unbounded).
func (c *checker) apply(i int, queue []uint64) ([]uint64, bool) {
	op := c.ops[i]
	switch {
	case op.Kind == TryEnqFull:
		// A full verdict is legal only when the queued values and the
		// overlapping operations reach the capacity (never on an unbounded
		// queue).
		if c.capacity == 0 || len(queue)+c.overlaps[i] < c.capacity {
			return nil, false
		}
		return queue, true
	case op.Kind == Enq:
		if c.capacity != 0 && len(queue) >= c.capacity {
			return nil, false
		}
		next := make([]uint64, len(queue)+1)
		copy(next, queue)
		next[len(queue)] = op.Value
		return next, true
	case !op.OK: // Deq -> EMPTY
		if len(queue) != 0 {
			return nil, false
		}
		return queue, true
	default: // Deq -> value
		if len(queue) == 0 || queue[0] != op.Value {
			return nil, false
		}
		next := make([]uint64, len(queue)-1)
		copy(next, queue[1:])
		return next, true
	}
}

// --- history recording ---------------------------------------------------

// Collector gathers per-thread operation logs with a shared monotonic
// clock.
type Collector struct {
	base    time.Time
	threads []*ThreadLog
}

// NewCollector creates a collector for n threads.
func NewCollector(n int) *Collector {
	c := &Collector{base: time.Now()}
	c.threads = make([]*ThreadLog, n)
	for i := range c.threads {
		c.threads[i] = &ThreadLog{c: c, thread: i}
	}
	return c
}

// Now returns nanoseconds since the collector's base time.
func (c *Collector) Now() int64 { return int64(time.Since(c.base)) }

// Thread returns thread i's log. Each log may be used by one goroutine.
func (c *Collector) Thread(i int) *ThreadLog { return c.threads[i] }

// History merges all thread logs.
func (c *Collector) History() History {
	var h History
	for _, t := range c.threads {
		h = append(h, t.ops...)
	}
	return h
}

// ThreadLog records one thread's operations.
type ThreadLog struct {
	c      *Collector
	thread int
	ops    []Op
}

// Enq runs the enqueue closure and records it.
func (t *ThreadLog) Enq(v uint64, run func()) {
	start := t.c.Now()
	run()
	end := t.c.Now()
	t.ops = append(t.ops, Op{Kind: Enq, Value: v, OK: true, Start: start, End: end, Thread: t.thread})
}

// TryEnq runs the bounded-enqueue closure and records the outcome: an Enq
// op when the value was accepted, a TryEnqFull op when it was rejected. It
// returns the closure's verdict.
func (t *ThreadLog) TryEnq(v uint64, run func() bool) bool {
	start := t.c.Now()
	ok := run()
	end := t.c.Now()
	kind := Enq
	if !ok {
		kind = TryEnqFull
	}
	t.ops = append(t.ops, Op{Kind: kind, Value: v, OK: ok, Start: start, End: end, Thread: t.thread})
	return ok
}

// Deq runs the dequeue closure and records its result.
func (t *ThreadLog) Deq(run func() (uint64, bool)) (uint64, bool) {
	start := t.c.Now()
	v, ok := run()
	end := t.c.Now()
	t.ops = append(t.ops, Op{Kind: Deq, Value: v, OK: ok, Start: start, End: end, Thread: t.thread})
	return v, ok
}

// EnqBatch runs the batched-enqueue closure and records one Enq op per
// value, all sharing the call's [start,end] interval. This is the exact
// model of a non-atomic batch: each value has its own linearization point
// somewhere inside the call, in any order consistent with FIFO — and since
// the checker explores all orderings of identical intervals, batch
// implementations that preserve intra-batch order are accepted while any
// lost or duplicated value is rejected.
func (t *ThreadLog) EnqBatch(vs []uint64, run func()) {
	start := t.c.Now()
	run()
	end := t.c.Now()
	for _, v := range vs {
		t.ops = append(t.ops, Op{Kind: Enq, Value: v, OK: true, Start: start, End: end, Thread: t.thread})
	}
}

// DeqBatch runs the batched-dequeue closure and records one Deq op per
// returned value, sharing the call's interval. When the batch comes back
// short — the implementation's claim that the queue was observed EMPTY
// during the call — one EMPTY Deq op is recorded with the same interval,
// so the checker verifies a legal empty linearization point existed.
func (t *ThreadLog) DeqBatch(run func() []uint64, want int) []uint64 {
	start := t.c.Now()
	got := run()
	end := t.c.Now()
	for _, v := range got {
		t.ops = append(t.ops, Op{Kind: Deq, Value: v, OK: true, Start: start, End: end, Thread: t.thread})
	}
	if len(got) < want {
		t.ops = append(t.ops, Op{Kind: Deq, OK: false, Start: start, End: end, Thread: t.thread})
	}
	return got
}

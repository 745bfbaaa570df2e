// Package core implements the wait-free FIFO queue of Yang and
// Mellor-Crummey, "A Wait-free Queue as Fast as Fetch-and-Add"
// (PPoPP 2016), ported line-by-line from the paper's Listings 2-5.
//
// The queue realizes a conceptually infinite array as a singly-linked list
// of fixed-size segments. Head and tail indices H and T are advanced with
// fetch-and-add; an enqueue deposits its value in cell Q[FAA(T)] with a
// single CAS, a dequeue claims the value in cell Q[FAA(H)]. This fast path
// is obstruction-free; wait-freedom comes from the Kogan-Petrank
// fast-path-slow-path construction: after PATIENCE failed fast-path
// attempts an operation publishes a request in its per-thread handle, and
// the ring of peer handles helps pending requests complete within a bounded
// number of steps (§3.2).
//
// Values are stored as unsafe.Pointer. nil is the paper's ⊥; package-level
// sentinels play the roles of ⊤, ⊤e and ⊤d. Callers therefore may not
// enqueue nil; the public wfqueue package boxes arbitrary values.
//
// Concurrency notes for the Go port: the paper assumes sequential
// consistency and relegates fences to its C sources. Go's sync/atomic
// operations are sequentially consistent, so every access to shared words
// here is atomic; the algorithm needs no additional barriers. In particular
// both instances of Dijkstra's protocol (enqueuer reserves cell then checks
// val / dequeuer marks val then checks enq, §3.4; and the analogous
// handshake in reclamation, §3.6) are sound under the SC semantics of
// sync/atomic.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"unsafe"

	"wfqueue/internal/pad"
)

// Default tuning parameters, matching the paper's evaluation (§5.1).
const (
	// DefaultSegmentShift gives N = 2^10 cells per segment.
	DefaultSegmentShift = 10
	// DefaultPatience is the fast-path attempt budget ("WF-10").
	DefaultPatience = 10
	// DefaultMaxSpin is the paper's MAX_SPIN: how many times a dequeuer
	// re-reads a claimed-but-unfilled cell before poisoning it with ⊤.
	// 100 loads ≈ 100ns on the evaluation hosts, about one fast-path
	// enqueue latency — long enough for an in-flight enqueuer to complete
	// its deposit, short enough to stay negligible against a slow path.
	DefaultMaxSpin = 100

	// PatienceCap and MaxSpinCap are the largest values WithPatience and
	// WithMaxSpin accept; larger requests are clamped. They are what the
	// wait-freedom certificate substitutes for PATIENCE and MAX_SPIN, so the
	// certified step bounds hold for every configuration New can build.
	PatienceCap = 16
	MaxSpinCap  = 512
)

// yield parks the calling goroutine when a bounded spin expires; a variable
// so the whitebox spin tests can intercept the fallback.
var yield = runtime.Gosched

// Reserved cell/value sentinels. nil plays ⊥ (and ⊥e, ⊥d); these pointers
// play ⊤, ⊤e and ⊤d. They point at private objects so they can never equal
// a caller-supplied value.
var (
	topVal   = unsafe.Pointer(new(int64)) // ⊤: cell unusable for enqueues
	topEnq   = unsafe.Pointer(new(int64)) // ⊤e: no enqueue request may use the cell
	topDeq   = unsafe.Pointer(new(int64)) // ⊤d: value claimed by a fast-path dequeue
	emptyVal = unsafe.Pointer(new(int64)) // EMPTY: internal "queue was empty" result
)

// state packs a request's (pending, id/idx) pair — the paper's 1+63 bit
// struct — into one CAS-able word.
type state = uint64

const pendingBit state = 1 << 63

func packState(pending bool, id int64) state {
	s := state(id)
	if pending {
		s |= pendingBit
	}
	return s
}

func statePending(s state) bool { return s&pendingBit != 0 }
func stateID(s state) int64     { return int64(s &^ pendingBit) }

// enqReq is the paper's EnqReq: a value and a (pending, id) state. The two
// words are written and read non-atomically with respect to each other; the
// protocol in §3.4 ("Write the proper value in a cell") makes the pairing
// safe: writers store val before state, helpers read state before val.
type enqReq struct {
	val unsafe.Pointer
	// Explicit pad so state stays 8-aligned on 32-bit targets (sync/atomic
	// requires 64-bit operands at 8-aligned addresses under GOARCH=386/arm).
	// Zero-sized on 64-bit, where val already fills 8 bytes.
	_     [8 - unsafe.Sizeof(uintptr(0))]byte
	state state
}

// deqReq is the paper's DeqReq: a request id and a (pending, idx) state.
type deqReq struct {
	id    int64
	state state
}

// cell is one slot of the infinite array: a value and pointers to the
// enqueue/dequeue requests that have reserved it. All three words are
// monotonic in the sense of Invariant 1: once a cell reaches an enqueue
// result state its enq word never changes, and deq is CASed from ⊥d at most
// once. Only val can change twice (⊥ → ⊤ → v) when a helper commits a
// slow-path enqueue into a cell a dequeuer had marked.
type cell struct {
	val unsafe.Pointer // user value, topVal, or nil (⊥)
	enq unsafe.Pointer // *enqReq, topEnq, or nil (⊥e)
	deq unsafe.Pointer // *deqReq, topDeq, or nil (⊥d)
}

// segment is 2^segShift cells plus list linkage. Segment ids increase by
// one along the list; cell Q[i] lives in segment i>>segShift at a slot that
// is a fixed permutation of the offset i&segMask, which keeps consecutive
// indices off each other's cache lines (slotRotation, findCell).
type segment struct {
	id    int64
	next  unsafe.Pointer // *segment
	cells []cell
}

// Handle is a thread's registration with a Queue: its local segment
// pointers, its helping state, and its slot in the helpers' ring. A Handle
// may be used by only one goroutine at a time.
type Handle struct {
	_ pad.CacheLinePad

	// tail and head are this thread's hints into the segment list, used to
	// start cell searches. The owner advances them in findCell; cleaners
	// CAS them forward during reclamation, so access is atomic.
	tail unsafe.Pointer // *segment
	head unsafe.Pointer // *segment

	// hzdp is the hazard pointer of §3.6, stored as a segment id (-1 when
	// idle) rather than a pointer: cleaners re-resolve the id by walking
	// the still-linked list, and the owner's own head/tail/locals keep the
	// segment alive for the GC. Publishing an int64 avoids a GC write
	// barrier on the two publications every operation performs, the Go
	// analogue of the paper's fence-free fast path.
	hzdp int64

	_ pad.CacheLinePad

	// The thread's own slow-path requests. Helpers CAS these words from
	// other threads, so they live on their own cache line: sharing a line
	// with the owner-written fields below would put every helper CAS in
	// false-sharing conflict with the owner's per-operation peer-index and
	// stats writes (caught by the padding audit in padding_test.go).
	enqReq enqReq
	deqReq deqReq

	_ pad.CacheLinePad

	// next links handles in the static helping ring; idx is this handle's
	// position in Queue.handles (both fixed after New).
	next *Handle
	idx  int

	// Enqueue helping state: the peer whose requests this handle will help
	// next (an index into Queue.handles — an integer rather than a pointer
	// so the frequent advance writes take no GC write barrier), and the id
	// of a peer request it tried and failed to reserve a cell for (the
	// paper's h->enq.id).
	enqPeerIdx int
	enqID      int64

	// Dequeue helping state.
	deqPeerIdx int

	// spare is scratch space reused by cleanup to avoid per-call
	// allocation (the C original uses a VLA).
	spare []*Handle

	// scratch holds the slow paths' private segment-list cursors:
	// enqSlow's tail copy ([0]) and helpDeq's announced/candidate cursors
	// ([0]/[1]). They are handle fields rather than stack locals because
	// sync/atomic pointer operations make their address operand escape, so
	// stack cursors would cost one heap allocation per slow-path call —
	// voiding the zero-allocation property the wfqlint escape gate
	// enforces. Only the owner touches them (enqSlow and helpDeq never
	// nest), and each user nils its cursors on return so an idle handle
	// cannot pin retired segments (segments link forward: retaining one
	// retains every later one).
	scratch [2]unsafe.Pointer

	// segCache holds one retired segment for reuse by this handle, the
	// paper's §3.6 per-thread reuse of the last reclaimed segment. Only
	// the handle's owner reads/writes it (newSegment, recycleSegment and
	// freeSegments all run on the owning goroutine), so access is plain.
	segCache *segment

	// Coalescing state (coalesce.go): the producer buffer accumulating
	// enqueues for the next single-FAA flush (cbuf[:clen], cops operations
	// since the last flush toward the deadline) and the drain buffer
	// holding a harvested run of dequeued values (dbuf[dhead:dlen]). All
	// owner-only, fixed-size, never shared — the concurrent protocol only
	// ever sees the flush/refill batch calls.
	cbuf  [CoalesceMaxWindow]unsafe.Pointer
	clen  int32
	cops  int32
	dbuf  [CoalesceMaxWindow]unsafe.Pointer
	dhead int32
	dlen  int32

	q *Queue

	// Lifecycle state (handlepool.go). freeNext links free handles by
	// index+1 (0 terminates); it is written only by the exclusive owner of
	// the slot between a pop and a push, ordered by the publishing CAS. life
	// is the checkout epoch: odd while checked out, even while free,
	// monotonically increasing — the word that makes Release idempotent.
	freeNext uint32
	life     atomic.Uint64

	stats Counters

	_ pad.CacheLinePad
}

// Counters are per-handle instrumentation, aggregated by Queue.Stats to
// regenerate the paper's Table 2. Each counter has a single writer (the
// handle's owner); Stats aggregates across handles and may observe slightly
// stale values while operations are in flight.
type Counters struct {
	EnqFast  uint64 // enqueues completed on the fast path
	EnqSlow  uint64 // enqueues completed on the slow path
	DeqFast  uint64 // dequeues completed on the fast path
	DeqSlow  uint64 // dequeues completed on the slow path
	DeqEmpty uint64 // dequeues that returned EMPTY
	// FastCASFails counts fast-path attempts that failed to claim their
	// cell: an enqueue's value CAS lost, or a dequeue's visit yielded a
	// poisoned cell or a lost claim CAS.
	FastCASFails uint64
	// SpinFallbacks counts helpEnq invocations that exhausted the MAX_SPIN
	// budget waiting for an in-flight enqueuer and yielded the processor
	// before poisoning the cell.
	SpinFallbacks uint64
	HelpEnq       uint64 // slow-path enqueue requests committed by a helper for a peer
	HelpDeq       uint64 // help_deq invocations on behalf of a peer
	Cleanups      uint64 // reclamation passes that freed at least one segment
	Segments      uint64 // segments linked into the list by this handle

	// Memory-path instrumentation: where newSegment got its segment from.
	// SegAllocs counts fresh heap allocations; the two hit counters count
	// reuses, so SegAllocs stabilizing while the hit counters grow is the
	// observable form of the zero-allocation claim.
	SegCacheHits uint64 // segments reused from the per-handle cache
	SegPoolHits  uint64 // segments reused from the shared lock-free pool
	SegAllocs    uint64 // segments freshly heap-allocated

	// Batched-operation instrumentation. The FAA counters cover the fast
	// path only (the batch window and per-item fast retries); slow-path
	// FAAs are uncounted, as on the single-operation path. On an
	// uncontended EnqueueBatch/DequeueBatch of k items, exactly one FAA is
	// issued for the whole batch.
	EnqBatchCalls uint64 // EnqueueBatch invocations taking the native batched path
	EnqBatchFAAs  uint64 // fast-path FAAs on T issued by batched enqueues
	DeqBatchCalls uint64 // DequeueBatch invocations taking the native batched path
	DeqBatchFAAs  uint64 // fast-path FAAs on H issued by batched dequeues

	// Coalescing instrumentation (coalesce.go). Flushes over FlushedVals
	// gives the realized window; DeadlineFlushes counts flushes forced by
	// the op-count latency bound rather than a full window; Refills counts
	// drain-buffer harvests that obtained at least one value.
	CoalesceFlushes         uint64 // producer-buffer flushes (≥1 value each)
	CoalesceFlushedVals     uint64 // values moved by those flushes
	CoalesceDeadlineFlushes uint64 // flushes forced by coalesceDeadline
	CoalesceRefills         uint64 // non-empty drain-buffer refills
}

// Add folds the already-aggregated counters o into c, field by field (used
// by the sharded layer to sum its lanes' Stats snapshots). The whitebox
// counter census asserts — by reflection — that no Counters field is
// missing here or in Queue.Stats.
func (c *Counters) Add(o Counters) {
	c.EnqFast += o.EnqFast
	c.EnqSlow += o.EnqSlow
	c.DeqFast += o.DeqFast
	c.DeqSlow += o.DeqSlow
	c.DeqEmpty += o.DeqEmpty
	c.FastCASFails += o.FastCASFails
	c.SpinFallbacks += o.SpinFallbacks
	c.HelpEnq += o.HelpEnq
	c.HelpDeq += o.HelpDeq
	c.Cleanups += o.Cleanups
	c.Segments += o.Segments
	c.SegCacheHits += o.SegCacheHits
	c.SegPoolHits += o.SegPoolHits
	c.SegAllocs += o.SegAllocs
	c.EnqBatchCalls += o.EnqBatchCalls
	c.EnqBatchFAAs += o.EnqBatchFAAs
	c.DeqBatchCalls += o.DeqBatchCalls
	c.DeqBatchFAAs += o.DeqBatchFAAs
	c.CoalesceFlushes += o.CoalesceFlushes
	c.CoalesceFlushedVals += o.CoalesceFlushedVals
	c.CoalesceDeadlineFlushes += o.CoalesceDeadlineFlushes
	c.CoalesceRefills += o.CoalesceRefills
}

// Queue is the wait-free FIFO queue. Create instances with New; all
// operations go through Handles obtained from Register.
type Queue struct {
	_ pad.CacheLinePad
	// T is the tail index: the next cell an enqueue will try to claim.
	T int64
	_ pad.CacheLinePad
	// H is the head index: the next cell a dequeue will visit.
	H int64
	_ pad.CacheLinePad
	// I is the id of the oldest segment, or -1 while a cleaner runs. It
	// precedes q so the int64 stays 8-aligned on 32-bit targets, where q is
	// only a 4-byte word.
	I int64
	// q points at the oldest segment in the list (the paper's Q).
	q unsafe.Pointer // *segment
	_ pad.CacheLinePad

	segShift   uint
	segMask    int64
	slotRot    uint // findCell's in-segment slot rotation (slotRotation)
	patience   int
	maxSpin    int
	maxGarbage int64
	coalesce   int

	handles []*Handle

	// pool recycles retired segments without locks. See segpool.go.
	pool *segPool

	_ pad.CacheLinePad
	// hfree is the tagged head of the lock-free handle free list
	// (generation:40 | handle index+1:24, 0 index meaning empty; see
	// handlepool.go). It is the one word registration churn hammers, so it
	// gets its own cache line — an acquire/release storm must not invalidate
	// the line the segment-path configuration words above live on. Its
	// atomic.Uint64 type also anchors 8-alignment for the word below on
	// 32-bit targets.
	hfree atomic.Uint64

	reclaimed uint64 // total segments reclaimed (atomic)
	_         pad.CacheLinePad
}

// Option configures a Queue at construction.
type Option func(*config)

type config struct {
	segShift   uint
	patience   int
	maxSpin    int
	maxGarbage int64
	coalesce   int
}

// WithPatience sets the number of extra fast-path attempts before an
// operation falls back to the slow path. 10 is the paper's WF-10
// configuration; 0 is WF-0 (a single fast-path attempt). Values are
// clamped to [0, PatienceCap].
func WithPatience(p int) Option {
	return func(c *config) { c.patience = max(0, min(p, PatienceCap)) }
}

// WithMaxSpin sets the paper's MAX_SPIN: the number of times a dequeuer
// re-reads a cell claimed by an in-flight enqueuer before poisoning it with
// ⊤ and forcing that enqueuer toward another cell (helpEnq, paper line 90).
// After the spin budget expires the dequeuer yields the processor once
// (runtime.Gosched) — on oversubscribed hosts the enqueuer it is waiting
// for may need the timeslice to finish its deposit. The bound keeps the
// operation wait-free. 0 disables both the spin and the yield (poison
// immediately, the pre-tuning behavior). Values are clamped to
// [0, MaxSpinCap]. The default is DefaultMaxSpin.
func WithMaxSpin(n int) Option {
	return func(c *config) { c.maxSpin = max(0, min(n, MaxSpinCap)) }
}

// WithSegmentShift sets the log2 of the per-segment cell count (default 10,
// the paper's N = 2^10). Values are clamped to [1, 20].
func WithSegmentShift(s uint) Option {
	return func(c *config) {
		if s < 1 {
			s = 1
		}
		if s > 20 {
			s = 20
		}
		c.segShift = s
	}
}

// WithMaxGarbage sets the number of retired segments allowed to accumulate
// before a dequeuer attempts reclamation (default 2×maxThreads, following
// the author's reference implementation). Values < 1 are clamped to 1.
func WithMaxGarbage(g int64) Option {
	return func(c *config) {
		if g < 1 {
			g = 1
		}
		c.maxGarbage = g
	}
}

// ErrTooManyHandles is returned by Register once maxThreads handles are
// checked out simultaneously.
var ErrTooManyHandles = errors.New("core: all handles registered; raise maxThreads in New")

// New creates a queue supporting up to maxThreads concurrently registered
// handles. The handle ring is fixed at construction, as in the paper, so
// maxThreads bounds concurrency but handles can be released and re-used.
func New(maxThreads int, opts ...Option) *Queue {
	if maxThreads < 1 {
		maxThreads = 1
	}
	if maxThreads > maxHandleCap {
		// The lock-free handle pool addresses handles with 24-bit indices;
		// ~16.7M concurrent handles is past any realistic helper-ring size
		// (the ring walk is O(maxThreads)).
		maxThreads = maxHandleCap
	}
	cfg := config{
		segShift:   DefaultSegmentShift,
		patience:   DefaultPatience,
		maxSpin:    DefaultMaxSpin,
		maxGarbage: int64(2 * maxThreads),
		coalesce:   1,
	}
	for _, o := range opts {
		o(&cfg)
	}
	q := &Queue{
		segShift:   cfg.segShift,
		segMask:    (1 << cfg.segShift) - 1,
		slotRot:    slotRotation(cfg.segShift),
		patience:   cfg.patience,
		maxSpin:    cfg.maxSpin,
		maxGarbage: cfg.maxGarbage,
		coalesce:   cfg.coalesce,
		// A cleanup retires at most the garbage backlog in one pass, so
		// steady-state traffic essentially never overflows the pool (→ GC).
		// Every handle's cache can hold one more segment, which makes
		// 2·maxGarbage + 2·maxThreads the most the queue keeps for reuse
		// (DESIGN.md §3.2).
		pool: newSegPool(int(2*cfg.maxGarbage) + maxThreads),
	}
	s0 := q.newSegment(nil, 0)
	atomic.StorePointer(&q.q, unsafe.Pointer(s0))

	q.handles = make([]*Handle, maxThreads)
	for i := range q.handles {
		q.handles[i] = &Handle{q: q}
	}
	for i, h := range q.handles {
		h.idx = i
		h.next = q.handles[(i+1)%maxThreads]
		h.enqPeerIdx = (i + 1) % maxThreads
		h.deqPeerIdx = (i + 1) % maxThreads
		atomic.StorePointer(&h.tail, unsafe.Pointer(s0))
		atomic.StorePointer(&h.head, unsafe.Pointer(s0))
		h.hzdp = -1
		h.spare = make([]*Handle, 0, maxThreads)
	}
	// Chain every handle onto the lock-free free list (handle i links to
	// i+1, 1-based; the last links to 0) and publish index 1 as the top.
	for i := 0; i < maxThreads-1; i++ {
		q.handles[i].freeNext = uint32(i + 2)
	}
	q.hfree.Store(1)
	return q
}

// Register checks out a handle. Each concurrent worker needs its own;
// callers return it with Handle.Release when done. It is a veneer over
// AcquireHandle (handlepool.go), kept for API continuity: both are
// lock-free and allocation-free.
func (q *Queue) Register() (*Handle, error) { return q.AcquireHandle() }

// Capacity returns the maximum number of concurrently registered handles.
func (q *Queue) Capacity() int { return len(q.handles) }

// Patience returns the configured fast-path attempt budget.
func (q *Queue) Patience() int { return q.patience }

// MaxSpin returns the configured MAX_SPIN bound.
func (q *Queue) MaxSpin() int { return q.maxSpin }

// SegmentSize returns the number of cells per segment.
func (q *Queue) SegmentSize() int64 { return q.segMask + 1 }

// Size returns an instantaneous approximation of the queue length,
// max(T-H, 0). It is exact only in quiescent states.
func (q *Queue) Size() int64 {
	d := atomic.LoadInt64(&q.T) - atomic.LoadInt64(&q.H)
	if d < 0 {
		return 0
	}
	return d
}

// Stats aggregates all handles' counters.
func (q *Queue) Stats() Counters {
	var total Counters
	for _, h := range q.handles {
		total.EnqFast += ctrLoad(&h.stats.EnqFast)
		total.EnqSlow += ctrLoad(&h.stats.EnqSlow)
		total.DeqFast += ctrLoad(&h.stats.DeqFast)
		total.DeqSlow += ctrLoad(&h.stats.DeqSlow)
		total.DeqEmpty += ctrLoad(&h.stats.DeqEmpty)
		total.FastCASFails += ctrLoad(&h.stats.FastCASFails)
		total.SpinFallbacks += ctrLoad(&h.stats.SpinFallbacks)
		total.HelpEnq += ctrLoad(&h.stats.HelpEnq)
		total.HelpDeq += ctrLoad(&h.stats.HelpDeq)
		total.Cleanups += ctrLoad(&h.stats.Cleanups)
		total.Segments += ctrLoad(&h.stats.Segments)
		total.SegCacheHits += ctrLoad(&h.stats.SegCacheHits)
		total.SegPoolHits += ctrLoad(&h.stats.SegPoolHits)
		total.SegAllocs += ctrLoad(&h.stats.SegAllocs)
		total.EnqBatchCalls += ctrLoad(&h.stats.EnqBatchCalls)
		total.EnqBatchFAAs += ctrLoad(&h.stats.EnqBatchFAAs)
		total.DeqBatchCalls += ctrLoad(&h.stats.DeqBatchCalls)
		total.DeqBatchFAAs += ctrLoad(&h.stats.DeqBatchFAAs)
		total.CoalesceFlushes += ctrLoad(&h.stats.CoalesceFlushes)
		total.CoalesceFlushedVals += ctrLoad(&h.stats.CoalesceFlushedVals)
		total.CoalesceDeadlineFlushes += ctrLoad(&h.stats.CoalesceDeadlineFlushes)
		total.CoalesceRefills += ctrLoad(&h.stats.CoalesceRefills)
	}
	return total
}

// ReclaimedSegments returns the total number of segments retired by the
// memory reclamation scheme since the queue was created.
func (q *Queue) ReclaimedSegments() uint64 { return atomic.LoadUint64(&q.reclaimed) }

// OldestSegmentID returns the id of the oldest live segment (the paper's
// I), or -1 if a cleanup pass is in flight at the instant of the read.
func (q *Queue) OldestSegmentID() int64 { return atomic.LoadInt64(&q.I) }

func (q *Queue) String() string {
	return fmt.Sprintf("core.Queue{patience=%d, N=%d, handles=%d, size≈%d}",
		q.patience, q.SegmentSize(), len(q.handles), q.Size())
}

// Package qtest provides a reusable conformance battery for concurrent FIFO
// queue implementations: sequential semantics, model-based property checks,
// and multi-producer/multi-consumer stress with no-loss/no-duplication and
// per-producer order validation. Every queue in this repository — the
// paper's wait-free queue and all baselines — must pass it.
package qtest

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// Ops is one worker's view of a queue under test. Values are int64 in
// [0, 2^62) so the battery also fits LCRQ's packed-cell value range.
//
// EnqBatch and DeqBatch are optional; when a Maker leaves them nil the
// battery synthesizes them from the single-op closures (mirroring
// qiface.WithBatchFallback), so every queue is exercised through the
// batched surface whether or not it has a native batch path.
type Ops struct {
	Enq func(int64)
	Deq func() (int64, bool)
	// TryEnq enqueues if the queue has room and reports whether it did
	// (a bounded queue's TryEnqueue). Optional: nil on unbounded queues;
	// the full-queue batteries require it.
	TryEnq func(int64) bool
	// EnqBatch enqueues all values in order.
	EnqBatch func([]int64)
	// DeqBatch fills dst from the front and returns the count; a short
	// return means the queue was observed empty during the call.
	DeqBatch func(dst []int64) int
	// Flush publishes any values this worker has buffered locally (an
	// operation-coalescing window) to the shared queue (mirroring
	// qiface.Ops.Flush). Optional: nil on queues without local buffering.
	// The MPMC batteries call it whenever a producer goes idle, so a
	// coalescing queue's trailing partial window is never stranded.
	Flush func()
	// Release returns the worker's registration, freeing its capacity slot
	// for a later registration (mirroring qiface.Ops.Release). Optional:
	// when nil, the churn parts of the battery are skipped.
	Release func()
}

// flush invokes ops.Flush when present: producers exiting their enqueue
// loop call this so locally buffered values reach the shared queue (the
// consumers' accounting waits for every value).
func (o Ops) flush() {
	if o.Flush != nil {
		o.Flush()
	}
}

// withBatch returns ops with nil batch closures synthesized from the
// single-op ones.
func withBatch(ops Ops) Ops {
	if ops.EnqBatch == nil {
		enq := ops.Enq
		ops.EnqBatch = func(vs []int64) {
			for _, v := range vs {
				enq(v)
			}
		}
	}
	if ops.DeqBatch == nil {
		deq := ops.Deq
		ops.DeqBatch = func(dst []int64) int {
			for i := range dst {
				v, ok := deq()
				if !ok {
					return i
				}
				dst[i] = v
			}
			return len(dst)
		}
	}
	return ops
}

// Maker builds a fresh queue sized for n workers and returns a registration
// function handing out per-worker Ops. A register call that finds every
// capacity slot taken returns the zero Ops (churn harnesses over-register
// on purpose and treat the zero Ops as a clean denial); any other failure
// fails the test.
type Maker func(t testing.TB, nworkers int) func() Ops

// Sequential drives n enqueues then n dequeues through one worker and
// checks FIFO order and emptiness at the end.
func Sequential(t *testing.T, mk Maker, n int64) {
	t.Helper()
	ops := mk(t, 1)()
	for i := int64(0); i < n; i++ {
		ops.Enq(i + 1)
	}
	for i := int64(0); i < n; i++ {
		v, ok := ops.Deq()
		if !ok || v != i+1 {
			t.Fatalf("dequeue %d: got (%d,%v), want (%d,true)", i, v, ok, i+1)
		}
	}
	if v, ok := ops.Deq(); ok {
		t.Fatalf("drained queue returned %d", v)
	}
}

// EmptyResilience interleaves dequeues on an empty queue with normal
// traffic: empty dequeues must not corrupt later operations.
func EmptyResilience(t *testing.T, mk Maker, rounds int) {
	t.Helper()
	ops := mk(t, 1)()
	next := int64(1)
	for r := 0; r < rounds; r++ {
		if _, ok := ops.Deq(); ok {
			t.Fatalf("round %d: empty queue returned a value", r)
		}
		ops.Enq(next)
		v, ok := ops.Deq()
		if !ok || v != next {
			t.Fatalf("round %d: got (%d,%v), want (%d,true)", r, v, ok, next)
		}
		next++
	}
}

// QuickModel checks arbitrary single-threaded op interleavings against a
// slice model with testing/quick.
func QuickModel(t *testing.T, mk Maker, maxCount int) {
	t.Helper()
	f := func(opsBytes []byte) bool {
		ops := mk(t, 1)()
		var model []int64
		next := int64(1)
		for _, b := range opsBytes {
			if b%2 == 0 {
				ops.Enq(next)
				model = append(model, next)
				next++
			} else {
				v, ok := ops.Deq()
				if len(model) == 0 {
					if ok {
						return false
					}
				} else {
					if !ok || v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		for _, want := range model {
			v, ok := ops.Deq()
			if !ok || v != want {
				return false
			}
		}
		_, ok := ops.Deq()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Error(err)
	}
}

// MPMC runs producers×perProducer enqueues against consumers concurrent
// dequeuers and validates no loss, no duplication, and per-producer FIFO
// order. Values encode (producer, seq) as producer<<32 | seq+1.
func MPMC(t *testing.T, mk Maker, producers, consumers, perProducer int) {
	t.Helper()
	total := producers * perProducer
	register := mk(t, producers+consumers)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		ops := register()
		wg.Add(1)
		go func(p int, ops Ops) {
			defer wg.Done()
			for s := 0; s < perProducer; s++ {
				ops.Enq(int64(p)<<32 | int64(s+1))
			}
			ops.flush()
		}(p, ops)
	}

	results := make([][]int64, consumers)
	var consumed sync.WaitGroup
	var count int64
	var mu sync.Mutex
	for c := 0; c < consumers; c++ {
		ops := register()
		consumed.Add(1)
		go func(c int, ops Ops) {
			defer consumed.Done()
			var local []int64
			for {
				mu.Lock()
				done := count >= int64(total)
				mu.Unlock()
				if done {
					break
				}
				v, ok := ops.Deq()
				if !ok {
					runtime.Gosched()
					continue
				}
				local = append(local, v)
				mu.Lock()
				count++
				mu.Unlock()
			}
			results[c] = local
		}(c, ops)
	}
	wg.Wait()
	consumed.Wait()

	seen := make(map[int64]bool, total)
	for c, local := range results {
		last := map[int64]int64{}
		for _, v := range local {
			if seen[v] {
				t.Fatalf("value %d dequeued twice", v)
			}
			seen[v] = true
			p, s := v>>32, v&0xffffffff
			if l, ok := last[p]; ok && s <= l {
				t.Fatalf("consumer %d: order violation for producer %d: seq %d after %d", c, p, s, l)
			}
			last[p] = s
		}
	}
	if len(seen) != total {
		t.Fatalf("dequeued %d distinct values, want %d", len(seen), total)
	}
}

// SequentialBatch drives mixed-size batched enqueues and dequeues through
// one worker and checks FIFO order, exact shortfall semantics, and
// emptiness at the end.
func SequentialBatch(t *testing.T, mk Maker, rounds int) {
	t.Helper()
	ops := withBatch(mk(t, 1)())
	sizes := []int{1, 2, 3, 7, 16, 64}
	next := int64(1)
	var model []int64
	for r := 0; r < rounds; r++ {
		k := sizes[r%len(sizes)]
		vs := make([]int64, k)
		for i := range vs {
			vs[i] = next
			model = append(model, next)
			next++
		}
		ops.EnqBatch(vs)

		// Dequeue a batch of a different size to shear the boundaries.
		d := sizes[(r+2)%len(sizes)]
		dst := make([]int64, d)
		n := ops.DeqBatch(dst)
		want := len(model)
		if want > d {
			want = d
		}
		if n != want {
			t.Fatalf("round %d: DeqBatch(%d) = %d, want %d", r, d, n, want)
		}
		for i := 0; i < n; i++ {
			if dst[i] != model[i] {
				t.Fatalf("round %d: dst[%d] = %d, want %d", r, i, dst[i], model[i])
			}
		}
		model = model[n:]
	}
	// Drain and verify emptiness.
	dst := make([]int64, len(model)+8)
	n := ops.DeqBatch(dst)
	if n != len(model) {
		t.Fatalf("drain: got %d, want %d", n, len(model))
	}
	for i, want := range model {
		if dst[i] != want {
			t.Fatalf("drain: dst[%d] = %d, want %d", i, dst[i], want)
		}
	}
	if n := ops.DeqBatch(dst[:4]); n != 0 {
		t.Fatalf("empty DeqBatch = %d, want 0", n)
	}
}

// BatchShortfall checks the batched-dequeue contract: a return shorter than
// the destination implies the queue was observed empty, and a short return
// never loses values.
func BatchShortfall(t *testing.T, mk Maker) {
	t.Helper()
	ops := withBatch(mk(t, 1)())
	ops.EnqBatch([]int64{1, 2, 3})
	dst := make([]int64, 8)
	if n := ops.DeqBatch(dst); n != 3 || dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Fatalf("shortfall: got n=%d dst=%v", n, dst[:3])
	}
	// The queue must remain fully usable after over-asking.
	ops.EnqBatch([]int64{4})
	if v, ok := ops.Deq(); !ok || v != 4 {
		t.Fatalf("after shortfall: got (%d,%v), want (4,true)", v, ok)
	}
}

// MPMCBatch runs batched producers against batched consumers and validates
// no loss, no duplication, and per-producer FIFO order, with the same value
// encoding as MPMC. Batch sizes vary per round to exercise reservation
// windows that span segment boundaries unevenly.
func MPMCBatch(t *testing.T, mk Maker, producers, consumers, perProducer, batch int) {
	t.Helper()
	perProducer -= perProducer % batch // whole batches only
	total := producers * perProducer
	register := mk(t, producers+consumers)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		ops := withBatch(register())
		wg.Add(1)
		go func(p int, ops Ops) {
			defer wg.Done()
			vs := make([]int64, batch)
			for s := 0; s < perProducer; s += batch {
				for i := range vs {
					vs[i] = int64(p)<<32 | int64(s+i+1)
				}
				ops.EnqBatch(vs)
			}
			ops.flush()
		}(p, ops)
	}

	results := make([][]int64, consumers)
	var consumed sync.WaitGroup
	var count int64
	var mu sync.Mutex
	for c := 0; c < consumers; c++ {
		ops := withBatch(register())
		consumed.Add(1)
		go func(c int, ops Ops) {
			defer consumed.Done()
			var local []int64
			dst := make([]int64, batch)
			for {
				mu.Lock()
				done := count >= int64(total)
				mu.Unlock()
				if done {
					break
				}
				n := ops.DeqBatch(dst)
				if n == 0 {
					runtime.Gosched()
					continue
				}
				local = append(local, dst[:n]...)
				mu.Lock()
				count += int64(n)
				mu.Unlock()
			}
			results[c] = local
		}(c, ops)
	}
	wg.Wait()
	consumed.Wait()

	seen := make(map[int64]bool, total)
	for c, local := range results {
		last := map[int64]int64{}
		for _, v := range local {
			if seen[v] {
				t.Fatalf("value %d dequeued twice", v)
			}
			seen[v] = true
			p, s := v>>32, v&0xffffffff
			if l, ok := last[p]; ok && s <= l {
				t.Fatalf("consumer %d: order violation for producer %d: seq %d after %d", c, p, s, l)
			}
			last[p] = s
		}
	}
	if len(seen) != total {
		t.Fatalf("dequeued %d distinct values, want %d", len(seen), total)
	}
}

// ChurnStorm is the goroutine-churn adversary: churners goroutines — more
// than the queue's nworkers capacity — loop register → enqueue/dequeue →
// release for cycles iterations each, modeling a server that spawns a
// short-lived goroutine per request. It validates that capacity denials are
// clean errors (not corruption), that every released slot is reusable (the
// storm must make progress on at most `capacity` concurrent slots), that
// double-Release is a safe no-op, and that nothing is lost: after the storm
// the queue drains to exactly the set of values the churners reported
// enqueueing.
//
// The Maker's register function must hand out Ops with a non-nil Release
// and must report capacity exhaustion by returning a zero Ops (the Maker
// contract) rather than failing the test.
func ChurnStorm(t *testing.T, mk Maker, capacity, churners, cycles int) {
	t.Helper()
	register := mk(t, capacity)
	var wg sync.WaitGroup
	var enqueued, dequeued, acquired, denied int64
	var mu sync.Mutex
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var localE, localD, localA, localN int64
			for i := 0; i < cycles; i++ {
				ops := register()
				if ops.Enq == nil { // capacity denial: retry later
					localN++
					runtime.Gosched()
					continue
				}
				localA++
				v := int64(w)<<32 | int64(i+1)
				ops.Enq(v)
				localE++
				if _, ok := ops.Deq(); ok {
					localD++
				}
				ops.Release()
				if i%16 == 0 {
					ops.Release() // idempotent: must be a safe no-op
				}
			}
			mu.Lock()
			enqueued += localE
			dequeued += localD
			acquired += localA
			denied += localN
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if acquired == 0 {
		t.Fatal("churn storm never acquired a registration")
	}
	// All slots must be free again: capacity registrations succeed, and the
	// queue drains to exactly the outstanding values.
	opss := make([]Ops, 0, capacity)
	for i := 0; i < capacity; i++ {
		ops := register()
		if ops.Enq == nil {
			t.Fatalf("slot %d lost after storm (capacity leaked)", i)
		}
		opss = append(opss, ops)
	}
	rest := int64(0)
	for {
		if _, ok := opss[0].Deq(); !ok {
			break
		}
		rest++
	}
	if dequeued+rest != enqueued {
		t.Fatalf("storm lost values: enqueued %d, dequeued %d + drained %d", enqueued, dequeued, rest)
	}
	for _, ops := range opss {
		ops.Release()
	}
}

// FullQueue is the sequential backpressure battery for bounded queues: fill
// through TryEnq until the first rejection, verify the rejection is sticky,
// drain one value, verify a retry succeeds, then drain and repeat the cycle
// so the queue refills from a drained state. capacity is the queue's
// declared capacity, and a single producer must fill exactly that many
// slots before rejection.
//
// Values go through one worker, so FIFO order of the accepted values is
// checked unconditionally: even per-producer-ordered queues owe a single
// producer/consumer pair strict order.
func FullQueue(t *testing.T, mk Maker, capacity int) {
	t.Helper()
	ops := mk(t, 1)()
	if ops.TryEnq == nil {
		t.Fatal("bounded queue's Ops is missing TryEnq")
	}
	fill := 0
	for fill <= capacity {
		if !ops.TryEnq(int64(fill + 1)) {
			break
		}
		fill++
	}
	if fill > capacity {
		t.Fatalf("accepted %d values, declared capacity %d", fill, capacity)
	}
	if fill == 0 {
		t.Fatal("first TryEnq rejected on an empty queue")
	}
	if fill != capacity {
		t.Fatalf("filled %d slots before rejection, want exactly %d", fill, capacity)
	}
	// A full verdict must be sticky while nothing is drained.
	if ops.TryEnq(int64(fill + 1)) {
		t.Fatal("TryEnq succeeded immediately after reporting full")
	}
	// Drain one, and the freed slot must be enqueueable again.
	v, ok := ops.Deq()
	if !ok || v != 1 {
		t.Fatalf("dequeue after full: got (%d,%v), want (1,true)", v, ok)
	}
	if !ops.TryEnq(int64(fill + 1)) {
		t.Fatal("TryEnq rejected after a drain made room")
	}
	for i := 2; i <= fill+1; i++ {
		v, ok := ops.Deq()
		if !ok || v != int64(i) {
			t.Fatalf("drain %d: got (%d,%v), want (%d,true)", i, v, ok, i)
		}
	}
	if v, ok := ops.Deq(); ok {
		t.Fatalf("drained queue returned %d", v)
	}
	// Repeat whole fill/drain cycles: slot reuse and cycle-tag wrap.
	for r := 0; r < 3; r++ {
		n := 0
		for ops.TryEnq(int64(r)<<32 | int64(n+1)) {
			n++
		}
		if n != capacity {
			t.Fatalf("cycle %d: filled %d, want %d", r, n, capacity)
		}
		for j := 1; j <= n; j++ {
			v, ok := ops.Deq()
			if !ok || v != int64(r)<<32|int64(j) {
				t.Fatalf("cycle %d drain %d: got (%d,%v)", r, j, v, ok)
			}
		}
	}
}

// FullQueueMPMC drives producers through the TryEnq backpressure surface
// (retrying rejections) against concurrent consumers and validates no loss,
// no duplication, and per-producer FIFO order — the full-queue analogue of
// MPMC, proving a rejected enqueue never half-publishes a value.
func FullQueueMPMC(t *testing.T, mk Maker, producers, consumers, perProducer int) {
	t.Helper()
	total := producers * perProducer
	register := mk(t, producers+consumers)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		ops := register()
		if ops.TryEnq == nil {
			t.Fatal("bounded queue's Ops is missing TryEnq")
		}
		wg.Add(1)
		go func(p int, ops Ops) {
			defer wg.Done()
			for s := 0; s < perProducer; s++ {
				v := int64(p)<<32 | int64(s+1)
				for !ops.TryEnq(v) {
					runtime.Gosched()
				}
			}
			ops.flush()
		}(p, ops)
	}

	results := make([][]int64, consumers)
	var consumed sync.WaitGroup
	var count int64
	var mu sync.Mutex
	for c := 0; c < consumers; c++ {
		ops := register()
		consumed.Add(1)
		go func(c int, ops Ops) {
			defer consumed.Done()
			var local []int64
			for {
				mu.Lock()
				done := count >= int64(total)
				mu.Unlock()
				if done {
					break
				}
				v, ok := ops.Deq()
				if !ok {
					runtime.Gosched()
					continue
				}
				local = append(local, v)
				mu.Lock()
				count++
				mu.Unlock()
			}
			results[c] = local
		}(c, ops)
	}
	wg.Wait()
	consumed.Wait()

	seen := make(map[int64]bool, total)
	for c, local := range results {
		last := map[int64]int64{}
		for _, v := range local {
			if seen[v] {
				t.Fatalf("value %d dequeued twice", v)
			}
			seen[v] = true
			p, s := v>>32, v&0xffffffff
			if l, ok := last[p]; ok && s <= l {
				t.Fatalf("consumer %d: order violation for producer %d: seq %d after %d", c, p, s, l)
			}
			last[p] = s
		}
	}
	if len(seen) != total {
		t.Fatalf("dequeued %d distinct values, want %d", len(seen), total)
	}
}

// BoundedBattery runs the backpressure conformance suite on top of Battery's
// concerns: the sequential full/drain-one/retry contract, cycle wrap, and
// the concurrent TryEnq path. capacity is as for FullQueue.
func BoundedBattery(t *testing.T, mk Maker, capacity int) {
	t.Helper()
	per := 5000
	if testing.Short() {
		per = 500
	}
	t.Run("FullQueue", func(t *testing.T) { FullQueue(t, mk, capacity) })
	t.Run("FullQueueMPMC-4x4", func(t *testing.T) { FullQueueMPMC(t, mk, 4, 4, per) })
	t.Run("FullQueueMPMC-8x2", func(t *testing.T) { FullQueueMPMC(t, mk, 8, 2, per/4) })
}

// Battery runs the full conformance suite with sizes scaled by -short.
// Queues whose Ops carry a Release closure additionally get the
// goroutine-churn storm (the handle-lifecycle part of the contract).
func Battery(t *testing.T, mk Maker) {
	t.Helper()
	per := 10000
	quickN := 200
	churnCycles := 150
	if testing.Short() {
		per = 1000
		quickN = 50
		churnCycles = 30
	}
	t.Run("Sequential", func(t *testing.T) { Sequential(t, mk, 2000) })
	t.Run("EmptyResilience", func(t *testing.T) { EmptyResilience(t, mk, 300) })
	t.Run("QuickModel", func(t *testing.T) { QuickModel(t, mk, quickN) })
	t.Run("SequentialBatch", func(t *testing.T) { SequentialBatch(t, mk, 200) })
	t.Run("BatchShortfall", func(t *testing.T) { BatchShortfall(t, mk) })
	t.Run("MPMC-4x4", func(t *testing.T) { MPMC(t, mk, 4, 4, per) })
	t.Run("MPMC-1x8", func(t *testing.T) { MPMC(t, mk, 1, 8, per) })
	t.Run("MPMC-8x1", func(t *testing.T) { MPMC(t, mk, 8, 1, per/4) })
	t.Run("MPMCBatch-4x4", func(t *testing.T) { MPMCBatch(t, mk, 4, 4, per, 8) })
	t.Run("MPMCBatch-2x2", func(t *testing.T) { MPMCBatch(t, mk, 2, 2, per, 13) })
	t.Run("ChurnStorm", func(t *testing.T) {
		if mk(t, 1)().Release == nil {
			t.Skip("queue does not implement Ops.Release")
		}
		ChurnStorm(t, mk, 4, 16, churnCycles)
	})
}

package registry

import (
	"errors"
	"testing"

	"wfqueue/internal/core"
	"wfqueue/internal/qiface"
	"wfqueue/internal/qtest"
	"wfqueue/internal/scq"
)

// realQueues are all registered implementations with actual queue semantics
// (every value enqueued comes back exactly once); the ordering each one
// guarantees is declared in its Factory.Ordering.
func realQueues(t *testing.T) []string {
	var names []string
	for _, n := range qiface.Names() {
		if IsRealQueue(n) {
			names = append(names, n)
		}
	}
	if len(names) < 9 {
		t.Fatalf("expected at least 9 real queues registered, have %v", names)
	}
	return names
}

// fifoQueues are the real queues claiming full linearizable FIFO order —
// the only ones the lincheck harness may be applied to.
func fifoQueues(t *testing.T) []string {
	var names []string
	for _, n := range realQueues(t) {
		if MustLookup(n).Ordering == qiface.OrderFIFO {
			names = append(names, n)
		}
	}
	if len(names) < 9 {
		t.Fatalf("expected at least 9 FIFO queues registered, have %v", names)
	}
	return names
}

func makerFor(name string) qtest.Maker {
	return func(t testing.TB, nworkers int) func() qtest.Ops {
		f, err := qiface.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		q, err := f.New(nworkers)
		if err != nil {
			t.Fatal(err)
		}
		return func() qtest.Ops {
			ops, err := q.Register()
			if err != nil {
				// Capacity denial is a legal outcome the churn harnesses
				// provoke deliberately; per the Maker contract it maps to
				// zero Ops. Anything else is a real failure.
				if errors.Is(err, core.ErrTooManyHandles) || errors.Is(err, scq.ErrTooManyHandles) {
					return qtest.Ops{}
				}
				t.Fatal(err)
			}
			var tryEnq func(int64) bool
			if ops.TryEnqueue != nil {
				tryEnq = func(v int64) bool { return ops.TryEnqueue(uint64(v)) }
			}
			return qtest.Ops{
				Release: ops.Release,
				Flush:   ops.Flush,
				Enq:     func(v int64) { ops.Enqueue(uint64(v)) },
				TryEnq:  tryEnq,
				Deq: func() (int64, bool) {
					v, ok := ops.Dequeue()
					return int64(v), ok
				},
				// Pass the adapter's batch closures through so the battery
				// exercises the native batched path where one exists.
				EnqBatch: func(vs []int64) {
					us := make([]uint64, len(vs))
					for i, v := range vs {
						us[i] = uint64(v)
					}
					ops.EnqueueBatch(us)
				},
				DeqBatch: func(dst []int64) int {
					us := make([]uint64, len(dst))
					n := ops.DequeueBatch(us)
					for i := 0; i < n; i++ {
						dst[i] = int64(us[i])
					}
					return n
				},
			}
		}
	}
}

// TestConformanceAllQueues runs the full battery over every real queue via
// its registry adapter — the cross-implementation integration test. Every
// registered queue guarantees at least per-producer FIFO, which is what the
// battery's MPMC parts validate.
func TestConformanceAllQueues(t *testing.T) {
	for _, name := range realQueues(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			qtest.Battery(t, makerFor(name))
		})
	}
}

func TestFAAAdapterCounts(t *testing.T) {
	f := MustLookup("faa")
	q, err := f.New(1)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	ops.Enqueue(1)
	if _, ok := ops.Dequeue(); !ok {
		t.Fatal("faa dequeue must always succeed")
	}
}

func TestWaitFreeFlags(t *testing.T) {
	waitFree := map[string]bool{
		"wf-10": true, "wf-0": true, "kpqueue": true, "simqueue": true,
		"wf-sharded": true, "wf-sharded-1": true,
		// Coalescing keeps wait-freedom: every buffer bound is compile-time
		// (CoalesceMaxWindow), so a flush/refill is one bounded batch.
		"wf-coalesce": true, "wf-coalesce-w1": true, "wf-coalesce-w4": true,
		"wf-coalesce-w64": true,
		"lcrq":            false, "msqueue": false, "ccqueue": false, "of": false, "faa": false, "chan": false,
		// Honest flag for the SCQ ring: its enqueue side is lock-free
		// (threshold-based livelock freedom), and the dequeue-side helping
		// bound holds under DESIGN.md §7's model, not unconditionally.
		"wf-scq": false,
	}
	for name, want := range waitFree {
		f := MustLookup(name)
		if f.WaitFree != want {
			t.Errorf("%s: WaitFree = %v, want %v", name, f.WaitFree, want)
		}
	}
}

// TestOrderingDeclarations pins each implementation's ordering contract:
// everything is full FIFO except the multi-lane sharded variants, whose
// relaxation is the point.
func TestOrderingDeclarations(t *testing.T) {
	want := map[string]qiface.Ordering{
		"wf-10":        qiface.OrderFIFO,
		"lcrq":         qiface.OrderFIFO,
		"msqueue":      qiface.OrderFIFO,
		"chan":         qiface.OrderFIFO,
		"wf-sharded":   qiface.OrderPerProducer,
		"wf-sharded-1": qiface.OrderFIFO,
		// The single SCQ ring is one linearizable FIFO.
		"wf-scq": qiface.OrderFIFO,
		// Coalescing moves an enqueue's visibility point to the flush, so any
		// window > 1 relaxes to per-producer order (each flush deposits the
		// producer's run in order); window 1 never buffers and stays FIFO.
		"wf-coalesce":     qiface.OrderPerProducer,
		"wf-coalesce-w1":  qiface.OrderFIFO,
		"wf-coalesce-w4":  qiface.OrderPerProducer,
		"wf-coalesce-w64": qiface.OrderPerProducer,
	}
	for name, o := range want {
		if got := MustLookup(name).Ordering; got != o {
			t.Errorf("%s: Ordering = %v, want %v", name, got, o)
		}
	}
}

func TestStatsProvider(t *testing.T) {
	f := MustLookup("wf-0")
	q, _ := f.New(2)
	sp, ok := q.(qiface.StatsProvider)
	if !ok {
		t.Fatal("wf queues must expose stats for Table 2")
	}
	ops, _ := q.Register()
	for i := 0; i < 100; i++ {
		ops.Enqueue(uint64(i))
	}
	for i := 0; i < 100; i++ {
		ops.Dequeue()
	}
	st := sp.Stats()
	if st["enq_fast"]+st["enq_slow"] != 100 {
		t.Errorf("stats enqueues = %d+%d, want 100", st["enq_fast"], st["enq_slow"])
	}
}

// TestBoundedContract pins which implementations declare the capacity
// contract and enforces what the flag promises: instances implement
// qiface.CapacityProvider with a positive capacity, every Ops carries a
// non-nil TryEnqueue, and the full-queue battery holds — fill to rejection,
// sticky full verdict, drain-one/retry, cycle reuse, exact capacity-slot
// accounting, and the concurrent TryEnqueue path.
func TestBoundedContract(t *testing.T) {
	bounded := map[string]bool{
		"wf-scq": true,
	}
	for _, name := range qiface.Names() {
		f := MustLookup(name)
		if f.Bounded != bounded[name] {
			t.Errorf("%s: Bounded = %v, want %v", name, f.Bounded, bounded[name])
		}
	}
	for name := range bounded {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f := MustLookup(name)
			q, err := f.New(2)
			if err != nil {
				t.Fatal(err)
			}
			cp, ok := q.(qiface.CapacityProvider)
			if !ok {
				t.Fatalf("%s does not implement qiface.CapacityProvider", name)
			}
			capacity := cp.Capacity()
			if capacity <= 0 {
				t.Fatalf("Capacity() = %d, want > 0", capacity)
			}
			ops, err := q.Register()
			if err != nil {
				t.Fatal(err)
			}
			if ops.TryEnqueue == nil {
				t.Fatal("bounded factory handed out Ops with nil TryEnqueue")
			}
			ops.Release()
			qtest.BoundedBattery(t, makerFor(name), capacity)
		})
	}
}

// TestSCQArenaSurvivesRejections is the regression test for the arena
// adapter's ErrFull path: a rejected TryEnqueue must not claim an arena
// slot. Otherwise more than arenaSize rejections wrap the arena over the
// slots whose pointers the full ring still holds, and the drain reads back
// the rejected values (the "dequeued twice" failures of the concurrent
// full-queue battery).
func TestSCQArenaSurvivesRejections(t *testing.T) {
	q, err := MustLookup("wf-scq").New(1)
	if err != nil {
		t.Fatal(err)
	}
	capacity := q.(qiface.CapacityProvider).Capacity()
	ops, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Release()
	for i := 0; i < capacity; i++ {
		if !ops.TryEnqueue(uint64(i)) {
			t.Fatalf("TryEnqueue %d rejected below Capacity() = %d", i, capacity)
		}
	}
	rejected := arenaSize + capacity
	for i := 0; i < rejected; i++ {
		if ops.TryEnqueue(1<<40 | uint64(i)) {
			t.Fatalf("TryEnqueue accepted a value into a full ring (attempt %d)", i)
		}
	}
	for i := 0; i < capacity; i++ {
		v, ok := ops.Dequeue()
		if !ok || v != uint64(i) {
			t.Fatalf("dequeue %d after %d rejections: got (%#x, %v), want %d", i, rejected, v, ok, i)
		}
	}
	if v, ok := ops.Dequeue(); ok {
		t.Fatalf("drained ring returned %#x", v)
	}
}

// TestChurnSafeContract pins which implementations declare the
// handle-churn contract, and enforces what the flag promises: a non-nil
// Release on every Ops, idempotence of a double Release, and immediate
// reusability of the released slot's capacity.
func TestChurnSafeContract(t *testing.T) {
	churnSafe := map[string]bool{
		"wf-10": true, "wf-0": true, "wf-10-tiny": true,
		"wf-sharded": true, "wf-sharded-1": true,
		"wf-scq":      true,
		"wf-coalesce": true, "wf-coalesce-w1": true, "wf-coalesce-w4": true, "wf-coalesce-w64": true,
		"of": false, "lcrq": false, "lcrq-gc": false, "msqueue": false, "msqueue-gc": false,
		"ccqueue": false, "kpqueue": false, "faa": false, "simqueue": false, "chan": false,
	}
	for _, name := range qiface.Names() {
		want, pinned := churnSafe[name]
		if !pinned {
			t.Errorf("%s: not pinned in the churn-safety table; declare it", name)
			continue
		}
		f := MustLookup(name)
		if f.ChurnSafe != want {
			t.Errorf("%s: ChurnSafe = %v, want %v", name, f.ChurnSafe, want)
		}
		if !f.ChurnSafe {
			continue
		}
		q, err := f.New(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ops, err := q.Register()
		if err != nil {
			t.Fatalf("%s: Register: %v", name, err)
		}
		if ops.Release == nil {
			t.Errorf("%s: ChurnSafe factory returned nil Release", name)
			continue
		}
		ops.Release()
		ops.Release() // must be a no-op, not a double-free
		ops2, err := q.Register()
		if err != nil {
			t.Errorf("%s: Register after Release denied: %v", name, err)
			continue
		}
		// The double Release above must not have freed ops2's slot: at
		// capacity 1, a third registration has to be denied while ops2 is out.
		if _, err := q.Register(); err == nil {
			t.Errorf("%s: double Release leaked an extra capacity slot", name)
		}
		ops2.Release()
	}
}

func TestLCRQMaxValueDeclared(t *testing.T) {
	f := MustLookup("lcrq")
	if f.MaxValue == 0 {
		t.Error("lcrq must declare its packed-cell MaxValue")
	}
}

func TestRegisterLimitPropagates(t *testing.T) {
	for _, name := range []string{"wf-10", "lcrq", "msqueue", "kpqueue"} {
		f := MustLookup(name)
		q, _ := f.New(1)
		if _, err := q.Register(); err != nil {
			t.Fatalf("%s: first Register failed: %v", name, err)
		}
		if _, err := q.Register(); err == nil {
			t.Errorf("%s: second Register should fail with maxThreads=1", name)
		}
	}
}

// TestNewCheckedCoversRegistry: every registered name builds through
// NewChecked, and the checked queue answers to the same name.
func TestNewCheckedCoversRegistry(t *testing.T) {
	for _, name := range qiface.Names() {
		q, err := NewChecked(name, 1)
		if err != nil {
			t.Errorf("%s: NewChecked: %v", name, err)
			continue
		}
		if q.Name() != name {
			t.Errorf("NewChecked(%q).Name() = %q", name, q.Name())
		}
	}
}

// Checked adapters must be value-exact even with huge outstanding counts
// (far beyond the arena size), which the arena adapters do not promise.
// Every real, unbounded queue of the table is checked; chan blocks and
// wf-scq rejects at capacity, so neither can hold that many values.
func TestNewCheckedValueFidelity(t *testing.T) {
	for _, e := range entries {
		name := e.Name
		if !IsRealQueue(name) || e.Bounded || name == "chan" {
			continue
		}
		q, err := NewChecked(name, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ops, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		const n = arenaSize + 1000 // overflow any per-thread arena
		for i := uint64(0); i < n; i++ {
			ops.Enqueue(i)
		}
		for i := uint64(0); i < n; i++ {
			v, ok := ops.Dequeue()
			if !ok || v != i {
				t.Fatalf("%s: dequeue %d got (%d,%v)", name, i, v, ok)
			}
		}
	}
}

func TestNewCheckedUnknown(t *testing.T) {
	if _, err := NewChecked("no-such", 1); err == nil {
		t.Fatal("unknown queue should error")
	}
}

// TestBatchOpsAllQueues drives every real queue through the batched surface.
// Register now always yields batch closures — native for the wait-free
// queue, synthesized by qiface.WithBatchFallback for the baselines — so the
// harness can treat every implementation uniformly.
func TestBatchOpsAllQueues(t *testing.T) {
	for _, name := range realQueues(t) {
		t.Run(name, func(t *testing.T) {
			q, err := NewChecked(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			ops, err := q.Register()
			if err != nil {
				t.Fatal(err)
			}
			if ops.EnqueueBatch == nil || ops.DequeueBatch == nil {
				t.Fatal("Register must return batch closures (native or fallback)")
			}
			const k = 100
			vs := make([]uint64, k)
			for i := range vs {
				vs[i] = uint64(i + 1)
			}
			ops.EnqueueBatch(vs)
			dst := make([]uint64, k+20)
			// chan is bounded/blocking, so only ask for what was enqueued.
			if name == "chan" {
				dst = dst[:k]
			}
			n := ops.DequeueBatch(dst)
			if n != k {
				t.Fatalf("DequeueBatch = %d, want %d", n, k)
			}
			for i := 0; i < k; i++ {
				if dst[i] != uint64(i+1) {
					t.Fatalf("dst[%d] = %d, want %d", i, dst[i], i+1)
				}
			}
			if name != "chan" {
				if n := ops.DequeueBatch(dst[:4]); n != 0 {
					t.Fatalf("DequeueBatch on drained queue = %d, want 0", n)
				}
			}
		})
	}
}

// TestBatchStatsSingleFAA verifies through the adapter that an uncontended
// batched pair issues exactly one FAA on T and one on H, and that the Stats
// map surfaces the batch counters for Table 2 style reporting.
func TestBatchStatsSingleFAA(t *testing.T) {
	for _, name := range []string{"wf-10", "wf-0"} {
		t.Run(name, func(t *testing.T) {
			q, err := NewChecked(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			ops, err := q.Register()
			if err != nil {
				t.Fatal(err)
			}
			const k = 32
			vs := make([]uint64, k)
			for i := range vs {
				vs[i] = uint64(i)
			}
			ops.EnqueueBatch(vs)
			if n := ops.DequeueBatch(make([]uint64, k)); n != k {
				t.Fatalf("DequeueBatch = %d, want %d", n, k)
			}
			st := q.(qiface.StatsProvider).Stats()
			for key, want := range map[string]uint64{
				"enq_batch_calls": 1,
				"enq_batch_faas":  1,
				"deq_batch_calls": 1,
				"deq_batch_faas":  1,
			} {
				if st[key] != want {
					t.Errorf("stats[%q] = %d, want %d", key, st[key], want)
				}
			}
		})
	}
}

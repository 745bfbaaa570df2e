package sharded

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"wfqueue/internal/core"
	"wfqueue/internal/qtest"
)

// boxed int64 currency for the tests: every value gets its own allocation,
// so read-back is always exact.
func box(v int64) unsafe.Pointer {
	p := new(int64)
	*p = v
	return unsafe.Pointer(p)
}

func unbox(p unsafe.Pointer) int64 { return *(*int64)(p) }

// maker adapts a sharded configuration to the qtest battery.
func maker(opts ...Option) qtest.Maker {
	return func(t testing.TB, nworkers int) func() qtest.Ops {
		q := New(nworkers, opts...)
		return func() qtest.Ops {
			h, err := q.Register()
			if err != nil {
				return qtest.Ops{} // capacity denial (churn storm over-registers)
			}
			return qtest.Ops{
				Release: h.Release,
				Enq:     func(v int64) { q.Enqueue(h, box(v)) },
				Deq: func() (int64, bool) {
					p, ok := q.Dequeue(h)
					if !ok {
						return 0, false
					}
					return unbox(p), true
				},
				EnqBatch: func(vs []int64) {
					ps := make([]unsafe.Pointer, len(vs))
					for i, v := range vs {
						ps[i] = box(v)
					}
					q.EnqueueBatch(h, ps)
				},
				DeqBatch: func(dst []int64) int {
					ps := make([]unsafe.Pointer, len(dst))
					n := q.DequeueBatch(h, ps)
					for i := 0; i < n; i++ {
						dst[i] = unbox(ps[i])
					}
					return n
				},
			}
		}
	}
}

// TestBattery runs the full conformance battery over the home-lane
// configurations: strict single lane, multi-lane, and multi-lane over
// adversarial core lanes (tiny recycled segments) so steal sweeps cross
// segment boundaries and hit recycled memory. Single-worker battery parts
// check exact FIFO (which home-lane dispatch preserves for one handle); the
// MPMC parts check no-loss/no-duplication and per-producer order, the
// sharded ordering contract.
func TestBattery(t *testing.T) {
	configs := map[string][]Option{
		"Lanes1":     {WithLanes(1)},
		"Lanes2":     {WithLanes(2)},
		"Lanes4":     {WithLanes(4)},
		"Lanes3Tiny": {WithLanes(3), WithCoreOptions(core.WithSegmentShift(2), core.WithMaxGarbage(1))},
		// Shift 4: the smallest segment where core's slot map is active.
		"Lanes3Remapped": {WithLanes(3), WithCoreOptions(core.WithSegmentShift(4), core.WithMaxGarbage(1))},
	}
	for name, opts := range configs {
		opts := opts
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			qtest.Battery(t, maker(opts...))
		})
	}
}

func TestLanesDefaultsAndClamping(t *testing.T) {
	if got := New(1).Lanes(); got != DefaultLanes() {
		t.Errorf("default Lanes = %d, want DefaultLanes() = %d", got, DefaultLanes())
	}
	d := DefaultLanes()
	if d < 1 || d > MaxLanes || d&(d-1) != 0 {
		t.Errorf("DefaultLanes() = %d, want a power of two in [1,%d]", d, MaxLanes)
	}
	if d > runtime.GOMAXPROCS(0) {
		t.Errorf("DefaultLanes() = %d > GOMAXPROCS = %d", d, runtime.GOMAXPROCS(0))
	}
	if got := New(1, WithLanes(MaxLanes+100)).Lanes(); got != MaxLanes {
		t.Errorf("oversized WithLanes = %d lanes, want clamp to %d", got, MaxLanes)
	}
	if got := New(1, WithLanes(-3)).Lanes(); got != DefaultLanes() {
		t.Errorf("negative WithLanes = %d lanes, want DefaultLanes()", got)
	}
}

// TestRegisterHoming pins the default homing policy: sequential Registers
// land on lanes 0,1,2,... round-robin, and RegisterOnLane rejects
// out-of-range lanes.
func TestRegisterHoming(t *testing.T) {
	q := New(8, WithLanes(4))
	for i := 0; i < 8; i++ {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		if h.Home() != i%4 {
			t.Errorf("register %d: home = %d, want %d", i, h.Home(), i%4)
		}
	}
	if _, err := q.RegisterOnLane(4); err == nil {
		t.Error("RegisterOnLane(4) with 4 lanes should fail")
	}
	if _, err := q.RegisterOnLane(-1); err == nil {
		t.Error("RegisterOnLane(-1) should fail")
	}
}

// TestRegisterLimitAndRollback: handle capacity is per queue (every lane is
// sized for maxHandles), the capacity error propagates, and a failed
// registration releases the lane handles it already took (so capacity is
// not leaked).
func TestRegisterLimitAndRollback(t *testing.T) {
	q := New(2, WithLanes(3))
	h1, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Register(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Register(); err == nil {
		t.Fatal("third Register with maxHandles=2 should fail")
	}
	// The failed attempt must not have consumed capacity: releasing one
	// handle makes room for exactly one more.
	h1.Release()
	h3, err := q.Register()
	if err != nil {
		t.Fatalf("Register after Release failed: %v", err)
	}
	h3.Release()
	h3.Release() // idempotent: must not panic or double-free the shell
	// The double Release must not have duplicated h3's slot: with h2 still
	// out, exactly one more registration fits.
	ha, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Register(); err == nil {
		t.Fatal("double Release duplicated a shell slot")
	}
	ha.Release()
}

// TestRegisterRollbackOnLaneFailure is the regression test for the handle
// leak: when a lane's core registration fails mid-loop, the handles already
// acquired from earlier lanes must be released and the shell returned. The
// failure cannot happen through the public API (shell capacity counts lane
// capacity), so provoke it whitebox by draining lane 1's core pool
// directly.
func TestRegisterRollbackOnLaneFailure(t *testing.T) {
	q := New(2, WithLanes(2))
	// Steal lane 1's core handles out from under the sharded layer.
	stolen := make([]*core.Handle, 0, 2)
	for {
		ch, err := q.lanes[1].q.Register()
		if err != nil {
			break
		}
		stolen = append(stolen, ch)
	}
	if len(stolen) != 2 {
		t.Fatalf("drained %d core handles from lane 1, want 2", len(stolen))
	}
	if _, err := q.Register(); err == nil {
		t.Fatal("Register with lane 1 drained should fail")
	}
	// Rollback must have returned lane 0's handle AND the shell: after
	// giving lane 1 its handles back, both registrations succeed.
	for _, ch := range stolen {
		ch.Release()
	}
	h1, err := q.Register()
	if err != nil {
		t.Fatalf("Register after rollback failed (lane-0 handle leaked): %v", err)
	}
	h2, err := q.Register()
	if err != nil {
		t.Fatalf("second Register after rollback failed: %v", err)
	}
	h1.Release()
	h2.Release()
}

// TestChurnStorm hammers register/op/release from more goroutines than the
// queue has capacity; every acquire must be matched by a release with no
// slot lost, duplicated, or left half-registered.
func TestChurnStorm(t *testing.T) {
	q := New(3, WithLanes(2))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h, err := q.Register()
				if err != nil {
					runtime.Gosched()
					continue
				}
				q.Enqueue(h, box(int64(w*1000+i)))
				q.Dequeue(h)
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	// Exactly capacity registrations must fit afterwards.
	hs := make([]*Handle, 0, 3)
	for i := 0; i < 3; i++ {
		h, err := q.Register()
		if err != nil {
			t.Fatalf("slot %d lost after storm: %v", i, err)
		}
		hs = append(hs, h)
	}
	if _, err := q.Register(); err == nil {
		t.Fatal("storm duplicated a shell slot")
	}
	for _, h := range hs {
		h.Release()
	}
}

// TestStatsAggregation checks that Stats folds lane core counters and
// handle counters (including released handles) together.
func TestStatsAggregation(t *testing.T) {
	q := New(2, WithLanes(2))
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		q.Enqueue(h, box(i+1))
	}
	for i := 0; i < 10; i++ {
		if _, ok := q.Dequeue(h); !ok {
			t.Fatal("unexpected EMPTY")
		}
	}
	h.Release()
	st := q.Stats()
	if st.Lanes != 2 {
		t.Errorf("Lanes = %d, want 2", st.Lanes)
	}
	if st.Sharded.Enqueues != 10 || st.Sharded.Dequeues != 10 {
		t.Errorf("released handle's counters lost: %+v", st.Sharded)
	}
	if got := st.Core.EnqFast + st.Core.EnqSlow; got != 10 {
		t.Errorf("core enqueues = %d, want 10", got)
	}
	if len(st.StolenFrom) != 2 {
		t.Errorf("StolenFrom has %d entries, want 2", len(st.StolenFrom))
	}
}

func TestSizeAndString(t *testing.T) {
	q := New(2, WithLanes(2))
	h1, _ := q.RegisterOnLane(0)
	h2, _ := q.RegisterOnLane(1)
	q.Enqueue(h1, box(1))
	q.Enqueue(h2, box(2))
	q.Enqueue(h2, box(3))
	if got := q.Size(); got != 3 {
		t.Errorf("Size = %d, want 3", got)
	}
	if s := q.String(); s == "" {
		t.Error("empty String()")
	}
}

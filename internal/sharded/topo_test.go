package sharded

import (
	"math/rand"
	"testing"
	"unsafe"

	"wfqueue/internal/affinity"
)

// fakeTopo8 is the reference test machine: 8 CPUs, SMT pairs, two LLC
// domains (0-3 and 4-7) that are also the two packages/NUMA nodes.
func fakeTopo8() *affinity.Topology {
	infos := make([]affinity.CPUInfo, 8)
	for c := 0; c < 8; c++ {
		infos[c] = affinity.CPUInfo{CPU: c, Pkg: c / 4, Core: c / 2, LLC: c / 4, Node: c / 4}
	}
	return affinity.Build(infos)
}

// fixedCPU returns a CPU source that always reports the given CPU.
func fixedCPU(cpu int) func() (int, bool) {
	return func() (int, bool) { return cpu, true }
}

func TestTopoRegisterHomesInDomain(t *testing.T) {
	topo := fakeTopo8()
	for cpu := 0; cpu < topo.NumCPU(); cpu++ {
		q := New(4, WithLanes(8), WithTopology(topo), WithCPUSource(fixedCPU(cpu)))
		h, err := q.Register()
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		want := topo.LLC(cpu)
		if got := topo.LLC(q.LaneCPU(h.Home())); got != want {
			t.Fatalf("cpu %d homed on lane %d in domain %d, want domain %d", cpu, h.Home(), got, want)
		}
		h.Release()
	}
}

func TestTopoRegisterSpreadsWithinDomain(t *testing.T) {
	topo := fakeTopo8()
	q := New(8, WithLanes(8), WithTopology(topo), WithCPUSource(fixedCPU(1)))
	seen := map[int]int{}
	var hs []*Handle
	for i := 0; i < 8; i++ {
		h, err := q.Register()
		if err != nil {
			t.Fatalf("Register %d: %v", i, err)
		}
		hs = append(hs, h)
		seen[h.Home()]++
	}
	// Domain 0 owns lanes {0,2,4,6} (lane i -> domain i%2): 8 handles from
	// one CPU must round-robin over exactly those four lanes, twice each.
	for _, li := range []int{0, 2, 4, 6} {
		if seen[li] != 2 {
			t.Fatalf("lane %d homed %d handles, want 2 (distribution %v)", li, seen[li], seen)
		}
	}
	for _, h := range hs {
		h.Release()
	}
}

func TestTopoHomeLaneForClampsWildCPUs(t *testing.T) {
	topo := fakeTopo8()
	q := New(2, WithLanes(4), WithTopology(topo))
	for _, cpu := range []int{-1, -100, 8, 17, 1 << 30} {
		li := q.homeLaneFor(cpu)
		if li < 0 || li >= q.Lanes() {
			t.Fatalf("homeLaneFor(%d) = %d, out of range [0,%d)", cpu, li, q.Lanes())
		}
	}
}

func TestTopoMoreDomainsThanLanes(t *testing.T) {
	// 16 CPUs over 4 LLC domains but only 2 lanes: domains 2 and 3 own no
	// lane, so their CPUs must fall back to round-robin over all lanes.
	infos := make([]affinity.CPUInfo, 16)
	for c := 0; c < 16; c++ {
		infos[c] = affinity.CPUInfo{CPU: c, Pkg: c / 8, Core: c / 2, LLC: c / 4, Node: c / 8}
	}
	topo := affinity.Build(infos)
	q := New(4, WithLanes(2), WithTopology(topo), WithCPUSource(fixedCPU(13)))
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		h, err := q.Register()
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		seen[h.Home()] = true
		h.Release()
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("empty-domain fallback did not round-robin over all lanes: %v", seen)
	}
}

// TestTopoStealOrderPermutation is the property test ISSUE.md asks for:
// for every home lane, the steal order visits every other lane exactly once
// and in non-decreasing cache distance, across random topologies and lane
// counts.
func TestTopoStealOrderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		ncpu := 1 + rng.Intn(32)
		infos := make([]affinity.CPUInfo, ncpu)
		for c := 0; c < ncpu; c++ {
			smt := 1 + rng.Intn(2)
			llcSz := 1 + rng.Intn(8)
			pkgSz := llcSz * (1 + rng.Intn(2))
			infos[c] = affinity.CPUInfo{CPU: c, Pkg: c / pkgSz, Core: c / smt, LLC: c / llcSz, Node: c / pkgSz}
		}
		topo := affinity.Build(infos)
		lanes := 1 + rng.Intn(16)
		q := New(1, WithLanes(lanes), WithTopology(topo))
		n := q.Lanes()
		for home := 0; home < n; home++ {
			so := q.StealOrder(home)
			if len(so) != n-1 {
				t.Fatalf("iter %d: StealOrder(%d) has %d entries, want %d", iter, home, len(so), n-1)
			}
			visited := map[int]bool{home: true}
			prev := -1
			for _, li := range so {
				if li < 0 || li >= n || visited[li] {
					t.Fatalf("iter %d: StealOrder(%d) = %v is not a permutation of the other lanes", iter, home, so)
				}
				visited[li] = true
				d := topo.Distance(q.LaneCPU(home), q.LaneCPU(li))
				if d < prev {
					t.Fatalf("iter %d: StealOrder(%d) = %v distance decreased (%d after %d)", iter, home, so, d, prev)
				}
				prev = d
			}
		}
	}
}

func TestTopoStealOrderPrefersNearLanes(t *testing.T) {
	topo := fakeTopo8()
	q := New(1, WithLanes(8), WithTopology(topo))
	// Lane 0 anchors on cpu 0 (domain 0); its same-domain peers are lanes
	// 2, 4, 6 (anchored on domain-0 CPUs) and must all precede the
	// cross-domain lanes 1, 3, 5, 7.
	so := q.StealOrder(0)
	for i, li := range so {
		near := topo.LLC(q.LaneCPU(li)) == topo.LLC(q.LaneCPU(0))
		if i < 3 && !near {
			t.Fatalf("StealOrder(0) = %v: position %d is cross-domain lane %d before the same-domain lanes", so, i, li)
		}
		if i >= 3 && near {
			t.Fatalf("StealOrder(0) = %v: same-domain lane %d sorted after cross-domain lanes", so, li)
		}
	}
}

func TestTopoQueueFunctional(t *testing.T) {
	// Values survive a topology-aware queue with parking: no loss, no
	// duplication, across handles homed via different fake CPUs.
	topo := fakeTopo8()
	cpu := 0
	q := New(8, WithLanes(8), WithTopology(topo), WithParking(),
		WithCPUSource(func() (int, bool) { c := cpu; cpu++; return c % 16, true }))
	const per = 500
	var hs []*Handle
	for i := 0; i < 4; i++ {
		h, err := q.Register()
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		hs = append(hs, h)
	}
	for i, h := range hs {
		for v := 0; v < per; v++ {
			q.Enqueue(h, box(int64(i*per+v)))
		}
	}
	got := map[int64]bool{}
	for _, h := range hs {
		for {
			v, ok := q.Dequeue(h)
			if !ok {
				break
			}
			n := *(*int64)(v)
			if got[n] {
				t.Fatalf("value %d dequeued twice", n)
			}
			got[n] = true
		}
	}
	if len(got) != len(hs)*per {
		t.Fatalf("dequeued %d values, want %d", len(got), len(hs)*per)
	}
	for _, h := range hs {
		h.Release()
	}
}

func TestParkingLadderCounts(t *testing.T) {
	q := New(1, WithLanes(1), WithParking())
	h, err := q.Register()
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	defer h.Release()
	// Drive the empty-rate EWMA over the arming threshold (≥5 windows of
	// pure EMPTY): the long streak lands on the Gosched rung.
	for i := 0; i < 6*parkWindow; i++ {
		if _, ok := q.Dequeue(h); ok {
			t.Fatal("dequeue on an empty queue succeeded")
		}
	}
	st := q.Stats()
	if st.Sharded.ParkYields == 0 {
		t.Fatal("no yields recorded after a long empty streak")
	}
	// A success resets the streak; with the EWMA still armed, the next few
	// EMPTYs climb the spin rungs (Parks, not ParkYields).
	q.Enqueue(h, box(1))
	if _, ok := q.Dequeue(h); !ok {
		t.Fatal("dequeue after enqueue failed")
	}
	before := q.Stats().Sharded.Parks
	for i := 0; i < parkRungs; i++ {
		q.Dequeue(h)
	}
	if after := q.Stats().Sharded.Parks; after <= before {
		t.Fatalf("spin rungs not taken after streak reset: parks %d -> %d", before, after)
	}
}

func TestParkingOffByDefault(t *testing.T) {
	q := New(1, WithLanes(2))
	h, err := q.Register()
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	defer h.Release()
	for i := 0; i < 8*parkWindow; i++ {
		q.Dequeue(h)
	}
	st := q.Stats()
	if st.Sharded.Parks != 0 || st.Sharded.ParkYields != 0 {
		t.Fatalf("parking counters moved without WithParking: %+v", st.Sharded)
	}
}

func TestParkingBatchEmpty(t *testing.T) {
	q := New(1, WithLanes(2), WithParking())
	h, err := q.Register()
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	defer h.Release()
	dst := make([]unsafe.Pointer, 4)
	for i := 0; i < 6*parkWindow; i++ {
		if n := q.DequeueBatch(h, dst); n != 0 {
			t.Fatalf("batch dequeue on an empty queue returned %d", n)
		}
	}
	if st := q.Stats(); st.Sharded.ParkYields == 0 {
		t.Fatal("batched empty dequeues never reached the yield rung")
	}
}

func TestTopoBlindQueueHasNoTables(t *testing.T) {
	q := New(1, WithLanes(4))
	if q.Topology() != nil || q.StealOrder(0) != nil || q.LaneCPU(0) != -1 {
		t.Fatal("topology-blind queue exposes topology state")
	}
}

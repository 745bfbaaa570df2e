package workload

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Pairs.String() != "enqueue-dequeue-pairs" {
		t.Error(Pairs.String())
	}
	if HalfHalf.String() != "50%-enqueues" {
		t.Error(HalfHalf.String())
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind")
	}
}

func TestRNGDeterministicAndDistinct(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(8)
	same := 0
	a = NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 equal values", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Next() == 0 && r.Next() == 0 {
		t.Error("zero seed must still produce a nonzero stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(42)
	for i := 0; i < 10000; i++ {
		v := r.Intn(51)
		if v < 0 || v >= 51 {
			t.Fatalf("Intn(51) = %d out of range", v)
		}
	}
}

func TestBoolRoughlyFair(t *testing.T) {
	r := NewRNG(1)
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	if trues < n*45/100 || trues > n*55/100 {
		t.Errorf("Bool: %d/%d true, want ~50%%", trues, n)
	}
}

func TestSplitExactTotal(t *testing.T) {
	f := func(totalRaw uint16, nRaw uint8) bool {
		total := int(totalRaw)
		n := int(nRaw%64) + 1
		plans := Split(Pairs, total, n, 99)
		sum := 0
		for _, p := range plans {
			sum += p.Ops
		}
		if sum != total {
			return false
		}
		// Even split: max-min <= 1.
		mn, mx := plans[0].Ops, plans[0].Ops
		for _, p := range plans {
			if p.Ops < mn {
				mn = p.Ops
			}
			if p.Ops > mx {
				mx = p.Ops
			}
		}
		return mx-mn <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitSeedsDistinct(t *testing.T) {
	plans := Split(HalfHalf, 1000, 8, 7)
	seen := map[uint64]bool{}
	for _, p := range plans {
		if seen[p.Seed] {
			t.Fatalf("duplicate seed %d", p.Seed)
		}
		seen[p.Seed] = true
	}
}

func TestSplitDegenerate(t *testing.T) {
	if Split(Pairs, 10, 0, 1) != nil {
		t.Error("nthreads=0 should return nil")
	}
}

// Package workload implements the paper's two benchmark workloads (§5.1) and
// the synthetic "work" performed between queue operations:
//
//   - enqueue–dequeue pairs: each iteration is an enqueue followed by a
//     dequeue; 10⁷ pairs split evenly over the threads.
//   - 50% enqueues: each iteration is an enqueue or a dequeue chosen
//     uniformly at random; 10⁷ operations split evenly over the threads.
//
// Between operations each thread spins for a random 50–100 ns to avoid
// artificial "long run" scenarios (Michael & Scott's caveat); the spin time
// is tracked so the harness can exclude it from reported throughput, as the
// paper does.
package workload

import (
	"sync/atomic"
	"time"
)

// Kind selects one of the paper's workloads.
type Kind int

const (
	// Pairs is the enqueue–dequeue pairs benchmark.
	Pairs Kind = iota
	// HalfHalf is the 50%-enqueues benchmark.
	HalfHalf
	// PairsBatched is the pairs benchmark driven through the batched
	// operations: each iteration is an EnqueueBatch of B values followed by
	// a DequeueBatch of B, so one iteration counts as 2B operations. With
	// B=1 it degenerates to Pairs.
	PairsBatched
)

// String returns the workload's conventional name.
func (k Kind) String() string {
	switch k {
	case Pairs:
		return "enqueue-dequeue-pairs"
	case HalfHalf:
		return "50%-enqueues"
	case PairsBatched:
		return "enqueue-dequeue-pairs-batched"
	default:
		return "unknown"
	}
}

// DefaultOps is the paper's operation count: 10⁷ operations (for Pairs,
// 10⁷ pairs, i.e. 2×10⁷ operations) partitioned evenly among threads.
const DefaultOps = 10_000_000

// RNG is a tiny xorshift64* generator. Each worker owns one; it is not safe
// for concurrent use. The zero value is invalid — use NewRNG.
type RNG struct{ s uint64 }

// NewRNG seeds a generator; a zero seed is remapped to a fixed odd constant.
func NewRNG(seed uint64) RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return RNG{s: seed}
}

// Next returns the next pseudo-random 64-bit value.
func (r *RNG) Next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	return int(r.Next() % uint64(n))
}

// Bool returns an unbiased random boolean.
func (r *RNG) Bool() bool { return r.Next()&1 == 0 }

// --- calibrated spin delay ---------------------------------------------

// spinUnit is the calibrated number of spin-loop iterations per nanosecond,
// stored ×1024 for sub-iteration precision. Set once by Calibrate.
var spinUnitX1024 atomic.Uint64

// spinSink defeats dead-code elimination of the spin loop.
var spinSink atomic.Uint64

func spin(iters uint64) {
	var acc uint64
	for i := uint64(0); i < iters; i++ {
		acc += i ^ (acc << 1)
	}
	if acc == 0xdeadbeef {
		spinSink.Add(acc) // never taken in practice; keeps acc live
	}
}

// Calibrate measures the spin-loop speed so Delay can convert nanoseconds to
// iterations. It is idempotent and cheap enough to call from init paths; the
// first call costs a few milliseconds.
func Calibrate() {
	if spinUnitX1024.Load() != 0 {
		return
	}
	const iters = 4 << 20
	best := time.Duration(1<<63 - 1)
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		spin(iters)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	ns := best.Nanoseconds()
	if ns <= 0 {
		ns = 1
	}
	u := iters * 1024 / uint64(ns)
	if u == 0 {
		u = 1
	}
	spinUnitX1024.Store(u)
}

// Delay spins for roughly ns nanoseconds. Calibrate must have been called.
func Delay(ns int) {
	u := spinUnitX1024.Load()
	if u == 0 {
		Calibrate()
		u = spinUnitX1024.Load()
	}
	spin(uint64(ns) * u / 1024)
}

// Work performs the paper's random inter-operation work: a spin of uniform
// random duration in [minNS, maxNS]. It returns the number of nanoseconds of
// work intended, which the harness subtracts from measured wall time.
func Work(r *RNG, minNS, maxNS int) int {
	if maxNS <= minNS {
		Delay(minNS)
		return minNS
	}
	ns := minNS + r.Intn(maxNS-minNS+1)
	Delay(ns)
	return ns
}

// Plan describes one thread's share of a workload.
type Plan struct {
	Kind      Kind
	Ops       int // operations this thread performs (pairs count as 2)
	Seed      uint64
	MinWorkNS int
	MaxWorkNS int
}

// Split partitions totalOps operations of workload k evenly over nthreads
// threads (the remainder goes to the lowest-numbered threads, so the total
// is exact) and assigns distinct seeds derived from baseSeed.
func Split(k Kind, totalOps, nthreads int, baseSeed uint64) []Plan {
	if nthreads <= 0 {
		return nil
	}
	plans := make([]Plan, nthreads)
	base := totalOps / nthreads
	rem := totalOps % nthreads
	for i := range plans {
		ops := base
		if i < rem {
			ops++
		}
		plans[i] = Plan{
			Kind:      k,
			Ops:       ops,
			Seed:      baseSeed + uint64(i)*0x9E3779B97F4A7C15 + 1,
			MinWorkNS: 50,
			MaxWorkNS: 100,
		}
	}
	return plans
}

// Package workload names the paper's two benchmark workloads (§5.1), splits
// a run's operations over its threads, and provides the seeded RNG that the
// benchmarks, wfqstress and the randomized tests draw from:
//
//   - enqueue–dequeue pairs: each iteration is an enqueue followed by a
//     dequeue.
//   - 50% enqueues: each iteration is an enqueue or a dequeue chosen
//     uniformly at random.
//
// The paper also spins for a random 50–100 ns between operations; the
// benchmarks here run the operations back to back (DESIGN.md §10).
package workload

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

// Plan describes one thread's share of a workload.
type Plan struct {
	Kind Kind
	Ops  int // operations this thread performs (pairs count as 2)
	Seed uint64
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
			Kind: k,
			Ops:  ops,
			Seed: baseSeed + uint64(i)*0x9E3779B97F4A7C15 + 1,
		}
	}
	return plans
}

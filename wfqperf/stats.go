package main

import (
	"math"
	"sort"
)

// reservoir keeps a uniform random sample of at most len(buf) values out of
// every value added (Algorithm R), so a run of any length reports
// percentiles over its whole window from a buffer allocated up front.
type reservoir[T any] struct {
	buf []T
	n   uint64
	rng uint64
}

func newReservoir[T any](size int, seed uint64) reservoir[T] {
	return reservoir[T]{buf: make([]T, size), rng: seed | 1}
}

func (r *reservoir[T]) add(x T) {
	if r.n < uint64(len(r.buf)) {
		r.buf[r.n] = x
	} else {
		r.rng = xorshift(r.rng)
		if j := r.rng % (r.n + 1); j < uint64(len(r.buf)) {
			r.buf[j] = x
		}
	}
	r.n++
}

func (r *reservoir[T]) samples() []T {
	return r.buf[:min(r.n, uint64(len(r.buf)))]
}

func (r *reservoir[T]) reset() { r.n = 0 }

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// sample is one latency and the timed interval it ended in.
type sample struct {
	ns int64
	iv int32
}

func nsOf(xs []sample) []int64 {
	ns := make([]int64, len(xs))
	for i, x := range xs {
		ns[i] = x.ns
	}
	return ns
}

// minPerInterval is the fewest samples an interval needs to count in ivP50.
const minPerInterval = 10

// ivP50 is the median, over the intervals with at least minPerInterval
// samples, of each interval's median. Like throughput, it is a median over
// intervals, so a minority of intervals in another host state cannot move it.
func ivP50(xs []sample) float64 {
	by := make([][]int64, intervals)
	for _, x := range xs {
		by[x.iv] = append(by[x.iv], x.ns)
	}
	var meds []float64
	for _, b := range by {
		if len(b) >= minPerInterval {
			sortInts(b)
			meds = append(meds, quantile(b, 0.5))
		}
	}
	return median(meds)
}

// dist summarises a latency sample: the median and the highest of the
// listed percentiles that still has at least minBeyond samples above it,
// with the sample count.
type dist struct {
	N     int
	P50   float64
	TailQ float64 // e.g. 0.999; 0 when the sample is too small for any tail
	Tail  float64
}

const minBeyond = 10

var tailQuantiles = []float64{0.99999, 0.9999, 0.999, 0.99, 0.9}

// summarize sorts xs in place.
func summarize(xs []int64) dist {
	sortInts(xs)
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	d.P50 = quantile(xs, 0.5)
	for _, q := range tailQuantiles {
		if len(xs)-rank(len(xs), q) >= minBeyond {
			d.TailQ, d.Tail = q, quantile(xs, q)
			break
		}
	}
	return d
}

func sortInts(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// rank is the 1-based nearest rank of quantile q in a sample of n.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// quantile returns the nearest-rank q-quantile of the sorted sample xs.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return float64(xs[rank(len(xs), q)-1])
}

// median of xs (sorted in place); the mean of the middle pair for even n.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

package main

import (
	"math"
	"time"

	"wfqueue/internal/core"
)

// A workload is the load two pinned workers put on one queue. Every
// workload makes the same harness calls (worker.enq/worker.deq) against
// whichever rung it is given; the end-to-end run gives it the workload's
// façade.
// BENCHMARK.json and BENCHMARK.md record why each workload is in the set.
type workload struct {
	name   string
	facade rung
	// openLoop workloads send on a schedule; their timed window is a whole
	// number of burst periods per interval.
	openLoop bool
	warm     func(w *worker)
	body     func(w *worker)
}

const (
	warmOps = 1 << 16 // calls per worker in a closed-loop warm-up
	// halfLead bounds how far one worker's enqueues may lead (or trail) its
	// successful dequeues in half, so the queue stays between 0 and
	// 2*halfLead values long instead of following the coin's random walk.
	halfLead = 32
	// boundedEnqs is how many eighths of bounded's coin flips pick Enqueue.
	// With 5/8, the ring fills during the warm-up and stays full, and one
	// Enqueue in five meets ErrFull.
	boundedEnqs = 5
	burstLen    = 1000
	burstPeriod = int64(20 * time.Millisecond)
	meanGapNS   = 1000.0
)

var workloads = []*workload{
	{
		name:   "pairs",
		facade: facade,
		warm: func(w *worker) {
			for i := 0; i < warmOps/2; i++ {
				w.pair()
			}
		},
		body: func(w *worker) {
			for !w.stopped() {
				w.pair()
			}
		},
	},
	{
		name:   "half",
		facade: facade,
		warm: func(w *worker) {
			for i := 0; i < warmOps; i++ {
				w.halfStep()
			}
		},
		body: func(w *worker) {
			for !w.stopped() {
				w.halfStep()
			}
		},
	},
	{
		name:     "handoff",
		facade:   facade,
		openLoop: true,
		warm: func(w *worker) {
			if w.id == 0 {
				w.burst(now())
			} else {
				w.consumeUntil(burstLen)
			}
		},
		body: func(w *worker) {
			if w.id == 0 {
				for start := w.ph.t0; start < w.ph.end; start += burstPeriod {
					w.burst(start)
				}
			} else {
				w.consumeUntil(math.MaxUint64)
			}
		},
	},
	{
		name:   "bounded",
		facade: boundedFacade,
		warm: func(w *worker) {
			for i := 0; i < warmOps; i++ {
				w.boundedStep()
			}
		},
		body: func(w *worker) {
			for !w.stopped() {
				w.boundedStep()
			}
		},
	},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// pair is one Enqueue and one Dequeue. Neither worker holds more than one
// value in the queue, so the Dequeue never finds it empty and a bounded rung
// is never full.
func (w *worker) pair() {
	w.enq(0)
	w.deq()
}

// flip reports whether the worker's next seeded coin, which comes up true
// with probability k/8, does. The stream never repeats within a run: a
// repeating table of flips carried its own small bias through the whole
// run, and in half that moved the queue's length, and so handoff_p50_us,
// from seed to seed.
func (w *worker) flip(k uint64) bool {
	if w.coinLeft == 0 {
		w.coinWord, w.coinLeft = splitmix(&w.coinState), 21
	}
	b := w.coinWord & 7
	w.coinWord >>= 3
	w.coinLeft--
	return b < k
}

// halfStep is one op of half: the seeded coin picks Enqueue or Dequeue,
// unless this worker's lead has reached halfLead either way.
func (w *worker) halfStep() {
	enq := w.flip(4)
	switch {
	case w.lead >= halfLead:
		enq = false
	case w.lead <= -halfLead:
		enq = true
	}
	if enq {
		if w.enq(0) {
			w.lead++
		}
	} else if w.deq() {
		w.lead--
	}
}

// boundedStep is one op of bounded: the seeded coin picks Enqueue with
// probability boundedEnqs/8, else Dequeue. A worker whose Enqueue meets
// ErrFull dequeues instead, taking a value off the full queue itself as a
// task pool runs a task inline when it cannot queue it; the refused value is
// sent on its next Enqueue.
func (w *worker) boundedStep() {
	if !w.flip(boundedEnqs) || !w.enq(0) {
		w.deq()
	}
}

// burst sends burstLen values whose due times follow start by exponential
// gaps, each sent when it is due, and then flushes. A burst fits in a
// bounded rung's ring, so a full ring only means the consumer is a burst
// behind; the send is retried at once.
func (w *worker) burst(start int64) {
	due := start
	for i := 0; i < burstLen; i++ {
		w.rng = xorshift(w.rng)
		u := (float64(w.rng>>11) + 1) / (1 << 53)
		due += int64(-math.Log(u) * meanGapNS)
		t := waitUntil(due)
		w.late.add(w.sample(t-due, t))
		for !w.enq(due) {
		}
	}
	w.p.flush()
	w.publish()
}

// waitUntil spins until the clock reaches t and returns the reading. The
// generator owns its CPU, so it spins through idle phases too: a sleep would
// hand the thread back to the Go scheduler and wake late.
func waitUntil(t int64) int64 {
	for {
		if n := now(); n >= t {
			return n
		}
	}
}

// consumeUntil dequeues until it has received n values (or until stopped).
// After each EMPTY it waits with core.Pause(core.ParkSpinMax), the top spin
// rung of the sharded layer's parking ladder for idle consumers
// (internal/sharded/topo.go, parkEmpty); see BENCHMARK.md for why not the
// runtime.Gosched loop of examples/pipeline.
func (w *worker) consumeUntil(n uint64) {
	for got := uint64(0); got < n && !w.stopped(); {
		if w.deq() {
			got++
		} else {
			w.publish()
			core.Pause(core.ParkSpinMax)
		}
	}
}

package main

import (
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"wfqueue/internal/affinity"
	"wfqueue/internal/core"
)

// stressPeriod is how often TestIdlePollingBurstStress starts a burst:
// shorter than handoff's 20 ms, so more bursts meet a head that ran ahead.
const stressPeriod = int64(5 * time.Millisecond)

// TestIdlePollingBurstStress drives internal/core directly with the shape
// that lost values: one pinned producer sending 1000-value bursts with
// exponential 1 µs gaps, and one consumer goroutine, not locked to a thread,
// that polls with Dequeue and calls runtime.Gosched on EMPTY, as the
// consumers of examples/pipeline do. Between bursts each EMPTY poll burns a
// cell, so every burst opens with the producer's fast path failing and its
// slow path racing the polling consumer. It checks that every value arrives
// once and in order.
//
// On a 2-vCPU host about one 5 s handoff run in eight of this shape lost a
// value inside a burst. helpEnq (internal/core/enqueue.go) is the suspect:
// when its tryToClaimReq fails because the enqueuer claimed its own request
// for the same cell, the next case tests the state read before the claim,
// so the helper returns ⊤ and moves past a cell that then receives the
// value. The reference code re-reads the request after the failed CAS.
//
// Opt-in, because it fails while that is so: WFQPERF_STRESS=60s go test -run Stress .
func TestIdlePollingBurstStress(t *testing.T) {
	d, err := time.ParseDuration(os.Getenv("WFQPERF_STRESS"))
	if err != nil {
		t.Skip("set WFQPERF_STRESS to a duration (for example 60s) to run")
	}
	q := core.New(workers)
	prod, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	cons, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	n := int(int64(d)/stressPeriod) * burstLen
	vals := make([]uint64, n)
	var done atomic.Bool
	pinErr := make(chan error, 1)
	go func() {
		runtime.LockOSThread() // never unlocked: the pinned thread exits with the goroutine
		if err := affinity.PinCompact(affinity.CompactOrder(), 0); err != nil {
			pinErr <- err
			return
		}
		pinErr <- nil
		rng := uint64(1)
		for k, start := 0, now(); k < n; start += stressPeriod {
			due := start
			for i := 0; i < burstLen; i, k = i+1, k+1 {
				rng = xorshift(rng)
				due += int64(-math.Log((float64(rng>>11)+1)/(1<<53)) * meanGapNS)
				waitUntil(due)
				vals[k] = uint64(k)
				q.Enqueue(prod, unsafe.Pointer(&vals[k]))
			}
			waitUntil(start + stressPeriod)
		}
		done.Store(true)
	}()
	if err := <-pinErr; err != nil {
		t.Fatal(err)
	}

	var got, dup, reordered int
	seen := make([]bool, n)
	next := uint64(0)
	for {
		fin := done.Load()
		p, ok := q.Dequeue(cons)
		if !ok {
			if fin {
				break // every enqueue completed before this EMPTY
			}
			runtime.Gosched()
			continue
		}
		k := *(*uint64)(p)
		switch {
		case seen[k]:
			dup++
		case k < next:
			reordered++
			seen[k] = true
			got++
		default:
			seen[k] = true
			got++
			next = k + 1
		}
	}
	if got != n || dup != 0 || reordered != 0 {
		var lost []int
		for k, s := range seen {
			if !s && len(lost) < 10 {
				lost = append(lost, k)
			}
		}
		t.Fatalf("%d values sent in %d bursts: %d received, %d lost (first: %v), %d duplicated, %d reordered",
			n, n/burstLen, got, n-got, lost, dup, reordered)
	}
	t.Logf("%d values in %d bursts, all received once and in order", n, n/burstLen)
}

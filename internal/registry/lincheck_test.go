package registry

import (
	"fmt"
	"sync"
	"testing"

	"wfqueue/internal/core"
	"wfqueue/internal/lincheck"
	"wfqueue/internal/qiface"
	"wfqueue/internal/workload"
)

// runRecordedScenario hammers a fresh queue with nthreads workers doing a
// few random operations each, recording every operation, and checks the
// resulting history for linearizability.
func runRecordedScenario(t *testing.T, name string, nthreads, opsPerThread int, seed uint64) {
	t.Helper()
	q, err := MustLookup(name).New(nthreads)
	if err != nil {
		t.Fatal(err)
	}
	recordScenario(t, name, q, nthreads, opsPerThread, seed)
}

// recordScenario is runRecordedScenario over an already-built queue.
func recordScenario(t *testing.T, name string, q qiface.Queue, nthreads, opsPerThread int, seed uint64) {
	t.Helper()
	col := lincheck.NewCollector(nthreads)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < nthreads; i++ {
		ops, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		log := col.Thread(i)
		rng := workload.NewRNG(seed + uint64(i)*977)
		done.Add(1)
		go func(i int, ops qiface.Ops) {
			defer done.Done()
			start.Wait()
			for k := 0; k < opsPerThread; k++ {
				if rng.Bool() {
					v := uint64(i)<<32 | uint64(k) + 1
					log.Enq(v, func() { ops.Enqueue(v) })
				} else {
					log.Deq(ops.Dequeue)
				}
			}
		}(i, ops)
	}
	start.Done()
	done.Wait()

	h := col.History()
	ok, err := lincheck.Check(h)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("%s: non-linearizable history:\n%v", name, h)
	}
}

// TestLinearizabilityAllQueues records many small brutal histories for each
// queue implementation claiming full FIFO order and verifies each is
// linearizable — the empirical counterpart of the paper's §4 proof. Queues
// with a relaxed ordering contract (wf-sharded multi-lane variants) are
// excluded: they are deliberately not linearizable to a single FIFO queue,
// which is exactly what their qiface.Ordering declaration says. The
// wf-sharded-1 degenerate configuration declares OrderFIFO and so IS
// checked here, discharging the Lanes(1) strictness claim at the registry
// level too (internal/sharded has its own copy of this test).
func TestLinearizabilityAllQueues(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for _, name := range fifoQueues(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for trial := 0; trial < trials; trial++ {
				runRecordedScenario(t, name, 3, 6, uint64(trial)*131+7)
			}
			// A couple of wider, shallower scenarios.
			for trial := 0; trial < trials/4; trial++ {
				runRecordedScenario(t, name, 6, 3, uint64(trial)*733+1)
			}
		})
	}
}

// runRecordedBatchScenario is runRecordedScenario over the batched surface:
// every operation is an EnqueueBatch or DequeueBatch of 1..maxBatch values.
// Each batch value is recorded as an individual op sharing the whole call's
// interval — the exact model of a non-atomic batch — and a short dequeue
// adds one EMPTY op asserting the implementation's emptiness claim.
func runRecordedBatchScenario(t *testing.T, name string, nthreads, opsPerThread, maxBatch int, seed uint64) {
	t.Helper()
	q, err := MustLookup(name).New(nthreads)
	if err != nil {
		t.Fatal(err)
	}
	recordBatchScenario(t, name, q, nthreads, opsPerThread, maxBatch, seed)
}

// recordBatchScenario is runRecordedBatchScenario over an already-built queue.
func recordBatchScenario(t *testing.T, name string, q qiface.Queue, nthreads, opsPerThread, maxBatch int, seed uint64) {
	t.Helper()
	col := lincheck.NewCollector(nthreads)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < nthreads; i++ {
		ops, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		log := col.Thread(i)
		rng := workload.NewRNG(seed + uint64(i)*977)
		done.Add(1)
		go func(i int, ops qiface.Ops) {
			defer done.Done()
			start.Wait()
			next := uint64(1)
			for k := 0; k < opsPerThread; k++ {
				b := int(rng.Next()%uint64(maxBatch)) + 1
				if rng.Bool() {
					vs := make([]uint64, b)
					for j := range vs {
						vs[j] = uint64(i)<<32 | next
						next++
					}
					log.EnqBatch(vs, func() { ops.EnqueueBatch(vs) })
				} else {
					dst := make([]uint64, b)
					log.DeqBatch(func() []uint64 {
						n := ops.DequeueBatch(dst)
						return dst[:n]
					}, b)
				}
			}
		}(i, ops)
	}
	start.Done()
	done.Wait()

	h := col.History()
	ok, err := lincheck.Check(h)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("%s: non-linearizable batched history:\n%v", name, h)
	}
}

// TestBatchLinearizabilityAllQueues validates the batched operations —
// native single-FAA reservations on the wait-free queues, the synthesized
// fallback on every baseline — against the linearizability model. History
// sizing: nthreads*opsPerThread*(maxBatch+1) must stay within
// lincheck.MaxOps.
func TestBatchLinearizabilityAllQueues(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for _, name := range fifoQueues(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for trial := 0; trial < trials; trial++ {
				// Worst case 3 threads * 2 ops * (2+1) = 18 recorded ops —
				// sized like the single-op scenarios; the checker's search
				// is exponential in history length.
				runRecordedBatchScenario(t, name, 3, 2, 2, uint64(trial)*419+11)
			}
			for trial := 0; trial < trials/4; trial++ {
				// Worst case 2 threads * 2 ops * (5+1) = 24 recorded ops.
				runRecordedBatchScenario(t, name, 2, 2, 5, uint64(trial)*523+3)
			}
		})
	}
}

// TestLinearizabilityRemappedSegments runs the single-op and batched
// scenarios over the core queue at shift 4, the smallest segment where
// findCell's slot map is active on 64-bit targets (wf-10-tiny's shift 2 is
// below it), with eager reclamation and recycling so histories cross
// remapped segment boundaries. Patience 0 and 10 cover both paths.
func TestLinearizabilityRemappedSegments(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for _, patience := range []int{0, 10} {
		name := fmt.Sprintf("wf-%d-shift4", patience)
		t.Run(name, func(t *testing.T) {
			build := func(n int) qiface.Queue {
				q, err := coreQueue(core.WithPatience(patience),
					core.WithSegmentShift(4), core.WithMaxGarbage(1))(cfg{name, n, true})
				if err != nil {
					t.Fatal(err)
				}
				return q
			}
			for trial := 0; trial < trials; trial++ {
				recordScenario(t, name, build(3), 3, 6, uint64(trial)*131+7)
				recordBatchScenario(t, name, build(3), 3, 2, 2, uint64(trial)*419+11)
			}
		})
	}
}

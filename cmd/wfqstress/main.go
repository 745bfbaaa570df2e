// Command wfqstress validates queue implementations under sustained load.
// It has two modes:
//
//	stress   (default) multi-producer/multi-consumer accounting: producers
//	         enqueue tagged sequence numbers for a wall-clock duration,
//	         consumers drain; at the end the tool verifies no value was
//	         lost or duplicated and per-producer FIFO order held.
//	lincheck repeated small brutal scenarios whose complete operation
//	         histories are checked for linearizability with the exact
//	         checker in internal/lincheck.
//	stall    the stalled-consumer adversary: repeated cycles in which
//	         producers push tagged sequence numbers while the single
//	         consumer is parked, then the consumer resumes and drains. The
//	         queue buffers the whole phase, so after every drain the tool
//	         can verify that exactly the enqueued values came back — no
//	         loss, no duplication — and that each producer's values stayed
//	         contiguous and in order across the stall. This is the stall
//	         adversary for registered queues; the root package's
//	         TestBoundedStall runs it on the public façades.
//
// Usage:
//
//	wfqstress [-queue wf-10] [-threads 8] [-duration 10s] [-mode stress|lincheck|stall]
//	          [-batch 1] [-seed 1] [-coalesce] [-churn]
//
// With -batch k > 1 both modes drive the queue through the batched
// operations (EnqueueBatch/DequeueBatch): the wait-free queue's native
// single-FAA k-cell reservation, or the single-op fallback for baselines.
//
// -coalesce swaps the selected queue for its operation-coalescing variant
// (wf-10 → wf-coalesce; no other queue has one) and tightens the stress
// audit to exact accounting: producers flush their windows when idle
// (before parking on backpressure) and once after their last enqueue, so
// every produced value must come back — the run fails on any loss or
// duplication, not just duplication, and the per-producer FIFO check
// audits that coalesced runs never reorder within a producer. Stress mode
// only: lincheck needs window 1 (run it directly with -queue
// wf-coalesce-w1), and stall-mode accounting assumes an enqueue is
// visible once it returns, which buffering defers.
//
// -churn makes every stress worker periodically Release its handle and
// Register a fresh one mid-run (every churnEvery values), soaking the
// lock-free handle lifecycle under full queue load. It requires a queue
// declaring qiface.Factory.ChurnSafe. Re-registration may re-home a handle,
// so per-producer order does not span the boundary on OrderPerProducer
// queues: under -churn those are demoted to loss/duplication accounting
// (full-FIFO queues keep their order checks — a single linearizable queue
// orders values no matter which handle enqueued them).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfqueue/internal/lincheck"
	"wfqueue/internal/qiface"
	"wfqueue/internal/registry"
	"wfqueue/internal/workload"
)

func main() {
	queue := flag.String("queue", "wf-10", "queue implementation (see wfqbench list)")
	threads := flag.Int("threads", 2*runtime.NumCPU(), "worker count (half produce, half consume)")
	duration := flag.Duration("duration", 10*time.Second, "stress duration")
	mode := flag.String("mode", "stress", "stress or lincheck")
	batch := flag.Int("batch", 1, "values per batched operation (1 = single-op mode)")
	seed := flag.Uint64("seed", 1, "base RNG seed")
	coalesce := flag.Bool("coalesce", false, "stress: use the queue's operation-coalescing variant with flush-on-idle producers and exact loss/duplication accounting")
	churn := flag.Bool("churn", false, "stress: workers periodically Release and re-Register their handles (needs a ChurnSafe queue)")
	flag.Parse()

	name := *queue
	if *coalesce {
		if *mode != "stress" {
			fatalf("-coalesce is a stress-mode audit (for lincheck use -queue wf-coalesce-w1 directly)")
		}
		name = coalesceVariant(name)
	}
	if !registry.IsRealQueue(name) {
		fatalf("%s is a microbenchmark, not a queue", name)
	}
	if *batch < 1 {
		fatalf("bad -batch %d (must be >= 1)", *batch)
	}
	// Each mode checks an ordering property it can only demand from queues
	// that actually promise it (Factory.Ordering).
	ordering := registry.MustLookup(name).Ordering
	switch *mode {
	case "stress":
		checkOrder := true
		if *churn {
			if !registry.MustLookup(name).ChurnSafe {
				fatalf("%s does not declare ChurnSafe; -churn needs lock-free Register/Release (try wf-10 or wf-sharded)", name)
			}
			if ordering != qiface.OrderFIFO {
				fmt.Printf("stress: -churn re-homes handles across re-registration; demoting %s's %s order to loss/duplication checks\n", name, ordering)
				checkOrder = false
			}
		}
		runStress(name, *threads, *duration, *batch, checkOrder, *churn, *coalesce)
	case "lincheck":
		if ordering != qiface.OrderFIFO {
			fatalf("%s declares %s order; lincheck requires full FIFO linearizability (try wf-sharded-1)", name, ordering)
		}
		runLincheck(name, *duration, *batch, *seed)
	case "stall":
		runStall(name, *threads, *duration)
	default:
		fatalf("unknown mode %q", *mode)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wfqstress: "+format+"\n", args...)
	os.Exit(1)
}

// coalesceVariant maps a fixed queue name to its operation-coalescing
// registry twin. Already-coalesced names map to themselves; names with no
// coalescing twin are an error rather than a silent fallthrough.
func coalesceVariant(name string) string {
	switch name {
	case "wf-10", "wf-coalesce":
		return "wf-coalesce"
	case "wf-coalesce-w1", "wf-coalesce-w4", "wf-coalesce-w64":
		return name
	}
	fatalf("%s has no operation-coalescing variant (have: wf-10)", name)
	return ""
}

// churnEvery is how many values a stress worker moves between -churn
// lifecycle cycles: frequent enough that thousands of Release/Register
// pairs race per second of stress, long enough that the queue stays loaded.
const churnEvery = 1024

// reRegister releases ops and checks out a fresh handle, for -churn workers.
func reRegister(q qiface.Queue, ops qiface.Ops) qiface.Ops {
	if ops.Release == nil {
		fatalf("-churn queue returned Ops without Release")
	}
	ops.Release()
	next, err := q.Register()
	if err != nil {
		// Every worker holds at most one handle and capacity covers them
		// all, so a denial means a Release failed to return its slot.
		fatalf("churn re-register: %v", err)
	}
	return qiface.WithFlushFallback(qiface.WithBatchFallback(next))
}

func runStress(name string, threads int, d time.Duration, batch int, checkOrder, churn, coalesce bool) {
	if threads < 2 {
		threads = 2
	}
	producers := threads / 2
	consumers := threads - producers
	// +1 handle for the drain helper; checked adapters box every value so
	// the accounting below is exact regardless of scheduling.
	q, err := registry.NewChecked(name, threads+1)
	if err != nil {
		fatalf("%v", err)
	}

	note := ""
	if churn {
		note += ", churn"
	}
	if coalesce {
		note += ", coalesce (exact accounting)"
	}
	fmt.Printf("stress: %s, %d producers, %d consumers, batch=%d%s, %v\n",
		name, producers, consumers, batch, note, d)

	var stopProducing atomic.Bool
	var producedTotal, consumedTotal atomic.Int64
	var produced [1 << 16]int64 // per-producer counts (capped)
	if producers > len(produced) {
		fatalf("too many producers")
	}
	// Backpressure bound: keeps the queue's live footprint (and the boxed
	// value population) bounded for arbitrarily long runs.
	const maxOutstanding = 16384
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		ops, err := q.Register()
		if err != nil {
			fatalf("register: %v", err)
		}
		wg.Add(1)
		go func(p int, ops qiface.Ops) {
			defer wg.Done()
			ops = qiface.WithFlushFallback(qiface.WithBatchFallback(ops))
			var seq int64
			vs := make([]uint64, batch)
			for !stopProducing.Load() {
				if producedTotal.Load()-consumedTotal.Load() > maxOutstanding {
					// About to park: a coalescing producer publishes its
					// window first so consumers never starve on values the
					// backpressure count already charges it for.
					ops.Flush()
					for producedTotal.Load()-consumedTotal.Load() > maxOutstanding {
						if stopProducing.Load() {
							break
						}
						runtime.Gosched()
					}
				}
				if batch == 1 {
					seq++
					ops.Enqueue(uint64(p)<<32 | uint64(seq))
					producedTotal.Add(1)
				} else {
					for j := range vs {
						seq++
						vs[j] = uint64(p)<<32 | uint64(seq)
					}
					ops.EnqueueBatch(vs)
					producedTotal.Add(int64(batch))
				}
				if churn && seq%churnEvery < int64(batch) {
					ops = reRegister(q, ops)
				}
			}
			// Publish the final partial window: after this every produced
			// value is visible to consumers, so the post-drain accounting
			// can demand exact recovery.
			ops.Flush()
			atomic.StoreInt64(&produced[p], seq)
		}(p, ops)
	}

	type consumerState struct {
		last  []int64 // per-producer last seen sequence
		count int64
	}
	states := make([]*consumerState, consumers)
	var drained atomic.Bool
	var violations atomic.Int64
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		ops, err := q.Register()
		if err != nil {
			fatalf("register: %v", err)
		}
		st := &consumerState{last: make([]int64, producers)}
		states[c] = st
		cwg.Add(1)
		go func(c int, st *consumerState, ops qiface.Ops) {
			defer cwg.Done()
			ops = qiface.WithBatchFallback(ops)
			dst := make([]uint64, batch)
			for {
				var n int
				if batch == 1 {
					if v, ok := ops.Dequeue(); ok {
						dst[0] = v
						n = 1
					}
				} else {
					n = ops.DequeueBatch(dst)
				}
				if n == 0 {
					if drained.Load() {
						return
					}
					runtime.Gosched()
					continue
				}
				for _, v := range dst[:n] {
					p := int(v >> 32)
					seq := int64(v & 0xffffffff)
					if checkOrder && p < producers && st.last[p] >= seq {
						violations.Add(1)
					}
					if p < producers {
						st.last[p] = seq
					}
					st.count++
					consumedTotal.Add(1)
				}
				if churn && st.count%churnEvery < int64(n) {
					ops = reRegister(q, ops)
				}
			}
		}(c, st, ops)
	}

	time.Sleep(d)
	stopProducing.Store(true)
	wg.Wait()
	// Let consumers drain until the queue reports empty twice in a row.
	// Producers have flushed and joined, so every produced value is visible;
	// the helper's count joins the consumers' for exact accounting.
	var helperDrained int64
	drainOps, err := q.Register()
	if err == nil {
		for {
			if _, ok := drainOps.Dequeue(); !ok {
				break
			}
			helperDrained++
		}
	}
	time.Sleep(100 * time.Millisecond)
	drained.Store(true)
	cwg.Wait()

	var totalProduced, totalConsumed int64
	for p := 0; p < producers; p++ {
		totalProduced += atomic.LoadInt64(&produced[p])
	}
	for _, st := range states {
		totalConsumed += st.count
	}
	orderNote := fmt.Sprintf("order violations: %d", violations.Load())
	if !checkOrder {
		orderNote = "order unchecked (per-producer order does not span re-registration)"
	}
	fmt.Printf("produced %d, consumed %d (%.1f Mops/s), %s\n",
		totalProduced, totalConsumed,
		float64(totalProduced+totalConsumed)/d.Seconds()/1e6, orderNote)
	if checkOrder && violations.Load() > 0 {
		fatalf("FIFO order violations detected")
	}
	// The drain helper may have discarded values, so consumed <= produced.
	if totalConsumed > totalProduced {
		fatalf("consumed more values than produced: duplication")
	}
	if coalesce {
		// Producers flushed before joining and a coalescing handle never
		// reports EMPTY while holding values, so the consumers plus the
		// drain helper must have recovered every produced value exactly
		// once: a shortfall is loss (a window stranded in a buffer), an
		// excess is duplication (a window replayed by a flush retry).
		if got := totalConsumed + helperDrained; got != totalProduced {
			kind := "duplication"
			if got < totalProduced {
				kind = "loss"
			}
			fatalf("coalesce accounting: produced %d but recovered %d (consumers %d + drain helper %d): %s",
				totalProduced, got, totalConsumed, helperDrained, kind)
		}
		fmt.Printf("coalesce: exact recovery, consumers %d + drain helper %d == produced %d\n",
			totalConsumed, helperDrained, totalProduced)
	}
	fmt.Println("OK")
}

// stallOps is how many values each producer enqueues per stall phase. The
// queue buffers them all, so the value also caps the adversary's footprint.
const stallOps = 20000

// runStall repeatedly parks the consumer while producers push, then drains
// and audits: every cycle must recover exactly the values enqueued during
// the stall, in per-producer order.
func runStall(name string, threads int, d time.Duration) {
	producers := threads - 1
	if producers < 1 {
		producers = 1
	}
	// Checked adapters box every value, so accounting is exact.
	q, err := registry.NewChecked(name, producers+1)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("stall: %s, %d producers, 1 parked consumer, %v\n", name, producers, d)

	consumer, err := q.Register()
	if err != nil {
		fatalf("register: %v", err)
	}
	prodOps := make([]qiface.Ops, producers)
	for p := range prodOps {
		ops, err := q.Register()
		if err != nil {
			fatalf("register: %v", err)
		}
		prodOps[p] = ops
	}

	lastSeen := make([]int64, producers) // last drained sequence per producer
	var drainedTotal int64
	cycles := 0
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		// Stall phase: the consumer is parked; each producer enqueues the
		// next stallOps values of its sequence.
		base := uint64(cycles) * stallOps
		cycles++
		var wg sync.WaitGroup
		for p := range prodOps {
			wg.Add(1)
			go func(p int, ops qiface.Ops) {
				defer wg.Done()
				for i := uint64(1); i <= stallOps; i++ {
					ops.Enqueue(uint64(p)<<32 | (base + i))
				}
			}(p, prodOps[p])
		}
		wg.Wait()

		// Drain phase: producers have joined, so the first EMPTY is
		// definitive. Every enqueued value must come back exactly once.
		for {
			v, ok := consumer.Dequeue()
			if !ok {
				break
			}
			p := int(v >> 32)
			s := int64(v & 0xffffffff)
			if p >= producers {
				fatalf("cycle %d: drained alien value %#x", cycles, v)
			}
			if s != lastSeen[p]+1 {
				fatalf("cycle %d: producer %d jumped %d -> %d (loss or reorder across the stall)",
					cycles, p, lastSeen[p], s)
			}
			lastSeen[p] = s
			drainedTotal++
		}
		if enqueued := int64(cycles * stallOps * producers); drainedTotal != enqueued {
			fatalf("cycle %d: enqueued %d values so far but drained %d (loss or duplication)",
				cycles, enqueued, drainedTotal)
		}
	}

	for _, ops := range prodOps {
		if ops.Release != nil {
			ops.Release()
		}
	}
	if consumer.Release != nil {
		consumer.Release()
	}
	fmt.Printf("%d cycles: drained %d; per-producer order held across every stall\n", cycles, drainedTotal)
	fmt.Println("OK")
}

func runLincheck(name string, d time.Duration, batch int, seed uint64) {
	f, err := qiface.Lookup(name)
	if err != nil {
		fatalf("%v", err)
	}
	// Each batched call records up to batch+1 ops (values + a possible
	// EMPTY) sharing one interval; the checker's search is exponential in
	// history length, so keep worst-case histories near the single-op
	// scenarios' size. opsPer*(batch+1) stays around 6-8 per thread.
	const nthreads = 3
	opsPer := 6
	if batch > 1 {
		if batch > 6 {
			fatalf("lincheck mode supports -batch up to 6 (history size limit)")
		}
		opsPer = 8 / (batch + 1)
		if opsPer < 1 {
			opsPer = 1
		}
	}
	fmt.Printf("lincheck: %s, batch=%d for %v\n", name, batch, d)
	deadline := time.Now().Add(d)
	trials := 0
	for time.Now().Before(deadline) {
		trials++
		q, err := f.New(nthreads)
		if err != nil {
			fatalf("%v", err)
		}
		col := lincheck.NewCollector(nthreads)
		var start, done sync.WaitGroup
		start.Add(1)
		for i := 0; i < nthreads; i++ {
			ops, err := q.Register()
			if err != nil {
				fatalf("register: %v", err)
			}
			ops = qiface.WithBatchFallback(ops)
			log := col.Thread(i)
			rng := workload.NewRNG(seed + uint64(trials*nthreads+i))
			done.Add(1)
			go func(i int, ops qiface.Ops) {
				defer done.Done()
				start.Wait()
				next := uint64(1)
				for k := 0; k < opsPer; k++ {
					switch {
					case batch == 1 && rng.Bool():
						v := uint64(i)<<32 | uint64(k+1)
						log.Enq(v, func() { ops.Enqueue(v) })
					case batch == 1:
						log.Deq(ops.Dequeue)
					case rng.Bool():
						b := int(rng.Next()%uint64(batch)) + 1
						vs := make([]uint64, b)
						for j := range vs {
							vs[j] = uint64(i)<<32 | next
							next++
						}
						log.EnqBatch(vs, func() { ops.EnqueueBatch(vs) })
					default:
						b := int(rng.Next()%uint64(batch)) + 1
						dst := make([]uint64, b)
						log.DeqBatch(func() []uint64 {
							n := ops.DequeueBatch(dst)
							return dst[:n]
						}, b)
					}
				}
				// Exercise the lifecycle where the contract offers it; the
				// per-trial queue is discarded either way.
				if ops.Release != nil {
					ops.Release()
				}
			}(i, ops)
		}
		start.Done()
		done.Wait()
		ok, err := lincheck.Check(col.History())
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			fmt.Println("NON-LINEARIZABLE HISTORY:")
			for _, op := range col.History() {
				fmt.Println("  ", op)
			}
			os.Exit(1)
		}
	}
	fmt.Printf("OK: %d histories, all linearizable\n", trials)
}

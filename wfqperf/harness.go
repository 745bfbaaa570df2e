package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"wfqueue/internal/affinity"
)

const (
	// coldPairs is how many Enqueue/Dequeue pairs each worker makes at the
	// end of a set-up: the queue's first use, which touches its first
	// segments and fills the handles' value-box lists.
	coldPairs = 1024
	// sampleEvery: about one call in 64 is timed, and in closed loops about
	// one value in 64 carries the time it was sent.
	sampleEvery = 64
	pubMask     = 63 // a worker publishes its count every 64 calls
	// intervals is the number of equal timed intervals a window is split
	// into; throughput is their median.
	intervals = 30
	resSize   = 1 << 17 // latency samples kept per worker and kind
	spanCap   = 2048    // traced op samples kept per worker
)

var clockBase = time.Now()

// now reads the monotonic clock in ns since clockBase; never 0, which
// val.due reserves for "not sampled".
func now() int64 { return int64(time.Since(clockBase)) + 1 }

// span is one sampled op of a traced run: the harness's workload.op span and
// its one child, the call into the rung.
type span struct {
	trace                              uint64
	opStart, callStart, callEnd, opEnd int64
	deq                                bool
}

type worker struct {
	id     int
	ph     *phase
	p      port
	traced bool
	view   *consumerView // nil on rungs that carry no values

	calls, seq, done uint64
	full, empty      uint64
	lead             int // half: own enqueues minus own successful dequeues
	// The seeded coin (half, bounded): coinWord holds coinLeft unused 3-bit
	// draws from the splitmix stream at coinState.
	coinState, coinWord uint64
	coinLeft            int
	rng                 uint64 // the seeded schedule (handoff gaps)
	// Sampling draws from its own stream so the schedule stays a function of
	// the seed alone, and at random gaps so it cannot lock onto a workload's
	// period (pairs alternates Enqueue and Dequeue).
	srng       uint64
	untilTimed uint64
	untilStamp uint64

	timing     bool // in the timed window: publish records interval boundaries
	liveSample []metrics.Sample

	latEnq, latDeq reservoir[sample] // ns per timed call
	soj            reservoir[sample] // ns from a value's due time to its Dequeue
	late           reservoir[sample] // ns the generator ran behind its schedule
	spans          reservoir[span]

	_   [64]byte
	pub atomic.Uint64 // done, published for the interval reader
	_   [56]byte
}

func newWorker(id int, seed uint64, traced bool) *worker {
	w := &worker{
		id: id, traced: traced,
		rng:        seed | 1,
		srng:       ^seed | 1,
		coinState:  seed,
		latEnq:     newReservoir[sample](resSize, seed+1),
		latDeq:     newReservoir[sample](resSize, seed+2),
		soj:        newReservoir[sample](resSize, seed+3),
		late:       newReservoir[sample](resSize, seed+4),
		liveSample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
	if traced {
		w.spans = newReservoir[span](spanCap, seed+5)
	}
	return w
}

func splitmix(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// resetWindow forgets warm-up samples and counts at the start of the
// timed window.
func (w *worker) resetWindow() {
	w.calls, w.done, w.full, w.empty = 0, 0, 0, 0
	w.pub.Store(0)
	for _, r := range []*reservoir[sample]{&w.latEnq, &w.latDeq, &w.soj, &w.late} {
		r.reset()
	}
	w.spans.reset()
}

func (w *worker) stopped() bool { return w.ph.stop.Load() }

// sample tags a latency of ns that ended at clock reading t with its timed
// interval.
func (w *worker) sample(ns, t int64) sample {
	return sample{ns, int32(min(max((t-w.ph.t0)/w.ph.iv, 0), intervals-1))}
}

// sampled counts down *until and reports true when it reaches zero, then
// restarts it at a uniform gap in [1, 2*sampleEvery-1].
func (w *worker) sampled(until *uint64) bool {
	if *until > 1 {
		*until--
		return false
	}
	w.srng = xorshift(w.srng)
	*until = w.srng%(2*sampleEvery-1) + 1
	return true
}

// publish makes the worker's count visible at interval boundaries, and
// records a boundary that is due.
func (w *worker) publish() {
	w.pub.Store(w.done)
	if w.timing {
		w.tick()
	}
}

// enq sends the worker's next value. due is the value's scheduled send time
// in an open loop, or 0 in a closed loop, where one value in 64 is stamped
// with the time its Enqueue was called. It reports false when a bounded
// rung was full; the same value is sent again on the next call.
func (w *worker) enq(due int64) bool {
	timed := w.sampled(&w.untilTimed)
	w.calls++
	if w.view != nil {
		w.ph.chk.willSend(w.id, w.seq)
	}
	v := val{id: makeID(w.id, w.seq), due: due}
	stamp := due == 0 && w.sampled(&w.untilStamp)
	var ok bool
	if !timed {
		if stamp {
			v.due = now()
		}
		ok = w.p.enqueue(v)
	} else {
		var opStart int64
		if w.traced {
			opStart = now()
		}
		callStart := now()
		if stamp {
			v.due = callStart
		}
		ok = w.p.enqueue(v)
		callEnd := now()
		w.latEnq.add(w.sample(callEnd-callStart, callEnd))
		if w.traced {
			w.record(opStart, callStart, callEnd, false)
		}
	}
	if ok {
		w.seq++
		w.done++
	} else {
		w.full++
	}
	if w.calls&pubMask == 0 {
		w.publish()
	}
	return ok
}

// deq receives one value and reports whether there was one.
func (w *worker) deq() bool {
	timed := w.sampled(&w.untilTimed)
	w.calls++
	var v val
	var ok bool
	if !timed {
		v, ok = w.p.dequeue()
		w.got(v, ok)
	} else {
		var opStart int64
		if w.traced {
			opStart = now()
		}
		callStart := now()
		v, ok = w.p.dequeue()
		callEnd := now()
		w.latDeq.add(w.sample(callEnd-callStart, callEnd))
		w.got(v, ok)
		if w.traced {
			w.record(opStart, callStart, callEnd, true)
		}
	}
	if w.calls&pubMask == 0 {
		w.publish()
	}
	return ok
}

func (w *worker) got(v val, ok bool) {
	if !ok {
		w.empty++
		return
	}
	w.done++
	if w.view != nil {
		w.view.see(v.id)
		if v.due != 0 {
			t := now()
			w.soj.add(w.sample(t-v.due, t))
		}
	}
}

// record keeps a traced op's spans. In a closed loop the harness's own time
// around the call is the generator's lateness: the next call is due the
// moment the previous one returns.
func (w *worker) record(opStart, callStart, callEnd int64, deq bool) {
	opEnd := now()
	w.spans.add(span{uint64(w.id)<<40 | w.calls, opStart, callStart, callEnd, opEnd, deq})
	if !w.ph.wl.openLoop {
		w.late.add(w.sample(opEnd-opStart-(callEnd-callStart), opEnd))
	}
}

// drain receives whatever is left once every worker has stopped sending.
func (w *worker) drain() {
	for {
		v, ok := w.p.dequeue()
		if !ok {
			return
		}
		w.view.see(v.id)
	}
}

// phase is one rung driven by one workload: set-ups, a timed window, and
// the correctness check.
type phase struct {
	wl      *workload
	rg      rung
	chk     *checker
	ws      []*worker
	t0, end int64
	iv      int64 // interval length

	// The workers record the interval boundaries themselves, whichever
	// passes one first: a coordinating goroutine would wait for a P that two
	// spinning pinned workers never give up, up to the scheduler's 10 ms
	// preemption tick per boundary.
	marks    [intervals + 1]mark
	nextMark atomic.Int64

	_    [64]byte
	stop atomic.Bool
	_    [60]byte
}

// mark is the state at one interval boundary.
type mark struct {
	t    int64   // clock reading
	done uint64  // value-moving ops published by then
	live float64 // live heap as of the last collection, bytes
}

// tick records the next interval boundary if the clock has passed it, and
// stops the window at the last one.
func (w *worker) tick() {
	ph := w.ph
	i := ph.nextMark.Load()
	if i > intervals || now() < ph.t0+i*ph.iv || !ph.nextMark.CompareAndSwap(i, i+1) {
		return
	}
	m := &ph.marks[i]
	m.t = now()
	for _, o := range ph.ws {
		m.done += o.pub.Load()
	}
	m.live = liveHeap(w.liveSample)
	if i == intervals {
		ph.stop.Store(true)
	}
}

// phaseResult is everything measured in one phase.
type phaseResult struct {
	rung          string
	setups        []float64 // s per set-up
	rates         []float64 // value-moving ops per interval, Mops/s
	calls, done   uint64    // in the window
	full, empty   uint64
	latEnq        []sample
	latDeq        []sample
	soj, late     []sample
	spans         []span
	c0, c1        map[string]uint64 // layer counters at window start and end
	allocs, bytes uint64            // heap allocations in the window
	gcCycles      uint32
	gcCPUFrac     float64
	retained      float64 // median live heap over the window, minus the pre-construction heap
	tally         tally
}

func (r *phaseResult) mops() float64 { return median(append([]float64(nil), r.rates...)) }

func (r *phaseResult) latAll() []sample {
	return append(append([]sample(nil), r.latEnq...), r.latDeq...)
}

// runPhase sets the rung up `setups` times, keeping the last, and drives it
// through wl for seconds. A set-up builds the queue, starts the workers,
// locks and pins their threads, registers a handle for each, and puts the
// queue into service: coldPairs Enqueue/Dequeue pairs per worker. The
// workload's warm-up follows it, untimed.
func runPhase(wl *workload, rg rung, seconds float64, traced bool, setups int, seed uint64) (*phaseResult, error) {
	ph := &phase{wl: wl, rg: rg}
	ph.ws = make([]*worker, workers)
	for i := range ph.ws {
		ph.ws[i] = newWorker(i, seed*workers+uint64(i)+1, traced)
		ph.ws[i].ph = ph
	}
	window := int64(seconds * 1e9)
	if wl.openLoop {
		block := int64(intervals) * burstPeriod
		window = max(window/block, 1) * block
	}
	ph.iv = window / intervals
	res := &phaseResult{rung: rg.name}
	order := affinity.CompactOrder()
	for s := 0; s < setups; s++ {
		for _, w := range ph.ws {
			w.p, w.view = nil, nil // drop the previous set-up before the baseline
		}
		ph.chk = newChecker(workers)
		runtime.GC()
		runtime.GC()
		base := liveHeap(ph.ws[0].liveSample)

		start := now()
		l, err := rg.open()
		if err != nil {
			return nil, fmt.Errorf("%s: open: %w", rg.name, err)
		}
		cr := ph.launch(l, order)
		if err := cr.ready(); err != nil {
			cr.abandon()
			ph.chk.free()
			return nil, err
		}
		res.setups = append(res.setups, float64(now()-start)/1e9)
		if s < setups-1 {
			cr.abandon()
			ph.chk.free()
			continue
		}
		close(cr.warmCh)
		if err := cr.ready(); err != nil {
			return nil, err
		}
		res.c0 = l.counters()
		// A collection here makes the first live-heap reading include the
		// queue even when the window allocates too little to start one.
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		g0 := readGC()

		ph.t0 = now() + int64(2*time.Millisecond)
		ph.end = ph.t0 + window
		ph.marks = [intervals + 1]mark{}
		ph.nextMark.Store(0)
		cr.begin()
		cr.stopped.Wait()
		var live []float64
		for i := 1; i <= intervals; i++ {
			a, b := ph.marks[i-1], ph.marks[i]
			res.rates = append(res.rates, float64(b.done-a.done)/float64(b.t-a.t)*1e3)
			live = append(live, b.live-base)
		}
		res.retained = median(live)

		res.c1 = l.counters()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		g1 := readGC()
		res.allocs = m1.Mallocs - m0.Mallocs
		res.bytes = m1.TotalAlloc - m0.TotalAlloc
		res.gcCycles = m1.NumGC - m0.NumGC
		if cpu := g1.total - g0.total; cpu > 0 {
			res.gcCPUFrac = (g1.gc - g0.gc) / cpu
		}

		cr.drainAndRelease()
		var views []*consumerView
		for _, w := range ph.ws {
			res.calls += w.calls
			res.done += w.done
			res.full += w.full
			res.empty += w.empty
			res.latEnq = append(res.latEnq, w.latEnq.samples()...)
			res.latDeq = append(res.latDeq, w.latDeq.samples()...)
			res.soj = append(res.soj, w.soj.samples()...)
			res.late = append(res.late, w.late.samples()...)
			res.spans = append(res.spans, w.spans.samples()...)
			if w.view != nil {
				views = append(views, w.view)
			}
		}
		if rg.values {
			res.tally = ph.chk.finish(views)
		}
		ph.chk.free()
		if rg.values && res.done == 0 {
			return nil, fmt.Errorf("%s: no value moved in the timed window", rg.name)
		}
	}
	return res, nil
}

// crew is one set-up's worker goroutines and the gates they pass.
type crew struct {
	ph        *phase
	readyCh   chan error // once put into service, and again once warmed up
	warmCh    chan struct{}
	startCh   chan struct{}
	drainCh   chan struct{}
	abandoned bool
	stopped   sync.WaitGroup // workers that finished the window
	exited    sync.WaitGroup
}

// launch starts the workers: each locks and pins its thread, registers,
// and waits at the warm-up gate; then it warms up and waits at the start
// gate.
func (ph *phase) launch(l layer, order []int) *crew {
	r := &crew{
		ph:      ph,
		readyCh: make(chan error, workers),
		warmCh:  make(chan struct{}),
		startCh: make(chan struct{}),
		drainCh: make(chan struct{}),
	}
	ph.stop.Store(false)
	r.stopped.Add(workers)
	r.exited.Add(workers)
	for _, w := range ph.ws {
		w.seq, w.lead = 0, 0
		w.view = nil
		if ph.rg.values {
			w.view = ph.chk.view()
		}
		go r.work(w, l, order)
	}
	return r
}

func (r *crew) work(w *worker, l layer, order []int) {
	defer r.exited.Done()
	// Never unlocked: the pinned thread exits with this goroutine instead
	// of going on to run other goroutines.
	runtime.LockOSThread()
	if err := affinity.PinCompact(order, w.id); err != nil {
		r.stopped.Done()
		r.readyCh <- fmt.Errorf("pin worker %d: %w", w.id, err)
		return
	}
	p, err := l.register()
	if err != nil {
		r.stopped.Done()
		r.readyCh <- fmt.Errorf("%s: register: %w", r.ph.rg.name, err)
		return
	}
	defer p.release()
	w.p = p
	for i := 0; i < coldPairs; i++ {
		w.pair()
	}
	w.p.flush()
	r.readyCh <- nil
	<-r.warmCh
	if r.abandoned {
		r.stopped.Done()
		return
	}
	r.ph.wl.warm(w)
	w.p.flush()
	w.resetWindow()
	r.readyCh <- nil
	<-r.startCh
	// Spin barrier: both workers start at t0.
	for now() < r.ph.t0 {
	}
	w.timing = true
	w.tick()
	r.ph.wl.body(w)
	w.timing = false
	w.p.flush()
	w.publish()
	if w.view != nil {
		r.ph.chk.prod[w.id].sent = w.seq
	}
	r.stopped.Done()
	<-r.drainCh
	if w.view != nil {
		w.drain()
	}
}

func (r *crew) ready() error {
	var first error
	for range r.ph.ws {
		if err := <-r.readyCh; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (r *crew) begin() { close(r.startCh) }

// abandon ends a set-up whose queue is not measured, before its warm-up.
func (r *crew) abandon() {
	r.abandoned = true
	close(r.warmCh)
	r.exited.Wait()
}

func (r *crew) drainAndRelease() {
	close(r.drainCh)
	r.exited.Wait()
}

// liveHeap is the heap the last collection found live, in bytes. s is the
// caller's one-element sample of /gc/heap/live:bytes, reused so the read
// allocates nothing.
func liveHeap(s []metrics.Sample) float64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

type gcSample struct{ gc, total float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var g gcSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.total = s[1].Value.Float64()
	}
	return g
}

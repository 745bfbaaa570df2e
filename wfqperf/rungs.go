package main

import (
	"errors"
	"unsafe"

	"wfqueue"
	"wfqueue/internal/core"
	"wfqueue/internal/faabench"
	"wfqueue/internal/scq"
	"wfqueue/internal/sharded"
)

// A rung is one layer of the stack driven through its own public API. The
// harness calls every rung through the same port interface, so the call
// overhead is the same on every rung and the noop rung measures it.
type rung struct {
	name string
	// values reports whether the rung carries values the checker verifies;
	// noop and faabench move none.
	values bool
	open   func() (layer, error)
}

type layer interface {
	register() (port, error)
	// counters snapshots the layer's own execution-path counters.
	counters() map[string]uint64
}

type port interface {
	// enqueue returns false when a bounded layer rejected v as full.
	enqueue(v val) bool
	dequeue() (val, bool)
	flush()
	release()
}

const (
	workers       = 2
	boundedCap    = 1024
	coalesceWidth = 16
)

var (
	facade        = rung{"wfqueue", true, openFacade}
	boundedFacade = rung{"wfqueue.bounded", true, openBoundedFacade}
	rungs         = []rung{
		{"noop", false, func() (layer, error) { return noopLayer{}, nil }},
		{"faabench", false, func() (layer, error) { return faaLayer{faabench.New()}, nil }},
		{"core", true, func() (layer, error) { return coreLayer{core.New(workers), false}, nil }},
		{"coalesce", true, func() (layer, error) {
			return coreLayer{core.New(workers, core.WithCoalescing(coalesceWidth)), true}, nil
		}},
		{"sharded", true, func() (layer, error) { return shardedLayer{sharded.New(workers)}, nil }},
		{"scq", true, func() (layer, error) {
			q, err := scq.New(workers, boundedCap)
			return scqLayer{q}, err
		}},
		facade,
		boundedFacade,
	}
)

// noop: harness overhead only.
type noopLayer struct{}
type noopPort struct{}

func (noopLayer) register() (port, error)     { return noopPort{}, nil }
func (noopLayer) counters() map[string]uint64 { return nil }
func (noopPort) enqueue(val) bool             { return true }
func (noopPort) dequeue() (val, bool)         { return val{}, true }
func (noopPort) flush()                       {}
func (noopPort) release()                     {}

// faabench: the paper's FAA floor, one FAA per call.
type faaLayer struct{ b *faabench.Bench }
type faaPort struct{ b *faabench.Bench }

func (l faaLayer) register() (port, error)   { return faaPort(l), nil }
func (faaLayer) counters() map[string]uint64 { return nil }
func (p faaPort) enqueue(val) bool           { p.b.Enqueue(); return true }
func (p faaPort) dequeue() (val, bool)       { p.b.Dequeue(); return val{}, true }
func (faaPort) flush()                       {}
func (faaPort) release()                     {}

// slots hands out the memory the pointer layers' values travel in. Each
// value gets a fresh slot in a block that is never reused: the garbage
// collector frees a block once no queued pointer refers into it. (Reusing
// slots lets a worker that is descheduled while holding values, say in a
// coalescing drain buffer, read a slot after its producer overwrote it.)
const slotBlock = 4096

type slots struct {
	blk *[slotBlock]val
	n   int
}

func (s *slots) put(v val) unsafe.Pointer {
	if s.blk == nil || s.n == slotBlock {
		s.blk, s.n = new([slotBlock]val), 0
	}
	p := &s.blk[s.n]
	s.n++
	*p = v
	return unsafe.Pointer(p)
}

func get(p unsafe.Pointer) val { return *(*val)(p) }

// core, and core with coalescing (CoalescedEnqueue/CoalescedDequeue/Flush).
type coreLayer struct {
	q        *core.Queue
	coalesce bool
}

type corePort struct {
	coreLayer
	h *core.Handle
	s slots
}

func (l coreLayer) register() (port, error) {
	h, err := l.q.Register()
	if err != nil {
		return nil, err
	}
	return &corePort{coreLayer: l, h: h}, nil
}

func (l coreLayer) counters() map[string]uint64 { return coreCounters(l.q.Stats()) }

func coreCounters(c core.Counters) map[string]uint64 {
	return map[string]uint64{
		"enq_fast": c.EnqFast, "enq_slow": c.EnqSlow,
		"deq_fast": c.DeqFast, "deq_slow": c.DeqSlow, "deq_empty": c.DeqEmpty,
		"fast_cas_fails": c.FastCASFails, "spin_fallbacks": c.SpinFallbacks,
		"help_enq": c.HelpEnq, "help_deq": c.HelpDeq,
		"cleanups": c.Cleanups, "segments": c.Segments,
		"flushes": c.CoalesceFlushes, "flushed_vals": c.CoalesceFlushedVals,
	}
}

func (p *corePort) enqueue(v val) bool {
	if p.coalesce {
		p.q.CoalescedEnqueue(p.h, p.s.put(v))
	} else {
		p.q.Enqueue(p.h, p.s.put(v))
	}
	return true
}

func (p *corePort) dequeue() (val, bool) {
	var ptr unsafe.Pointer
	var ok bool
	if p.coalesce {
		ptr, ok = p.q.CoalescedDequeue(p.h)
	} else {
		ptr, ok = p.q.Dequeue(p.h)
	}
	if !ok {
		return val{}, false
	}
	return get(ptr), true
}

func (p *corePort) flush() {
	if p.coalesce {
		p.q.Flush(p.h)
	}
}

func (p *corePort) release() { p.h.Release() }

// sharded, with its defaults (home-lane dispatch keeps per-producer order).
type shardedLayer struct{ q *sharded.Queue }

type shardedPort struct {
	q *sharded.Queue
	h *sharded.Handle
	s slots
}

func (l shardedLayer) register() (port, error) {
	h, err := l.q.Register()
	if err != nil {
		return nil, err
	}
	return &shardedPort{q: l.q, h: h}, nil
}

func (l shardedLayer) counters() map[string]uint64 {
	st := l.q.Stats().Sharded
	return map[string]uint64{
		"enqueues": st.Enqueues, "dequeues": st.Dequeues,
		"empty_dequeues": st.EmptyDequeues, "steals": st.Steals,
	}
}

func (p *shardedPort) enqueue(v val) bool { p.q.Enqueue(p.h, p.s.put(v)); return true }

func (p *shardedPort) dequeue() (val, bool) {
	ptr, ok := p.q.Dequeue(p.h)
	if !ok {
		return val{}, false
	}
	return get(ptr), true
}

func (*shardedPort) flush()     {}
func (p *shardedPort) release() { p.h.Release() }

// scq: the bounded ring under NewBounded.
type scqLayer struct{ q *scq.Queue }

type scqPort struct {
	h *scq.Handle
	s slots
}

func (l scqLayer) register() (port, error) {
	h, err := l.q.Register()
	if err != nil {
		return nil, err
	}
	return &scqPort{h: h}, nil
}

func (l scqLayer) counters() map[string]uint64 { return l.q.Stats() }

func (p *scqPort) enqueue(v val) bool {
	err := p.h.TryEnqueue(p.s.put(v))
	if errors.Is(err, scq.ErrFull) {
		return false
	}
	if err != nil {
		panic(err)
	}
	return true
}

func (p *scqPort) dequeue() (val, bool) {
	ptr, ok := p.h.Dequeue()
	if !ok {
		return val{}, false
	}
	return get(ptr), true
}

func (*scqPort) flush()     {}
func (p *scqPort) release() { p.h.Release() }

// The public façades, with their defaults.
type facadeLayer struct{ q *wfqueue.Queue[val] }
type facadePort struct{ h *wfqueue.Handle[val] }

func openFacade() (layer, error) { return facadeLayer{wfqueue.New[val](workers)}, nil }

func (l facadeLayer) register() (port, error) {
	h, err := l.q.Register()
	return facadePort{h}, err
}

func (l facadeLayer) counters() map[string]uint64 { return coreCounters(l.q.Stats()) }
func (p facadePort) enqueue(v val) bool           { p.h.Enqueue(v); return true }
func (p facadePort) dequeue() (val, bool)         { return p.h.Dequeue() }
func (p facadePort) flush()                       { p.h.Flush() }
func (p facadePort) release()                     { p.h.Release() }

type boundedLayer struct{ q *wfqueue.BoundedQueue[val] }
type boundedPort struct{ h *wfqueue.BoundedHandle[val] }

func openBoundedFacade() (layer, error) {
	q, err := wfqueue.NewBounded[val](workers, boundedCap)
	return boundedLayer{q}, err
}

func (l boundedLayer) register() (port, error) {
	h, err := l.q.Register()
	return boundedPort{h}, err
}

func (l boundedLayer) counters() map[string]uint64 { return l.q.Stats() }

func (p boundedPort) enqueue(v val) bool {
	err := p.h.TryEnqueue(v)
	if errors.Is(err, wfqueue.ErrFull) {
		return false
	}
	if err != nil {
		panic(err)
	}
	return true
}

func (p boundedPort) dequeue() (val, bool) { return p.h.Dequeue() }
func (boundedPort) flush()                 {}
func (p boundedPort) release()             { p.h.Release() }

// Package qiface defines the uniform interface through which the benchmark
// harness, the stress tester and the linearizability tests drive every queue
// implementation in this repository (the paper's wait-free queue and all of
// its baselines).
//
// The currency of the interface is a uint64 value, mirroring the paper's C
// benchmark which enqueues small integers cast to void*. Implementations
// whose cells hold pointers adapt internally (see the per-package adapters);
// implementations with narrower value ranges (LCRQ's packed cells) document
// their limits via Factory.MaxValue.
package qiface

import (
	"fmt"
	"sort"
	"sync"
)

// Ops is a set of per-thread operation closures. Register returns one Ops
// per worker thread; the closures are NOT safe for use from more than one
// goroutine, matching the paper's per-thread handle discipline.
type Ops struct {
	// Enqueue appends v to the queue.
	Enqueue func(v uint64)
	// Dequeue removes and returns the oldest value. ok is false when the
	// queue observed an EMPTY linearization point.
	Dequeue func() (v uint64, ok bool)

	// EnqueueBatch appends all values of vs to the queue in order. It is
	// semantically equivalent to calling Enqueue once per value;
	// implementations with a native batched path (the wait-free queue's
	// single-FAA k-cell reservation) amortize coordination across the
	// batch. May be nil; use WithBatchFallback to guarantee presence.
	EnqueueBatch func(vs []uint64)
	// DequeueBatch fills dst from the front of the queue in FIFO order and
	// returns the number of values stored. A return n < len(dst)
	// guarantees the queue was observed EMPTY at some linearizable point
	// during the call (the batched analogue of Dequeue's ok=false). May be
	// nil; use WithBatchFallback to guarantee presence.
	DequeueBatch func(dst []uint64) int

	// Flush forces any values this registration has buffered locally (an
	// operation-coalescing window) into the shared queue, making them
	// visible to other threads. Implementations without local buffering
	// leave it nil; harnesses call it through WithFlushFallback (or check
	// nil) whenever a producer goes idle or hands off. Implementations with
	// coalescing MUST also flush implicitly on Release, so a released
	// registration never strands values. An implementation that buffers
	// guarantees a non-nil Flush.
	Flush func()

	// Release returns the registration these closures belong to, making the
	// handle's capacity slot available to a subsequent Register. After
	// Release, none of the other closures may be called. Release must be
	// idempotent (a second call is a no-op) and must not be called
	// concurrently with any other closure of the same Ops.
	//
	// May be nil: implementations predating the handle-lifecycle contract —
	// or wrappers that cannot reclaim capacity — leave it unset, and
	// harnesses that churn registrations (the qtest storm, wfqstress
	// -churn) skip such queues. A Factory that sets
	// ChurnSafe guarantees a non-nil Release.
	Release func()
}

// WithFlushFallback returns ops with a missing Flush synthesized as a
// no-op: a queue without local buffering is always flushed. Harnesses that
// drive producers through the coalescing surface use this so buffering and
// non-buffering implementations share one code path.
func WithFlushFallback(ops Ops) Ops {
	if ops.Flush == nil {
		ops.Flush = func() {}
	}
	return ops
}

// WithBatchFallback returns ops with any missing batch closure synthesized
// from the single-operation closures: EnqueueBatch becomes an enqueue per
// value, DequeueBatch dequeues until dst is full or EMPTY is observed. The
// fallback preserves the batch contract (short DequeueBatch returns imply
// an EMPTY observation) so harnesses can drive every implementation —
// native or not — through the batched surface uniformly.
func WithBatchFallback(ops Ops) Ops {
	if ops.EnqueueBatch == nil {
		enq := ops.Enqueue
		ops.EnqueueBatch = func(vs []uint64) {
			for _, v := range vs {
				enq(v)
			}
		}
	}
	if ops.DequeueBatch == nil {
		deq := ops.Dequeue
		ops.DequeueBatch = func(dst []uint64) int {
			for i := range dst {
				v, ok := deq()
				if !ok {
					return i
				}
				dst[i] = v
			}
			return len(dst)
		}
	}
	return ops
}

// Queue is one live queue instance.
type Queue interface {
	// Name reports the implementation's registry name.
	Name() string
	// Register allocates a per-thread handle and returns its operation
	// closures. Implementations may limit the number of registrations to
	// the maxThreads passed at construction; exceeding it returns an error.
	Register() (Ops, error)
}

// StatsProvider is implemented by queues that expose execution-path counters
// (used to regenerate the paper's Table 2).
type StatsProvider interface {
	// Stats returns named monotonic counters aggregated across all handles.
	Stats() map[string]uint64
}

// Ordering classifies the FIFO guarantee a queue implementation provides,
// so harnesses apply the right oracle: the exact linearizability checker
// only makes sense for OrderFIFO queues, while the MPMC batteries validate
// per-producer order for both.
type Ordering int

const (
	// OrderFIFO: a single linearizable FIFO queue (the default; every
	// pre-sharding implementation in this repository).
	OrderFIFO Ordering = iota
	// OrderPerProducer: values from one producer handle are dequeued in
	// their enqueue order, and no value is lost or duplicated, but values
	// from different producers may be reordered arbitrarily (the sharded
	// queue's home-lane dispatch: each handle's values land in one lane in
	// order).
	OrderPerProducer
)

func (o Ordering) String() string {
	switch o {
	case OrderFIFO:
		return "fifo"
	case OrderPerProducer:
		return "per-producer"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// Factory describes a registered queue implementation.
type Factory struct {
	// Name is the short registry key, e.g. "wf-10", "lcrq", "msqueue".
	Name string
	// Doc is a one-line human description for CLI listings.
	Doc string
	// MaxValue is the largest enqueueable value (0 means full uint64).
	MaxValue uint64
	// WaitFree reports whether the implementation guarantees wait-freedom.
	WaitFree bool
	// ChurnSafe reports that the implementation supports goroutine churn:
	// Register/Release are safe to call concurrently at high frequency
	// (lock-free and allocation-free for the paper's queues), every Ops has
	// a non-nil idempotent Release, and a released slot's capacity is
	// reusable immediately. Harnesses gate churn workloads on this flag.
	ChurnSafe bool
	// Ordering is the implementation's FIFO guarantee (zero value:
	// OrderFIFO, a single linearizable queue).
	Ordering Ordering
	// New builds an instance sized for at most maxThreads registrations.
	New func(maxThreads int) (Queue, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds a factory to the global registry. It panics on duplicate
// names; registration happens from package init functions, so a duplicate is
// a programming error.
func Register(f Factory) {
	if f.Name == "" || f.New == nil {
		panic("qiface: Register with empty Name or nil New")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[f.Name]; dup {
		panic("qiface: duplicate registration of " + f.Name)
	}
	registry[f.Name] = f
}

// Lookup returns the factory registered under name.
func Lookup(name string) (Factory, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := registry[name]
	if !ok {
		return Factory{}, fmt.Errorf("qiface: unknown queue %q (have %v)", name, namesLocked())
	}
	return f, nil
}

// Names returns all registered names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

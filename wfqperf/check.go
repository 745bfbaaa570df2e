package main

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// val is what travels through every value-carrying rung. id packs the
// producing worker and its sequence number; due is the clock reading (ns
// since the run's clock base) at which the value was due to be sent, or 0
// when the value's delivery latency is not sampled.
type val struct {
	id  uint64
	due int64
}

const (
	seqBits = 56
	seqMask = 1<<seqBits - 1
)

func makeID(producer int, seq uint64) uint64 { return uint64(producer)<<seqBits | seq }

// The received-set of each producer is a bitmap over its sequence numbers,
// grown in chunks by the producer itself before it sends the first value of
// a chunk, so the queue's own release/acquire ordering publishes the chunk
// to whichever consumer receives that value. Chunks are mapped outside the
// Go heap, so the checker adds nothing to the heap metrics it sits beside.
const (
	chunkShift = 20 // values per chunk: 1M, 128 KiB of bitmap
	chunkWords = 1 << chunkShift / 64
	maxChunks  = 1 << 12 // 4G values per producer
	chunkBytes = chunkWords * 8
)

type chunk [chunkWords]atomic.Uint64

type received struct {
	chunks [maxChunks]atomic.Pointer[chunk]
	sent   uint64 // values the producer enqueued; written by it, read after it stops
}

// checker counts, over everything the producers sent, the values no
// consumer received (lost), the values received more than once
// (duplicated), and the values a consumer received after a later value of
// the same producer (reordered: FIFO order lets each consumer see one
// producer's values only in increasing order).
type checker struct {
	prod []*received
}

func newChecker(producers int) *checker {
	c := &checker{prod: make([]*received, producers)}
	for i := range c.prod {
		c.prod[i] = new(received)
	}
	return c
}

// willSend is called by producer p before it enqueues seq.
func (c *checker) willSend(p int, seq uint64) {
	if seq&(1<<chunkShift-1) != 0 {
		return
	}
	k := seq >> chunkShift
	if k >= maxChunks {
		panic(fmt.Sprintf("wfqperf: producer %d passed %d values", p, uint64(maxChunks)<<chunkShift))
	}
	if c.prod[p].chunks[k].Load() != nil {
		return // a bounded rung rejected seq and it is being sent again
	}
	m, err := syscall.Mmap(-1, 0, chunkBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("wfqperf: map checker chunk: %v", err))
	}
	c.prod[p].chunks[k].Store((*chunk)(unsafe.Pointer(&m[0])))
}

// free unmaps the chunks once no worker touches them any more.
func (c *checker) free() {
	for _, r := range c.prod {
		for k := range r.chunks {
			ch := r.chunks[k].Swap(nil)
			if ch == nil {
				break
			}
			if err := syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(ch)), chunkBytes)); err != nil {
				panic(fmt.Sprintf("wfqperf: unmap checker chunk: %v", err))
			}
		}
	}
}

// consumerView is one consumer's private state: the next sequence number it
// expects at least, per producer, and its failure counts.
type consumerView struct {
	c                       *checker
	next                    []uint64
	dup, reordered, corrupt uint64
}

func (c *checker) view() *consumerView {
	return &consumerView{c: c, next: make([]uint64, len(c.prod))}
}

func (v *consumerView) see(id uint64) {
	p, seq := int(id>>seqBits), id&seqMask
	if p >= len(v.c.prod) || seq>>chunkShift >= maxChunks {
		v.corrupt++
		return
	}
	ch := v.c.prod[p].chunks[seq>>chunkShift].Load()
	if ch == nil {
		v.corrupt++
		return
	}
	w := &ch[seq>>6&(chunkWords-1)]
	bit := uint64(1) << (seq & 63)
	for {
		old := w.Load()
		if old&bit != 0 {
			v.dup++
			return
		}
		if w.CompareAndSwap(old, old|bit) {
			break
		}
	}
	if seq < v.next[p] {
		v.reordered++
	} else {
		v.next[p] = seq + 1
	}
}

// tally is the outcome of a checked run.
type tally struct {
	sent, lost, dup, reordered, corrupt uint64
}

func (t tally) failed() uint64 { return t.lost + t.dup + t.reordered + t.corrupt }

func (t *tally) add(o tally) {
	t.sent += o.sent
	t.lost += o.lost
	t.dup += o.dup
	t.reordered += o.reordered
	t.corrupt += o.corrupt
}

func (t tally) String() string {
	return fmt.Sprintf("sent %d, lost %d, duplicated %d, reordered %d, corrupt %d",
		t.sent, t.lost, t.dup, t.reordered, t.corrupt)
}

// finish counts lost values. Every producer and consumer must have stopped
// and the queue must have been drained.
func (c *checker) finish(views []*consumerView) tally {
	var t tally
	for _, v := range views {
		t.dup += v.dup
		t.reordered += v.reordered
		t.corrupt += v.corrupt
	}
	for _, r := range c.prod {
		t.sent += r.sent
		var got uint64
		for k := uint64(0); k<<chunkShift < r.sent; k++ {
			ch := r.chunks[k].Load()
			for i := range ch {
				got += uint64(bits.OnesCount64(ch[i].Load()))
			}
		}
		t.lost += r.sent - got
	}
	return t
}

package qtest

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
)

// Allocs is what QueueAllocs counted: the heap allocations a measured
// window made under a frame of the gated packages.
type Allocs struct {
	Objects, Bytes int64
	// Stacks holds one symbolized stack per counted allocation site.
	Stacks []string
}

// Sites returns Stacks as one block of text, for a gate's failure message.
func (a Allocs) Sites() string { return strings.Join(a.Stacks, "\n") }

// QueueAllocs is the counter behind the exact-zero allocation gates. It
// runs f runs times with every allocation sampled (runtime.MemProfileRate
// 1), at GOMAXPROCS 1 as testing.AllocsPerRun does, and returns the objects
// and bytes those calls allocated under a frame of one of pkgs, with one
// stack per such allocation site. pkgs are function-name prefixes such as
// "wfqueue/internal/core."; a frame from a _test.go file never counts, so
// neither the gate's own code nor the harness calling QueueAllocs does.
//
// Process-wide MemStats also count what the runtime and other goroutines
// allocate in the window, and with more than one P that background work
// lands in an exact-zero gate now and then (about one object per 200,000
// ops on a 2-thread host); an allocation on a queue path always carries a
// queue frame.
//
// The heap profile only reflects completed collections, so QueueAllocs
// forces one before the window and one after it. One uncounted call of f
// comes between the first collection and the window: it rebuilds what the
// collection discarded (a sync.Pool's contents), which a window of f with
// no collection in it never has to. The profile records a tiny allocation
// (pointer-free, under 16 bytes) only when it opens a new 16-byte block, so
// those count about once per block; one made on every call still shows.
func QueueAllocs(runs int, f func(), pkgs ...string) Allocs {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocSites()
	warmUp(f)
	for i := 0; i < runs; i++ {
		f()
	}
	var a Allocs
	for stk, n := range allocSites() {
		b := before[stk]
		if n.objs == b.objs || !counted(stk, pkgs) {
			continue
		}
		a.Objects += n.objs - b.objs
		a.Bytes += n.bytes - b.bytes
		a.Stacks = append(a.Stacks, formatStack(stk))
	}
	return a
}

// warmUp is QueueAllocs' uncounted call of f: the frame marks what it
// allocates.
//
//go:noinline
func warmUp(f func()) { f() }

var warmUpName = runtime.FuncForPC(reflect.ValueOf(warmUp).Pointer()).Name()

type siteCount struct{ objs, bytes int64 }

// allocSites returns the cumulative allocation count of every stack in the
// heap profile. The runtime.GC first publishes the allocations made so far:
// the profile only reflects completed collection cycles.
func allocSites() map[[32]uintptr]siteCount {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n := 64; ; {
		recs = make([]runtime.MemProfileRecord, n)
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:m]
			break
		}
		n = m + m/4
	}
	sites := make(map[[32]uintptr]siteCount, len(recs))
	for _, r := range recs {
		c := sites[r.Stack0] // records are per stack and size class
		c.objs += r.AllocObjects
		c.bytes += r.AllocBytes
		sites[r.Stack0] = c
	}
	return sites
}

func frames(stk [32]uintptr) *runtime.Frames {
	n := 0
	for n < len(stk) && stk[n] != 0 {
		n++
	}
	return runtime.CallersFrames(stk[:n])
}

// counted reports whether an allocation site counts in QueueAllocs: not
// under warmUp, and under a frame of pkgs outside a _test.go file.
func counted(stk [32]uintptr, pkgs []string) bool {
	in := false
	for fs := frames(stk); ; {
		f, more := fs.Next()
		if f.Function == warmUpName {
			return false
		}
		if !in && !strings.HasSuffix(f.File, "_test.go") {
			for _, p := range pkgs {
				in = in || strings.HasPrefix(f.Function, p)
			}
		}
		if !more {
			return in
		}
	}
}

func formatStack(stk [32]uintptr) string {
	var b strings.Builder
	for fs := frames(stk); ; {
		f, more := fs.Next()
		fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
		if !more {
			return b.String()
		}
	}
}

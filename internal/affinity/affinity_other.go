//go:build !linux

package affinity

// Pin is a no-op on platforms without sched_setaffinity; benchmarks still
// run, just without the compact hardware-thread mapping of the paper.
func Pin(cpu int) error { return nil }

// Supported reports whether thread pinning works on this platform.
func Supported() bool { return false }

// CurrentCPU reports no CPU on platforms without getcpu.
func CurrentCPU() (cpu int, ok bool) { return 0, false }

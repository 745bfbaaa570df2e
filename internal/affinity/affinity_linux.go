//go:build linux

package affinity

import (
	"syscall"
	"unsafe"
)

// cpuSetWords is sized for kernels supporting up to 1024 CPUs, matching
// glibc's default cpu_set_t.
const cpuSetWords = 1024 / 64

// Pin binds the calling OS thread to the single CPU cpu. Callers must have
// locked the goroutine to its OS thread (runtime.LockOSThread) first,
// otherwise the Go scheduler may migrate the goroutine to an unpinned thread.
func Pin(cpu int) error {
	if cpu < 0 || cpu >= cpuSetWords*64 {
		return ErrBadCPU
	}
	var set [cpuSetWords]uint64
	set[cpu/64] = 1 << (uint(cpu) % 64)
	_, _, errno := syscall.RawSyscall(
		syscall.SYS_SCHED_SETAFFINITY,
		0, // current thread
		uintptr(unsafe.Sizeof(set)),
		uintptr(unsafe.Pointer(&set)),
	)
	if errno != 0 {
		return errno
	}
	return nil
}

// Supported reports whether thread pinning works on this platform.
func Supported() bool { return true }

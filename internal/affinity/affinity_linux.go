//go:build linux

package affinity

import (
	"runtime"
	"sync/atomic"
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

// sysGetcpu is the getcpu(2) syscall number for this architecture. Go's
// syscall package defines SYS_GETCPU for most linux ports but not amd64,
// so the table is carried here (0 = architecture not covered; CurrentCPU
// then reports no CPU).
var sysGetcpu = map[string]uintptr{
	"386":      318,
	"amd64":    309,
	"arm":      345,
	"arm64":    168,
	"loong64":  168,
	"ppc64":    302,
	"ppc64le":  302,
	"riscv64":  168,
	"s390x":    311,
	"mips":     4312,
	"mipsle":   4312,
	"mips64":   5271,
	"mips64le": 5271,
}[runtime.GOARCH]

// getcpuBroken latches a failed getcpu attempt. The kernel either supports
// the syscall or it does not — the answer cannot change within a process
// lifetime — so the first failure (ENOSYS on an old kernel, a seccomp
// EPERM, ...) makes every later CurrentCPU call return not-ok without
// re-issuing a doomed syscall.
var getcpuBroken atomic.Bool

// CurrentCPU returns the CPU the calling thread is executing on, via the
// getcpu(2) syscall. ok is false if the kernel rejects the call or the
// architecture is not in the table; the failure is cached, so only the first
// call pays for discovering it. The result is only a hint unless the thread
// is pinned: the scheduler may migrate the thread immediately after the
// syscall returns.
//
// Performance note: the kernel exports getcpu through the vDSO
// (__vdso_getcpu), which C callers reach in a few nanoseconds without a
// kernel entry. Go's runtime patches in vDSO fast paths only for
// clock_gettime/gettimeofday, and syscall.RawSyscall always takes the real
// SYSCALL instruction, so this call costs a genuine user→kernel round trip
// (~50ns), which is why CurrentCPU must not be called per enqueue/dequeue.
func CurrentCPU() (cpu int, ok bool) {
	if sysGetcpu == 0 || getcpuBroken.Load() {
		return 0, false
	}
	var c, node uint32
	_, _, errno := syscall.RawSyscall(
		sysGetcpu,
		uintptr(unsafe.Pointer(&c)),
		uintptr(unsafe.Pointer(&node)),
		0,
	)
	if errno != 0 {
		getcpuBroken.Store(true)
		return 0, false
	}
	return int(c), true
}

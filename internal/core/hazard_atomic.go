//go:build !amd64 || race

package core

// plainHazard is false off amd64 and under the race detector: the fast
// paths publish and clear h.hzdp with atomic.StoreInt64. On 386 a plain
// int64 store would be two 32-bit halves a cleaner could read torn. On
// weakly ordered targets (arm64, arm) a plain publish could be reordered
// after the cell loads that follow it, and a plain clear could become
// visible before the cell loads that precede it, letting a cleaner recycle
// a segment the owner is still reading. Under -race the atomic form keeps the cleaners'
// atomic.LoadInt64 of hzdp a synchronized access. See hazard_plain.go.
const plainHazard = false

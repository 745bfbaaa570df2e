//go:build amd64 && !race

package core

// plainHazard selects how the fast paths publish and clear h.hzdp. On amd64
// outside race-detector builds they use plain stores, as the paper's C
// does (§3.6): x86-TSO never reorders a store with an earlier load or store,
// nor with a later locked instruction, so
//
//   - a publish followed by the operation's FAA on T or H is visible to
//     every cleaner before the operation touches a cell (the locked FAA
//     drains the store buffer), and
//   - a clear becomes visible only after every cell access before it.
//
// A plain store may still pass a later plain load, which is why helpDeq's
// publish, followed by a load of the request state, stays atomic. The Go
// compiler does not move memory operations across a sync/atomic call, so
// the stores stay where they are written; `go build -gcflags=-S` shows each
// as one MOVQ to hzdp. 386 is x86 too but keeps atomic stores: a plain
// int64 store there is two 32-bit stores, and a cleaner could read a torn
// id. See DESIGN.md §3 and hazard_atomic.go for the other architectures.
const plainHazard = true

//go:build !race

package core

// ctrInc bumps an owner-local instrumentation counter. Outside race-detector
// builds this is a plain increment: each counter has a single writer (the
// handle's owner); Stats readers tolerate a momentarily stale value. Under
// -race the atomic variant in counters_race.go keeps reports clean.
func ctrInc(p *uint64) { *p++ }

// ctrAdd bumps an owner-local instrumentation counter by n.
func ctrAdd(p *uint64, n uint64) { *p += n }

// ctrLoad reads an instrumentation counter.
func ctrLoad(p *uint64) uint64 { return *p }

//go:build !race

package scq

// ctrInc bumps an owner-local instrumentation counter. Outside race-detector
// builds this is a plain increment: each counter has a single writer (the
// handle's owner); Stats readers tolerate a momentarily stale value. Under
// -race the atomic variants in counters_race.go keep reports clean. Same
// pattern as internal/core and internal/sharded.
func ctrInc(p *uint64) { *p++ }

// ctrLoad reads an instrumentation counter.
func ctrLoad(p *uint64) uint64 { return *p }

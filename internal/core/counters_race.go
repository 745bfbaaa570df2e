//go:build race

package core

import "sync/atomic"

// ctrInc bumps an owner-local instrumentation counter with an atomic store
// so that race-detector builds see a properly synchronized single-writer
// counter. (The owner is the only writer, so load-modify-store is safe.)
func ctrInc(p *uint64) { atomic.StoreUint64(p, *p+1) }

// ctrAdd bumps an owner-local instrumentation counter by n.
func ctrAdd(p *uint64, n uint64) { atomic.StoreUint64(p, *p+n) }

// ctrLoad reads an instrumentation counter.
func ctrLoad(p *uint64) uint64 { return atomic.LoadUint64(p) }

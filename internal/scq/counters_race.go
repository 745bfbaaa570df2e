//go:build race

package scq

import "sync/atomic"

// ctrInc bumps an owner-local instrumentation counter with an atomic store
// so that race-detector builds see a properly synchronized single-writer
// counter. Same pattern as internal/core and internal/sharded.
func ctrInc(p *uint64) { atomic.StoreUint64(p, *p+1) }

// ctrLoad reads an instrumentation counter.
func ctrLoad(p *uint64) uint64 { return atomic.LoadUint64(p) }

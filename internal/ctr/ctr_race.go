//go:build race

package ctr

import "sync/atomic"

// Inc bumps an owner-local instrumentation counter with an atomic store so
// that race-detector builds see a properly synchronized single-writer
// counter. (The owner is the only writer, so load-modify-store is safe.)
func Inc(p *uint64) { atomic.StoreUint64(p, *p+1) }

// Add bumps an owner-local instrumentation counter by n.
func Add(p *uint64, n uint64) { atomic.StoreUint64(p, *p+n) }

// Load reads an instrumentation counter.
func Load(p *uint64) uint64 { return atomic.LoadUint64(p) }

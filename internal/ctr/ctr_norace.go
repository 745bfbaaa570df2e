//go:build !race

// Package ctr holds the single-writer instrumentation-counter helpers that
// internal/core, internal/sharded and internal/scq bump on their operation
// paths. Each counter has one writer (the handle's owner); Stats readers
// tolerate a momentarily stale value. Outside race-detector builds the
// helpers are plain loads and stores; under -race the atomic variants in
// ctr_race.go keep reports clean. Every helper inlines to one store or load.
package ctr

// Inc bumps an owner-local instrumentation counter.
func Inc(p *uint64) { *p++ }

// Add bumps an owner-local instrumentation counter by n.
func Add(p *uint64, n uint64) { *p += n }

// Load reads an instrumentation counter.
func Load(p *uint64) uint64 { return *p }

package registry

import "unsafe"

// ptr converts a *uint64 arena slot to the unsafe.Pointer currency of the
// pointer-based queues.
func ptr(p *uint64) unsafe.Pointer { return unsafe.Pointer(p) }

// boxVal heap-allocates a value for the checked adapters: the pointer stays
// valid for as long as any consumer can reach it, so values read back are
// always exact.
func boxVal(v uint64) unsafe.Pointer {
	p := new(uint64)
	*p = v
	return unsafe.Pointer(p)
}

// valPut returns how an adapter turns a value into the pointer its queue
// carries: a fresh heap box on the checked path (boxed, see NewChecked),
// otherwise the next slot of a per-registration arena.
func valPut(boxed bool) func(uint64) unsafe.Pointer {
	if boxed {
		return boxVal
	}
	ar := &arena{}
	return func(v uint64) unsafe.Pointer { return ptr(ar.put(v)) }
}

// unptr reads a dequeued pointer back into the uint64 currency, passing an
// EMPTY verdict (ok=false) through.
func unptr(p unsafe.Pointer, ok bool) (uint64, bool) {
	if !ok {
		return 0, false
	}
	return *(*uint64)(p), true
}

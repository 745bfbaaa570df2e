package registry

// Contract tests for the coalescing variants at the registry surface:
// the non-nil-Flush guarantee for windows > 1, flush visibility (buffered
// values are invisible to other registrations until a flush), and the
// no-strand guarantee of Release.

import "testing"

var coalesceNames = []struct {
	name   string
	window int
}{
	{"wf-coalesce", 16},
	{"wf-coalesce-w1", 1},
	{"wf-coalesce-w4", 4},
	{"wf-coalesce-w64", 64},
}

// TestCoalesceFlushContract pins the qiface contract that a buffering
// registration (window > 1, taken from the table) has a non-nil Ops.Flush,
// and that every coalescing registration can be released.
func TestCoalesceFlushContract(t *testing.T) {
	for _, tc := range coalesceNames {
		q, err := NewChecked(tc.name, 4)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ops, err := q.Register()
		if err != nil {
			t.Fatalf("%s: Register: %v", tc.name, err)
		}
		if tc.window > 1 && ops.Flush == nil {
			t.Errorf("%s: window %d but Ops.Flush is nil", tc.name, tc.window)
		}
		if ops.Release == nil {
			t.Errorf("%s: Ops.Release is nil", tc.name)
		}
		ops.Release()
	}
}

// TestCoalesceFlushVisibility: values buffered below the window are
// invisible to a second registration until the producer flushes; the flush
// publishes the whole run in order.
func TestCoalesceFlushVisibility(t *testing.T) {
	for _, tc := range coalesceNames {
		if tc.window <= 1 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			q, err := NewChecked(tc.name, 4)
			if err != nil {
				t.Fatal(err)
			}
			prod, err := q.Register()
			if err != nil {
				t.Fatal(err)
			}
			cons, err := q.Register()
			if err != nil {
				t.Fatal(err)
			}
			for v := uint64(1); v < uint64(tc.window); v++ {
				prod.Enqueue(v)
			}
			if v, ok := cons.Dequeue(); ok {
				t.Fatalf("buffered value %d visible before flush", v)
			}
			prod.Flush()
			for v := uint64(1); v < uint64(tc.window); v++ {
				got, ok := cons.Dequeue()
				if !ok || got != v {
					t.Fatalf("after flush: dequeue = (%d,%v), want %d", got, ok, v)
				}
			}
			// Filling the window flushes without an explicit call.
			for v := uint64(100); v < uint64(100+tc.window); v++ {
				prod.Enqueue(v)
			}
			if got, ok := cons.Dequeue(); !ok || got != 100 {
				t.Fatalf("after window fill: dequeue = (%d,%v), want 100", got, ok)
			}
			prod.Release()
			cons.Release()
		})
	}
}

// TestCoalesceReleaseNoStrand: Release publishes both the producer buffer
// and any undrained refill values, so a later registration recovers every
// value.
func TestCoalesceReleaseNoStrand(t *testing.T) {
	for _, tc := range coalesceNames {
		if tc.window <= 1 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			q, err := NewChecked(tc.name, 4)
			if err != nil {
				t.Fatal(err)
			}
			ops, err := q.Register()
			if err != nil {
				t.Fatal(err)
			}
			// Drain buffer: publish a full window, take one value back so the
			// rest sits in the handle's refill run.
			w := uint64(tc.window)
			for v := uint64(1); v <= w; v++ {
				ops.Enqueue(v)
			}
			if got, ok := ops.Dequeue(); !ok || got != 1 {
				t.Fatalf("refill dequeue = (%d,%v), want 1", got, ok)
			}
			// Producer buffer: a partial window on top.
			for v := uint64(1000); v < 1005; v++ {
				ops.Enqueue(v)
			}
			ops.Release()

			h2, err := q.Register()
			if err != nil {
				t.Fatal(err)
			}
			want := int(w-1) + 5
			got := map[uint64]bool{}
			for {
				v, ok := h2.Dequeue()
				if !ok {
					break
				}
				if got[v] {
					t.Fatalf("value %d recovered twice", v)
				}
				got[v] = true
			}
			if len(got) != want {
				t.Fatalf("recovered %d values after Release, want %d", len(got), want)
			}
			h2.Release()
		})
	}
}

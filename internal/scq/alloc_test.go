package scq

import (
	"testing"

	"wfqueue/internal/qtest"
)

// TestSteadyStateZeroAllocs gates the warm ring's TryEnqueue/Dequeue pair at
// exactly 0 allocations. The window wraps the 64-slot ring thousands of
// times, so it covers the whole cycle — free-ring dequeue, slot publish,
// allocated-ring ticket, slot recycle — not just the first lap; the queue
// allocates only in New.
func TestSteadyStateZeroAllocs(t *testing.T) {
	const capacity = 64
	q, err := New(1, capacity)
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	p := box(42)
	pair := func() {
		if err := h.TryEnqueue(p); err != nil {
			panic(err) // a lone producer never fills 64 slots
		}
		h.Dequeue()
	}
	// Warm past several full ring wraps so every slot's cycle bits have
	// advanced off their initial values.
	for i := 0; i < 4*capacity; i++ {
		pair()
	}
	if a := qtest.QueueAllocs(200_000, pair, "wfqueue/internal/scq."); a.Objects != 0 {
		t.Errorf("200000 warm TryEnqueue+Dequeue pairs allocated %d objects, want 0, at:\n%s", a.Objects, a.Sites())
	}
}

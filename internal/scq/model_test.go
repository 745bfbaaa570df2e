package scq

import (
	"math/rand"
	"testing"
)

// modelOp is one step of a model-checked op stream: TryEnqueue(v) when enq
// is set, else Dequeue.
type modelOp struct {
	enq bool
	v   uint64
}

// checkAgainstModel runs ops single-threaded on a fresh queue against a
// bounded-slice model: every TryEnqueue/Dequeue outcome must match exactly,
// including ErrFull and EMPTY.
func checkAgainstModel(t *testing.T, capReq int, ops []modelOp) {
	t.Helper()
	q, err := New(1, capReq)
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	cap := q.Capacity()
	var model []uint64
	for i, op := range ops {
		if op.enq {
			err := h.TryEnqueue(box(op.v))
			if len(model) < cap {
				if err != nil {
					t.Fatalf("cap %d op %d: TryEnqueue failed with %d/%d queued: %v", cap, i, len(model), cap, err)
				}
				model = append(model, op.v)
			} else if err == nil {
				t.Fatalf("cap %d op %d: TryEnqueue succeeded on a full queue", cap, i)
			}
			continue
		}
		p, ok := h.Dequeue()
		if len(model) > 0 {
			if !ok {
				t.Fatalf("cap %d op %d: EMPTY with %d queued", cap, i, len(model))
			}
			if got := unbox(p); got != model[0] {
				t.Fatalf("cap %d op %d: dequeued %d, want %d", cap, i, got, model[0])
			}
			model = model[1:]
		} else if ok {
			t.Fatalf("cap %d op %d: dequeued %d from an empty queue", cap, i, unbox(p))
		}
	}
}

// TestAgainstModel checks random coin-flip op streams against the model.
func TestAgainstModel(t *testing.T) {
	for _, capReq := range []int{1, 4, 5, 32} {
		rng := rand.New(rand.NewSource(int64(capReq)))
		ops := make([]modelOp, 50000)
		for i := range ops {
			if rng.Intn(2) == 0 {
				ops[i] = modelOp{enq: true, v: rng.Uint64() >> 1}
			}
		}
		checkAgainstModel(t, capReq, ops)
	}
}

// maxFuzzOps caps the op stream of one FuzzAgainstModel input.
const maxFuzzOps = 4096

// FuzzAgainstModel checks coverage-guided op streams against the model.
// data[0] picks the requested capacity (1..32, so rings of 4 to 32 slots
// where fills and wraps are cheap to reach); each remaining byte is one op,
// TryEnqueue when its low bit is clear, else Dequeue. Enqueued values are
// the op positions, so a lost, duplicated or reordered value cannot match.
func FuzzAgainstModel(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{4, 0, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 1})
	f.Add(append([]byte{31}, make([]byte, 40)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capReq := int(data[0]&31) + 1
		data = data[1:]
		if len(data) > maxFuzzOps {
			data = data[:maxFuzzOps]
		}
		ops := make([]modelOp, len(data))
		for i, b := range data {
			ops[i] = modelOp{enq: b&1 == 0, v: uint64(i)}
		}
		checkAgainstModel(t, capReq, ops)
	})
}

// TestDequeueSlowDirect exercises the published-request path without
// contention: with no helpers around, the owner's own closed-window attempt
// must produce the value (or a sound EMPTY).
func TestDequeueSlowDirect(t *testing.T) {
	q, err := New(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()

	if err := h.TryEnqueue(box(7)); err != nil {
		t.Fatal(err)
	}
	v, ok := h.dequeueSlow()
	if !ok || unbox(v) != 7 {
		t.Fatalf("dequeueSlow = (%v, %v), want 7", v, ok)
	}
	if w := h.deqReq.Load(); w != reqIdle {
		t.Errorf("request word %#x after slow dequeue, want idle", w)
	}
	if n := q.pendingDeqs.Load(); n != 0 {
		t.Errorf("pendingDeqs = %d after slow dequeue, want 0", n)
	}

	if _, ok := h.dequeueSlow(); ok {
		t.Fatal("dequeueSlow succeeded on an empty queue")
	}
	if w := h.deqReq.Load(); w != reqIdle {
		t.Errorf("request word %#x after EMPTY slow dequeue, want idle", w)
	}
	st := q.Stats()
	if st["deq_slow"] != 2 {
		t.Errorf("deq_slow = %d, want 2", st["deq_slow"])
	}
}

package core

import (
	"testing"
	"unsafe"
)

// FuzzAgainstModel drives arbitrary single-threaded op sequences against a
// slice model across a configuration chosen by the first two fuzz bytes:
// data[0] picks the patience, data[1] the segment shift (with maxGarbage=1
// and tiny segments, recycled segments are served constantly, so the reuse
// path — not just fresh allocation — is under the model check; seeds with
// data[1]'s high bit set date from when it selected recycling). Each op
// byte selects mod 4: single enqueue, single dequeue, batched enqueue or
// batched dequeue (batch size from the byte's high bits). `go test` runs the seed corpus;
// `go test -fuzz=FuzzAgainstModel` explores.
func FuzzAgainstModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{1, 3, 0, 1, 1, 1, 0, 0, 1})
	f.Add([]byte{2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0})
	f.Add([]byte{3, 2, 0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 1})
	f.Add([]byte{0, 2, 2, 3, 2, 7, 3, 30, 2, 255, 3, 254})
	f.Add([]byte{1, 1, 2, 2, 1, 3, 3, 0, 2, 6, 1, 3, 7})
	// Shift 1–2 seeds with heavy cross-boundary traffic, so segments retire
	// and come back mid-sequence.
	f.Add([]byte{10, 0x81, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{0, 0x82, 2, 255, 3, 254, 2, 127, 3, 126, 2, 63, 3, 62})
	f.Add([]byte{5, 0x81, 2, 30, 1, 1, 1, 3, 14, 0, 0, 1, 1, 2, 6, 3, 200})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		patience := int(data[0] % 11)
		shift := uint(data[1]%6 + 1)
		ops := data[2:]
		if len(ops) > 4096 {
			ops = ops[:4096]
		}

		q := New(2, WithPatience(patience), WithSegmentShift(shift), WithMaxGarbage(1))
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		var model []int64
		next := int64(1)
		for k, op := range ops {
			switch op % 4 {
			case 0:
				q.Enqueue(h, box(next))
				model = append(model, next)
				next++
			case 1:
				v, ok := q.Dequeue(h)
				if len(model) == 0 {
					if ok {
						t.Fatalf("op %d: value from empty queue", k)
					}
				} else {
					if !ok {
						t.Fatalf("op %d: EMPTY, want %d", k, model[0])
					}
					if got := unbox(v); got != model[0] {
						t.Fatalf("op %d: got %d, want %d", k, got, model[0])
					}
					model = model[1:]
				}
			case 2:
				// Batched enqueue of 1..64 values.
				n := int64(op>>2)%64 + 1
				vs := make([]unsafe.Pointer, n)
				for j := range vs {
					vs[j] = box(next)
					model = append(model, next)
					next++
				}
				q.EnqueueBatch(h, vs)
			case 3:
				// Batched dequeue of 1..64 values. Single-threaded the
				// return count is exact: min(queue length, batch size).
				n := int(op>>2)%64 + 1
				dst := make([]unsafe.Pointer, n)
				got := q.DequeueBatch(h, dst)
				want := len(model)
				if want > n {
					want = n
				}
				if got != want {
					t.Fatalf("op %d: DequeueBatch(%d) = %d, want %d", k, n, got, want)
				}
				for j := 0; j < got; j++ {
					if v := unbox(dst[j]); v != model[j] {
						t.Fatalf("op %d: batch[%d] = %d, want %d", k, j, v, model[j])
					}
				}
				model = model[got:]
			}
		}
		for j, want := range model {
			v, ok := q.Dequeue(h)
			if !ok || unbox(v) != want {
				t.Fatalf("drain %d: got (%v,%v), want %d", j, v, ok, want)
			}
		}
	})
}

package sharded

import (
	"testing"
	"unsafe"

	"wfqueue/internal/core"
)

// FuzzShardedAgainstModel drives arbitrary single-threaded op sequences,
// multiplexed over three handles with distinct home lanes, against a
// per-lane slice model that mirrors the dispatch and sweep rules exactly:
// an enqueue appends to the handle's home lane, a dequeue pops the first
// non-empty lane in cyclic order starting from the home lane, and the
// batched ops are the run-length versions of both. Single-threaded, the
// implementation's hint pass and definitive pass collapse to the same
// first-non-empty-lane rule (Size() is exact with no concurrency), so any
// divergence — a lost value, a doubled value, a wrong lane order — fails
// the model check.
//
// data[0] picks the lane count (1..4), data[1] the segment shift (with
// maxGarbage=1 and tiny segments the sweep constantly crosses recycled
// segments; seeds with data[1]'s high bit set date from when it selected
// recycling). Each op byte:
// bits 0-1 the operation, bit 2-3 the acting handle, bits 4-7 sizes.
func FuzzShardedAgainstModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{1, 1, 0, 4, 8, 12, 1, 5, 9, 13})
	f.Add([]byte{2, 2, 0, 0, 4, 4, 1, 5, 1, 5, 2, 6, 3, 7})
	f.Add([]byte{3, 3, 2, 6, 10, 14, 3, 7, 11, 15, 3, 3, 3})
	f.Add([]byte{3, 0x81, 0xf2, 0xf6, 0xfa, 0xf3, 0xf7, 0xfb, 0xff, 0x01})
	f.Add([]byte{2, 0x82, 2, 255, 3, 254, 2, 127, 3, 126, 1, 9, 0, 13})
	f.Add([]byte{1, 0x81, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		lanes := int(data[0]%4) + 1
		shift := uint(data[1]%6 + 1)
		ops := data[2:]
		if len(ops) > 4096 {
			ops = ops[:4096]
		}

		const nh = 3
		q := New(nh, WithLanes(lanes), WithCoreOptions(
			core.WithSegmentShift(shift), core.WithMaxGarbage(1)))
		hs := make([]*Handle, nh)
		for i := range hs {
			h, err := q.RegisterOnLane(i % lanes)
			if err != nil {
				t.Fatal(err)
			}
			hs[i] = h
		}

		model := make([][]int64, lanes)
		// modelDeq pops the first non-empty lane cyclically from home.
		modelDeq := func(home int) (int64, bool) {
			for off := 0; off < lanes; off++ {
				li := (home + off) % lanes
				if len(model[li]) > 0 {
					v := model[li][0]
					model[li] = model[li][1:]
					return v, true
				}
			}
			return 0, false
		}
		modelLen := func() int {
			n := 0
			for _, m := range model {
				n += len(m)
			}
			return n
		}

		next := int64(1)
		for k, op := range ops {
			h := hs[int(op>>2)%nh]
			switch op % 4 {
			case 0:
				q.Enqueue(h, box(next))
				model[h.Home()] = append(model[h.Home()], next)
				next++
			case 1:
				v, ok := q.Dequeue(h)
				mv, mok := modelDeq(h.Home())
				if ok != mok {
					t.Fatalf("op %d: Dequeue ok=%v, model ok=%v", k, ok, mok)
				}
				if ok && unbox(v) != mv {
					t.Fatalf("op %d: Dequeue = %d, model = %d", k, unbox(v), mv)
				}
			case 2:
				n := int64(op>>4)%16 + 1
				vs := make([]unsafe.Pointer, n)
				for j := range vs {
					vs[j] = box(next)
					model[h.Home()] = append(model[h.Home()], next)
					next++
				}
				q.EnqueueBatch(h, vs)
			case 3:
				n := int(op>>4)%16 + 1
				dst := make([]unsafe.Pointer, n)
				got := q.DequeueBatch(h, dst)
				want := modelLen()
				if want > n {
					want = n
				}
				if got != want {
					t.Fatalf("op %d: DequeueBatch(%d) = %d, want %d", k, n, got, want)
				}
				for j := 0; j < got; j++ {
					mv, _ := modelDeq(h.Home())
					if v := unbox(dst[j]); v != mv {
						t.Fatalf("op %d: batch[%d] = %d, model = %d", k, j, v, mv)
					}
				}
			}
		}
		// Drain through handle 0 and verify the model empties with it.
		for {
			v, ok := q.Dequeue(hs[0])
			mv, mok := modelDeq(hs[0].Home())
			if ok != mok {
				t.Fatalf("drain: Dequeue ok=%v, model ok=%v", ok, mok)
			}
			if !ok {
				break
			}
			if unbox(v) != mv {
				t.Fatalf("drain: got %d, model %d", unbox(v), mv)
			}
		}
		if q.Size() != 0 {
			t.Fatalf("drained queue Size = %d", q.Size())
		}
	})
}

package workload

import "testing"

func BenchmarkRNGNext(b *testing.B) {
	b.ReportAllocs()
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Next()
	}
	_ = sink
}

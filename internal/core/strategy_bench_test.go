package core

import "testing"

// BenchmarkPickIndex measures the strategy decision fast path — the cost of
// one bounded random draw as the engine sees it (reads-from selection, waiter
// picks): a buffer load plus a multiply.
func BenchmarkPickIndex(b *testing.B) {
	s := NewRandomStrategy()
	s.Seed(1)
	b.ReportAllocs()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += s.PickIndex(7)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkStrategySeed measures the per-execution re-seed cost in strategy
// position — the fixed cost every execution pays before its first decision.
func BenchmarkStrategySeed(b *testing.B) {
	s := NewRandomStrategy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

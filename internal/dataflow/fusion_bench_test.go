package dataflow

import (
	"testing"

	"psgraph/internal/dfs"
)

// Benchmarks comparing the fused evaluation path against the
// slice-materializing baseline, and the binary shuffle codec against the
// gob stream. Run with -benchmem: fusion's win is allocations (no
// intermediate partition slices), the codec's win is time and bytes.

func benchNarrowChain(b *testing.B, fused bool) {
	b.Helper()
	fusionOn.Store(fused)
	defer fusionOn.Store(true)
	ctx := NewContext(dfs.NewDefault(), Config{NumExecutors: 4})
	data := make([]int64, 100_000)
	for i := range data {
		data[i] = int64(i)
	}
	base := Parallelize(ctx, data, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain := Filter(
			Map(
				FlatMap(
					Map(base, func(x int64) int64 { return x * 3 }),
					func(x int64) []int64 { return []int64{x, x + 1} }),
				func(x int64) int64 { return x / 2 }),
			func(x int64) bool { return x%5 != 0 })
		n, err := chain.Count()
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkNarrowChainFused(b *testing.B)   { benchNarrowChain(b, true) }
func BenchmarkNarrowChainUnfused(b *testing.B) { benchNarrowChain(b, false) }

func benchShuffle(b *testing.B, binary bool) {
	b.Helper()
	binaryShuffle.Store(binary)
	defer binaryShuffle.Store(true)
	data := make([]KV[int64, float64], 200_000)
	for i := range data {
		data[i] = KV[int64, float64]{K: int64(i % 50_000), V: float64(i) * 0.5}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh context per iteration: shuffles are write-once per dep.
		ctx := NewContext(dfs.NewDefault(), Config{NumExecutors: 4})
		out := ReduceByKey(Parallelize(ctx, data, 8),
			func(a, b float64) float64 { return a + b }, 8)
		n, err := out.Count()
		if err != nil {
			b.Fatal(err)
		}
		if n != 50_000 {
			b.Fatalf("keys = %d", n)
		}
	}
}

func BenchmarkShuffleReduceByKeyBinary(b *testing.B) { benchShuffle(b, true) }
func BenchmarkShuffleReduceByKeyGob(b *testing.B)    { benchShuffle(b, false) }

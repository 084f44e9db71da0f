package dataflow

import (
	"testing"

	"psgraph/internal/dfs"
)

// Benchmarks comparing the fused evaluation path against the
// slice-materializing baseline, and timing the shuffle. Run with
// -benchmem: fusion's win is allocations (no intermediate partition
// slices).

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

// BenchmarkShuffleReduceByKey times a whole ReduceByKey: map-side combine,
// shuffle write, read and reduce of 200 k KV[int64, float64] records over
// 50 k keys, checked against a plain-Go reduction.
func BenchmarkShuffleReduceByKey(b *testing.B) {
	data := make([]KV[int64, float64], 200_000)
	want := make(map[int64]float64, 50_000)
	for i := range data {
		data[i] = KV[int64, float64]{K: int64(i % 50_000), V: float64(i) * 0.5}
		want[data[i].K] += data[i].V
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh context per iteration: shuffles are write-once per dep.
		ctx := NewContext(dfs.NewDefault(), Config{NumExecutors: 4})
		out, err := ReduceByKey(Parallelize(ctx, data, 8),
			func(a, b float64) float64 { return a + b }, 8).Collect()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(want) {
			b.Fatalf("keys = %d", len(out))
		}
		for _, kv := range out {
			if kv.V != want[kv.K] {
				b.Fatalf("key %d: %v, want %v", kv.K, kv.V, want[kv.K])
			}
		}
	}
}

// BenchmarkShuffleReadPairs times the reduce side alone: the 16 files of a
// 4×4 shuffle of 2 M KV[int64, int64] pairs with ids below 2^17 (PageRank's
// edge shape), decoded by one executor. ns/record is the whole read path:
// file open, window refills, codec and consume call.
func BenchmarkShuffleReadPairs(b *testing.B) {
	const n, parts = 2_000_000, 4
	ctx := NewContext(dfs.NewDefault(), Config{NumExecutors: 1})
	data := make([]KV[int64, int64], n)
	for i := range data {
		data[i] = KV[int64, int64]{K: int64(i*7919) % (1 << 17), V: int64(i*104729) % (1 << 17)}
	}
	dep := writeShuffle(Parallelize(ctx, data, parts), parts)
	if err := dep.materialize(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got int
		err := ctx.runTasks(parts, func(t *Task, rp int) error {
			return readShufflePart(t, dep, rp, func(KV[int64, int64]) error { got++; return nil })
		})
		if err != nil || got != n {
			b.Fatalf("read %d of %d records: %v", got, n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}

package dataflow

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// newBinReaderBytes is a cursor over a whole stream: a cut record is a
// truncated one, and Err reports it.
func newBinReaderBytes(b []byte) *BinReader { return &BinReader{b: b} }

// withFusion runs the test body under the given fusion setting and
// restores the default afterwards.
func withFusion(t *testing.T, on bool) {
	t.Helper()
	fusionOn.Store(on)
	t.Cleanup(func() { fusionOn.Store(true) })
}

// withBinaryShuffle pins the shuffle format for the test body.
func withBinaryShuffle(t *testing.T, on bool) {
	t.Helper()
	binaryShuffle.Store(on)
	t.Cleanup(func() { binaryShuffle.Store(true) })
}

// buildNarrowChain assembles a representative chain of narrow ops —
// Map, Filter, FlatMap, MapValues, Keys — ending in a keyed RDD.
func buildNarrowChain(ctx *Context, n int) *RDD[KV[int64, int64]] {
	base := Parallelize(ctx, ints(n), 7)
	doubled := Map(base, func(x int) int { return 2 * x })
	kept := Filter(doubled, func(x int) bool { return x%3 != 0 })
	expanded := FlatMap(kept, func(x int) []int { return []int{x, x + 1} })
	keyed := Map(expanded, func(x int) KV[int64, int64] {
		return KV[int64, int64]{K: int64(x % 13), V: int64(x)}
	})
	return MapValues(keyed, func(v int64) int64 { return v + 1 })
}

func TestFusedMatchesUnfusedGolden(t *testing.T) {
	run := func(fused bool) []string {
		fusionOn.Store(fused)
		ctx := newCtx(t, Config{NumExecutors: 3})
		out, err := buildNarrowChain(ctx, 500).Collect()
		if err != nil {
			t.Fatalf("fused=%v: %v", fused, err)
		}
		rows := make([]string, len(out))
		for i, kv := range out {
			rows[i] = fmt.Sprintf("%d:%d", kv.K, kv.V)
		}
		sort.Strings(rows)
		return rows
	}
	withFusion(t, true)
	fused := run(true)
	unfused := run(false)
	if len(fused) != len(unfused) {
		t.Fatalf("fused %d rows, unfused %d", len(fused), len(unfused))
	}
	for i := range fused {
		if fused[i] != unfused[i] {
			t.Fatalf("row %d: fused %q, unfused %q", i, fused[i], unfused[i])
		}
	}
}

func TestFusedMatchesUnfusedThroughShuffle(t *testing.T) {
	run := func(fused bool) []KV[int64, int64] {
		fusionOn.Store(fused)
		ctx := newCtx(t, Config{NumExecutors: 2})
		counts := ReduceByKey(buildNarrowChain(ctx, 300), func(a, b int64) int64 { return a + b }, 4)
		// Narrow ops after the shuffle fuse onto the reduce output.
		shifted := MapValues(counts, func(v int64) int64 { return v * 10 })
		out, err := shifted.Collect()
		if err != nil {
			t.Fatalf("fused=%v: %v", fused, err)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
		return out
	}
	withFusion(t, true)
	fused := run(true)
	unfused := run(false)
	if fmt.Sprint(fused) != fmt.Sprint(unfused) {
		t.Fatalf("fused %v\nunfused %v", fused, unfused)
	}
}

func TestFusionSkipsIntermediateCompute(t *testing.T) {
	// With fusion on, a Collect over a narrow chain must evaluate each
	// element exactly once per stage — the map function runs n times
	// even though three RDD nodes sit between source and action, and
	// no intermediate partition slice is ever built (checked indirectly:
	// the per-element counter would double if any stage re-ran).
	withFusion(t, true)
	ctx := newCtx(t, Config{NumExecutors: 2})
	var calls atomic.Int64
	r := Map(Parallelize(ctx, ints(100), 4), func(x int) int {
		calls.Add(1)
		return x
	})
	chained := Filter(Map(r, func(x int) int { return x + 1 }), func(x int) bool { return true })
	if _, err := chained.Collect(); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 100 {
		t.Fatalf("map ran %d times, want 100", got)
	}
}

func TestFusionRespectsCachePoint(t *testing.T) {
	// A Cache() in the middle of a narrow chain is a fusion barrier: the
	// cached RDD materializes once, and a second action reuses the cached
	// partitions instead of re-running the upstream stage.
	withFusion(t, true)
	ctx := newCtx(t, Config{NumExecutors: 2})
	var upstream atomic.Int64
	cached := Map(Parallelize(ctx, ints(50), 2), func(x int) int {
		upstream.Add(1)
		return x * 3
	}).Cache()
	downstream := Filter(Map(cached, func(x int) int { return x + 1 }), func(x int) bool { return x%2 == 1 })
	first, err := downstream.Collect()
	if err != nil {
		t.Fatal(err)
	}
	after := upstream.Load()
	if after != 50 {
		t.Fatalf("upstream ran %d times on first action, want 50", after)
	}
	second, err := downstream.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if upstream.Load() != after {
		t.Fatalf("upstream recomputed despite cache: %d -> %d", after, upstream.Load())
	}
	sort.Ints(first)
	sort.Ints(second)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("cached rerun differs: %v vs %v", first, second)
	}
	// Unpersist re-opens the chain: the next action recomputes upstream.
	cached.Unpersist()
	if _, err := downstream.Collect(); err != nil {
		t.Fatal(err)
	}
	if upstream.Load() == after {
		t.Fatal("upstream not recomputed after Unpersist")
	}
}

func TestFusedChainRetriesOnExecutorFailure(t *testing.T) {
	// Kill the executor from inside a fused per-element function: the
	// in-flight task dies mid-stream and lineage re-runs the whole fused
	// pass, producing exactly the same data.
	withFusion(t, true)
	ctx := newCtx(t, Config{NumExecutors: 1, RestartDelay: 10 * time.Millisecond})
	var once atomic.Bool
	r := Filter(Map(Parallelize(ctx, ints(60), 6), func(x int) int {
		if x == 37 && once.CompareAndSwap(false, true) {
			ctx.KillExecutor(0)
		}
		return x * 2
	}), func(x int) bool { return x%4 == 0 })
	got, err := r.Collect()
	if err != nil {
		t.Fatalf("collect with failure: %v", err)
	}
	if ctx.Stats().TasksRetried == 0 {
		t.Fatal("no task was retried")
	}
	sort.Ints(got)
	var want []int
	for _, x := range ints(60) {
		if (x*2)%4 == 0 {
			want = append(want, x*2)
		}
	}
	sort.Ints(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("data corrupted after retry:\ngot  %v\nwant %v", got, want)
	}
}

func TestFusedForeachStreams(t *testing.T) {
	withFusion(t, true)
	ctx := newCtx(t, Config{NumExecutors: 2})
	var sum atomic.Int64
	err := Map(Parallelize(ctx, ints(100), 5), func(x int) int { return x }).
		Foreach(func(x int) error { sum.Add(int64(x)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestReduceExecutorSidePartials(t *testing.T) {
	// Reduce must produce the same result fused and unfused, including
	// with empty partitions in the mix (more partitions than elements).
	for _, fused := range []bool{true, false} {
		fusionOn.Store(fused)
		ctx := newCtx(t, Config{NumExecutors: 2})
		sum, err := Parallelize(ctx, ints(7), 16).Reduce(func(a, b int) int { return a + b })
		if err != nil || sum != 21 {
			t.Fatalf("fused=%v: sum = %d, %v", fused, sum, err)
		}
	}
	fusionOn.Store(true)
}

// --- shuffle codec equivalence ---------------------------------------------

func shuffleRoundTrip[K comparable, V any](t *testing.T, kvs []KV[K, V], binary bool) []KV[K, V] {
	t.Helper()
	binaryShuffle.Store(binary)
	ctx := newCtx(t, Config{NumExecutors: 2})
	out, err := PartitionBy(Parallelize(ctx, kvs, 3), 4).Collect()
	if err != nil {
		t.Fatalf("binary=%v: %v", binary, err)
	}
	return out
}

func checkShuffleEquivalence[K comparable, V any](t *testing.T, kvs []KV[K, V]) {
	t.Helper()
	bin := shuffleRoundTrip(t, kvs, true)
	gob := shuffleRoundTrip(t, kvs, false)
	key := func(kv KV[K, V]) string { return fmt.Sprintf("%v|%v", kv.K, kv.V) }
	bs := make([]string, len(bin))
	gs := make([]string, len(gob))
	for i := range bin {
		bs[i] = key(bin[i])
	}
	for i := range gob {
		gs[i] = key(gob[i])
	}
	sort.Strings(bs)
	sort.Strings(gs)
	if len(bs) != len(kvs) {
		t.Fatalf("binary shuffle returned %d rows, want %d", len(bs), len(kvs))
	}
	for i := range bs {
		if bs[i] != gs[i] {
			t.Fatalf("row %d: binary %q, gob %q", i, bs[i], gs[i])
		}
	}
}

func TestShuffleCodecEquivalenceBuiltins(t *testing.T) {
	withBinaryShuffle(t, true)
	t.Run("i64-i64", func(t *testing.T) {
		var kvs []KV[int64, int64]
		for i := 0; i < 200; i++ {
			kvs = append(kvs, KV[int64, int64]{K: int64(i - 100), V: int64(i) * 1_000_003})
		}
		checkShuffleEquivalence(t, kvs)
	})
	t.Run("i64-f64", func(t *testing.T) {
		var kvs []KV[int64, float64]
		for i := 0; i < 200; i++ {
			kvs = append(kvs, KV[int64, float64]{K: int64(i), V: float64(i) * 0.37})
		}
		checkShuffleEquivalence(t, kvs)
	})
	t.Run("i64-f64s", func(t *testing.T) {
		var kvs []KV[int64, []float64]
		for i := 0; i < 50; i++ {
			v := make([]float64, i%5)
			for j := range v {
				v[j] = float64(i*10 + j)
			}
			kvs = append(kvs, KV[int64, []float64]{K: int64(i), V: v})
		}
		checkShuffleEquivalence(t, kvs)
	})
	t.Run("i64-i64s", func(t *testing.T) {
		var kvs []KV[int64, []int64]
		for i := 0; i < 50; i++ {
			v := make([]int64, i%4)
			for j := range v {
				v[j] = int64(-i * j)
			}
			kvs = append(kvs, KV[int64, []int64]{K: int64(i), V: v})
		}
		checkShuffleEquivalence(t, kvs)
	})
	t.Run("i64-bytes", func(t *testing.T) {
		var kvs []KV[int64, []byte]
		for i := 0; i < 50; i++ {
			kvs = append(kvs, KV[int64, []byte]{K: int64(i), V: []byte(fmt.Sprintf("payload-%d", i))})
		}
		checkShuffleEquivalence(t, kvs)
	})
	t.Run("gob-fallback-string-key", func(t *testing.T) {
		// No codec registered for string keys: both settings take the gob
		// stream and must agree.
		var kvs []KV[string, int]
		for i := 0; i < 100; i++ {
			kvs = append(kvs, KV[string, int]{K: fmt.Sprintf("k%d", i%17), V: i})
		}
		checkShuffleEquivalence(t, kvs)
	})
}

func TestShuffleCodecEquivalenceAggregations(t *testing.T) {
	// End-to-end: ReduceByKey and GroupByKey agree across formats.
	withBinaryShuffle(t, true)
	var kvs []KV[int64, int64]
	for i := 0; i < 3000; i++ {
		kvs = append(kvs, KV[int64, int64]{K: int64(i % 37), V: int64(i)})
	}
	run := func(binary bool) map[int64]int64 {
		binaryShuffle.Store(binary)
		ctx := newCtx(t, Config{NumExecutors: 2})
		out, err := ReduceByKey(Parallelize(ctx, kvs, 5),
			func(a, b int64) int64 { return a + b }, 3).Collect()
		if err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
		m := make(map[int64]int64, len(out))
		for _, kv := range out {
			m[kv.K] = kv.V
		}
		return m
	}
	bin, gob := run(true), run(false)
	if len(bin) != 37 || len(gob) != 37 {
		t.Fatalf("keys: binary %d, gob %d, want 37", len(bin), len(gob))
	}
	for k, v := range bin {
		if gob[k] != v {
			t.Fatalf("key %d: binary %d, gob %d", k, v, gob[k])
		}
	}
}

func TestBinaryShuffleReadableAfterToggle(t *testing.T) {
	// Files written in one format stay readable when the toggle flips
	// before the reduce side runs: the reader dispatches on the format
	// byte, not the global switch.
	withBinaryShuffle(t, true)
	ctx := newCtx(t, Config{NumExecutors: 2})
	var kvs []KV[int64, int64]
	for i := 0; i < 500; i++ {
		kvs = append(kvs, KV[int64, int64]{K: int64(i % 10), V: 1})
	}
	counts := ReduceByKey(Parallelize(ctx, kvs, 4), func(a, b int64) int64 { return a + b }, 2)
	// Force the map side to run under binary, then flip to gob for the read.
	if err := counts.prepare(); err != nil {
		t.Fatal(err)
	}
	binaryShuffle.Store(false)
	out, err := counts.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("keys = %d", len(out))
	}
	for _, kv := range out {
		if kv.V != 50 {
			t.Fatalf("count[%d] = %d", kv.K, kv.V)
		}
	}
}

func TestAppendReadHelpersPreserveNil(t *testing.T) {
	b := AppendF64s(nil, nil)
	b = AppendF64s(b, []float64{})
	b = AppendF64s(b, []float64{1.5, -2.5})
	b = AppendI64s(b, nil)
	b = AppendI64s(b, []int64{-7, 7})
	b = AppendRaw(b, nil)
	b = AppendRaw(b, []byte{})
	b = AppendRaw(b, []byte("abc"))
	r := newBinReaderBytes(b)
	if got := r.F64s(); got != nil {
		t.Fatalf("nil []float64 round-trip: %v", got)
	}
	if got := r.F64s(); got == nil || len(got) != 0 {
		t.Fatalf("empty []float64 round-trip: %v", got)
	}
	if got := r.F64s(); fmt.Sprint(got) != "[1.5 -2.5]" {
		t.Fatalf("[]float64 round-trip: %v", got)
	}
	if got := r.I64s(); got != nil {
		t.Fatalf("nil []int64 round-trip: %v", got)
	}
	if got := r.I64s(); fmt.Sprint(got) != "[-7 7]" {
		t.Fatalf("[]int64 round-trip: %v", got)
	}
	if got := r.Raw(); got != nil {
		t.Fatalf("nil []byte round-trip: %v", got)
	}
	if got := r.Raw(); got == nil || len(got) != 0 {
		t.Fatalf("empty []byte round-trip: %v", got)
	}
	if got := r.Raw(); string(got) != "abc" {
		t.Fatalf("[]byte round-trip: %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.off != len(b) {
		t.Fatal("trailing data after round-trip")
	}
}

func TestBinReaderTruncatedStream(t *testing.T) {
	b := AppendF64s(nil, []float64{1, 2, 3})
	r := newBinReaderBytes(b[:len(b)-4])
	if got := r.F64s(); got != nil {
		t.Fatalf("truncated decode returned %v", got)
	}
	if r.Err() == nil {
		t.Fatal("truncated stream produced no error")
	}
}

package dataflow

import (
	"fmt"
	"sort"
	"strings"
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

// buildNarrowChain assembles a representative chain of narrow ops —
// Map, Filter, FlatMap — ending in a keyed RDD.
func buildNarrowChain(ctx *Context, n int) *RDD[KV[int64, int64]] {
	base := Parallelize(ctx, ints(n), 7)
	doubled := Map(base, func(x int) int { return 2 * x })
	kept := Filter(doubled, func(x int) bool { return x%3 != 0 })
	expanded := FlatMap(kept, func(x int) []int { return []int{x, x + 1} })
	keyed := Map(expanded, func(x int) KV[int64, int64] {
		return KV[int64, int64]{K: int64(x % 13), V: int64(x)}
	})
	return Map(keyed, func(kv KV[int64, int64]) KV[int64, int64] {
		return KV[int64, int64]{K: kv.K, V: kv.V + 1}
	})
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
		shifted := Map(counts, func(kv KV[int64, int64]) KV[int64, int64] {
			return KV[int64, int64]{K: kv.K, V: kv.V * 10}
		})
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

// TestFusedForeachStreams: a fused chain streams each element into the
// action's fold, here Reduce's, as the chain produces it.
func TestFusedForeachStreams(t *testing.T) {
	withFusion(t, true)
	ctx := newCtx(t, Config{NumExecutors: 2})
	var seen atomic.Int64
	sum, err := Map(Parallelize(ctx, ints(100), 5), func(x int) int { seen.Add(1); return x }).
		Reduce(func(a, b int) int { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if sum != 4950 || seen.Load() != 100 {
		t.Fatalf("sum = %d over %d elements", sum, seen.Load())
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

// --- shuffle codec round trips --------------------------------------------

// partitionBy re-distributes a keyed dataset by key hash into parts
// partitions: a shuffle with no grouping, so what comes out is exactly
// what the codec wrote and read back.
func partitionBy[K comparable, V any](r *RDD[KV[K, V]], parts int) *RDD[KV[K, V]] {
	return ShuffleReduce(r, parts, func(t *Task, n int, frames func(func([]KV[K, V]) error) error) ([]KV[K, V], error) {
		out := make([]KV[K, V], 0, n)
		err := frames(func(f []KV[K, V]) error {
			out = append(out, f...)
			return nil
		})
		return out, err
	})
}

// checkShuffleRoundTrip shuffles kvs across partitions and requires the
// records that come out to be the records that went in.
func checkShuffleRoundTrip[K comparable, V any](t *testing.T, kvs []KV[K, V]) {
	t.Helper()
	ctx := newCtx(t, Config{NumExecutors: 2})
	out, err := partitionBy(Parallelize(ctx, kvs, 3), 4).Collect()
	if err != nil {
		t.Fatal(err)
	}
	rows := func(kvs []KV[K, V]) []string {
		s := make([]string, len(kvs))
		for i, kv := range kvs {
			s[i] = fmt.Sprintf("%v|%v", kv.K, kv.V)
		}
		sort.Strings(s)
		return s
	}
	got, want := rows(out), rows(kvs)
	if len(got) != len(want) {
		t.Fatalf("shuffle returned %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: shuffled %q, input %q", i, got[i], want[i])
		}
	}
}

func TestShuffleCodecEquivalenceBuiltins(t *testing.T) {
	t.Run("i64-i64", func(t *testing.T) {
		var kvs []KV[int64, int64]
		for i := 0; i < 200; i++ {
			kvs = append(kvs, KV[int64, int64]{K: int64(i - 100), V: int64(i) * 1_000_003})
		}
		checkShuffleRoundTrip(t, kvs)
	})
	t.Run("i64-f64", func(t *testing.T) {
		var kvs []KV[int64, float64]
		for i := 0; i < 200; i++ {
			kvs = append(kvs, KV[int64, float64]{K: int64(i), V: float64(i) * 0.37})
		}
		checkShuffleRoundTrip(t, kvs)
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
		checkShuffleRoundTrip(t, kvs)
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
		checkShuffleRoundTrip(t, kvs)
	})
	t.Run("i64-unit", func(t *testing.T) {
		var kvs []KV[int64, struct{}]
		for i := 0; i < 100; i++ {
			kvs = append(kvs, KV[int64, struct{}]{K: int64(i*i) - 2_000})
		}
		checkShuffleRoundTrip(t, kvs)
	})
}

// TestShuffleRejectsUnregisteredShape: the registered codec is the only
// shuffle format, so a shuffle over a shape without one fails when the
// job is built, naming the shape, before any map task runs.
func TestShuffleRejectsUnregisteredShape(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 2})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "dataflow.KV[string,int]") {
			t.Fatalf("panic %q does not name the shape", msg)
		}
		if n := ctx.Stats().TasksRun; n != 0 {
			t.Fatalf("%d tasks ran before the shuffle was refused", n)
		}
	}()
	ReduceByKey(Parallelize(ctx, []KV[string, int]{{K: "a", V: 1}}, 2),
		func(a, b int) int { return a + b }, 2)
	t.Fatal("a shuffle over KV[string, int] was built")
}

func TestShuffleCodecEquivalenceAggregations(t *testing.T) {
	// End-to-end: ReduceByKey and GroupByKey agree with a plain-Go
	// reduction of the same records.
	var kvs []KV[int64, int64]
	want := map[int64]int64{}
	for i := 0; i < 3000; i++ {
		kvs = append(kvs, KV[int64, int64]{K: int64(i % 37), V: int64(i)})
		want[int64(i%37)] += int64(i)
	}
	ctx := newCtx(t, Config{NumExecutors: 2})
	sums, err := ReduceByKey(Parallelize(ctx, kvs, 5),
		func(a, b int64) int64 { return a + b }, 3).Collect()
	if err != nil {
		t.Fatal(err)
	}
	groups, err := GroupByKey(Parallelize(ctx, kvs, 5), 3).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != len(want) || len(groups) != len(want) {
		t.Fatalf("keys: reduceByKey %d, groupByKey %d, want %d", len(sums), len(groups), len(want))
	}
	for _, kv := range sums {
		if want[kv.K] != kv.V {
			t.Fatalf("reduceByKey key %d: %d, want %d", kv.K, kv.V, want[kv.K])
		}
	}
	for _, g := range groups {
		var sum int64
		for _, v := range g.V {
			sum += v
		}
		if want[g.K] != sum {
			t.Fatalf("groupByKey key %d: values sum to %d, want %d", g.K, sum, want[g.K])
		}
	}
}

func TestShuffleReadAfterMapStage(t *testing.T) {
	// The map side runs in one action and the reduce side in a later one:
	// the files it left behind are read, not rewritten, and decode to the
	// counts the input holds.
	ctx := newCtx(t, Config{NumExecutors: 2})
	var kvs []KV[int64, int64]
	for i := 0; i < 500; i++ {
		kvs = append(kvs, KV[int64, int64]{K: int64(i % 10), V: 1})
	}
	counts := ReduceByKey(Parallelize(ctx, kvs, 4), func(a, b int64) int64 { return a + b }, 2)
	if err := counts.prepare(); err != nil {
		t.Fatal(err)
	}
	written := ctx.Stats().ShuffleBytes
	out, err := counts.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Stats().ShuffleBytes != written {
		t.Fatalf("the map side ran again: %d shuffle bytes, then %d", written, ctx.Stats().ShuffleBytes)
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

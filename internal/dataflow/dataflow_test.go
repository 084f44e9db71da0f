package dataflow

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"psgraph/internal/dfs"
)

func newCtx(t *testing.T, cfg Config) *Context {
	t.Helper()
	return NewContext(dfs.NewDefault(), cfg)
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizeCollect(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 3})
	r := Parallelize(ctx, ints(100), 7)
	got, err := r.Collect()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if len(got) != 100 {
		t.Fatalf("len = %d", len(got))
	}
	sort.Ints(got)
	for i, x := range got {
		if x != i {
			t.Fatalf("got[%d] = %d", i, x)
		}
	}
}

func TestMapFilterFlatMap(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 2})
	r := Parallelize(ctx, ints(10), 3)
	doubled := Map(r, func(x int) int { return 2 * x })
	evens := Filter(doubled, func(x int) bool { return x%4 == 0 })
	expanded := FlatMap(evens, func(x int) []int { return []int{x, x + 1} })
	got, err := expanded.Collect()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	sort.Ints(got)
	want := []int{0, 1, 4, 5, 8, 9, 12, 13, 16, 17}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestCount(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 2})
	n, err := Parallelize(ctx, ints(57), 5).Count()
	if err != nil || n != 57 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

func TestReduce(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 2})
	sum, err := Parallelize(ctx, ints(101), 4).Reduce(func(a, b int) int { return a + b })
	if err != nil || sum != 5050 {
		t.Fatalf("sum = %d, %v", sum, err)
	}
	_, err = Parallelize(ctx, []int{}, 2).Reduce(func(a, b int) int { return a + b })
	if err == nil {
		t.Fatal("reduce of empty RDD succeeded")
	}
}

func TestGroupByKey(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 3})
	var kvs []KV[int64, int64]
	for i := int64(0); i < 100; i++ {
		kvs = append(kvs, KV[int64, int64]{K: i % 10, V: i})
	}
	grouped := GroupByKey(Parallelize(ctx, kvs, 5), 4)
	got, err := grouped.Collect()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("groups = %d, want 10", len(got))
	}
	for _, g := range got {
		if len(g.V) != 10 {
			t.Fatalf("group %d has %d values", g.K, len(g.V))
		}
		for _, v := range g.V {
			if v%10 != g.K {
				t.Fatalf("value %d in group %d", v, g.K)
			}
		}
	}
}

func TestReduceByKey(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 3})
	var kvs []KV[int64, int64]
	for i := int64(0); i < 60; i++ {
		kvs = append(kvs, KV[int64, int64]{K: i % 3, V: 1})
	}
	counts := ReduceByKey(Parallelize(ctx, kvs, 6), func(a, b int64) int64 { return a + b }, 2)
	got, err := counts.Collect()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("keys = %d", len(got))
	}
	for _, kv := range got {
		if kv.V != 20 {
			t.Fatalf("count[%d] = %d, want 20", kv.K, kv.V)
		}
	}
}

func TestReduceByKeyMatchesSequentialProperty(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 4})
	f := func(keys []uint8, vals []int16) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		kvs := make([]KV[int64, int64], n)
		want := map[int64]int64{}
		for i := 0; i < n; i++ {
			k := int64(keys[i] % 16)
			v := int64(vals[i])
			kvs[i] = KV[int64, int64]{K: k, V: v}
			want[k] += v
		}
		out, err := ReduceByKey(Parallelize(ctx, kvs, 3), func(a, b int64) int64 { return a + b }, 3).Collect()
		if err != nil {
			return false
		}
		if len(out) != len(want) {
			return false
		}
		for _, kv := range out {
			if want[kv.K] != kv.V {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestJoin(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 2})
	left := Parallelize(ctx, []KV[int64, []float64]{
		{K: 1, V: []float64{1}}, {K: 2, V: []float64{2}}, {K: 2, V: []float64{2.5}}, {K: 3, V: []float64{3}},
	}, 2)
	right := Parallelize(ctx, []KV[int64, int64]{
		{K: 2, V: 20}, {K: 3, V: 30}, {K: 3, V: 31}, {K: 4, V: 40},
	}, 3)
	joined, err := Join(left, right, 2).Collect()
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	var rows []string
	for _, kv := range joined {
		rows = append(rows, fmt.Sprintf("%d:%v:%d", kv.K, kv.V.A, kv.V.B))
	}
	sort.Strings(rows)
	want := []string{"2:[2.5]:20", "2:[2]:20", "3:[3]:30", "3:[3]:31"}
	if strings.Join(rows, ",") != strings.Join(want, ",") {
		t.Fatalf("got %v, want %v", rows, want)
	}
}

func TestDistinct(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 2})
	r := Parallelize(ctx, []int64{1, 2, 2, 3, 3, 3, 1}, 3)
	got, err := Distinct(r, 2).Collect()
	if err != nil {
		t.Fatalf("distinct: %v", err)
	}
	slices.Sort(got)
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("got %v", got)
	}
}

func TestPartitionByColocatesKeys(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 2})
	var kvs []KV[int64, int64]
	for i := int64(0); i < 40; i++ {
		kvs = append(kvs, KV[int64, int64]{K: i % 4, V: i})
	}
	p := partitionBy(Parallelize(ctx, kvs, 5), 3)
	var mu sync.Mutex       // partitions run concurrently
	seen := map[int64]int{} // key -> partition
	err := p.ForeachPartition(func(part int, in []KV[int64, int64]) error {
		mu.Lock()
		defer mu.Unlock()
		for _, kv := range in {
			if prev, ok := seen[kv.K]; ok && prev != part {
				return fmt.Errorf("key %d in partitions %d and %d", kv.K, prev, part)
			}
			seen[kv.K] = part
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("keys seen = %d", len(seen))
	}
}

func TestTextFileRoundTrip(t *testing.T) {
	fs := dfs.NewDefault()
	ctx := NewContext(fs, Config{NumExecutors: 2})
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "line-%d\n", i)
	}
	fs.WriteFile("/in.txt", []byte(sb.String()))
	lines, err := TextFile(ctx, "/in.txt", 4).Collect()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if len(lines) != 100 {
		t.Fatalf("lines = %d", len(lines))
	}
	sort.Strings(lines)
	if lines[0] != "line-0" {
		t.Fatalf("lines[0] = %q", lines[0])
	}
}

func TestCacheAvoidsRecompute(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 2})
	var computes atomic.Int64
	r := Map(Parallelize(ctx, ints(10), 2), func(x int) int {
		computes.Add(1)
		return x
	}).Cache()
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	first := computes.Load()
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != first {
		t.Fatalf("recomputed after cache: %d -> %d", first, computes.Load())
	}
	r.Unpersist()
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	if computes.Load() == first {
		t.Fatal("not recomputed after Unpersist")
	}
}

func TestOOMOnGroupByUnderBudget(t *testing.T) {
	// 50k values of ~13 encoded bytes each grouped into 1 partition
	// cannot fit a tiny executor budget.
	ctx := newCtx(t, Config{NumExecutors: 2, ExecutorMemBytes: 64 << 10})
	var kvs []KV[int64, int64]
	for i := 0; i < 50000; i++ {
		kvs = append(kvs, KV[int64, int64]{K: int64(i % 5), V: int64(i)})
	}
	_, err := GroupByKey(Parallelize(ctx, kvs, 4), 1).Collect()
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}

func TestNoOOMWithAdequateBudget(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 2, ExecutorMemBytes: 64 << 20})
	var kvs []KV[int64, int64]
	for i := 0; i < 50000; i++ {
		kvs = append(kvs, KV[int64, int64]{K: int64(i % 5), V: int64(i)})
	}
	out, err := GroupByKey(Parallelize(ctx, kvs, 4), 2).Collect()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if len(out) != 5 {
		t.Fatalf("groups = %d", len(out))
	}
}

func TestCacheOOM(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 1, ExecutorMemBytes: 1 << 10})
	big := make([]int64, 10000)
	r := Parallelize(ctx, big, 1).Cache()
	_, err := r.Collect()
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}

func TestExecutorFailureRetriesTask(t *testing.T) {
	// One executor, killed from inside a task: the in-flight task's results
	// are discarded and the task is retried after the executor restarts.
	ctx := newCtx(t, Config{NumExecutors: 1, RestartDelay: 10 * time.Millisecond})
	var once atomic.Bool
	r := MapPartitions(Parallelize(ctx, ints(40), 8), func(part int, in []int) ([]int, error) {
		if part == 3 && once.CompareAndSwap(false, true) {
			ctx.KillExecutor(0)
		}
		return in, nil
	})
	got, err := r.Collect()
	if err != nil {
		t.Fatalf("collect with failure: %v", err)
	}
	if len(got) != 40 {
		t.Fatalf("len = %d", len(got))
	}
	st := ctx.Stats()
	if st.TasksRetried == 0 {
		t.Fatal("no task was retried")
	}
	sort.Ints(got)
	for i, x := range got {
		if x != i {
			t.Fatalf("data corrupted after retry: got[%d] = %d", i, x)
		}
	}
}

func TestShuffleBytesAccounted(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 2})
	var kvs []KV[int64, int64]
	for i := 0; i < 1000; i++ {
		kvs = append(kvs, KV[int64, int64]{K: int64(i), V: int64(i)})
	}
	if _, err := GroupByKey(Parallelize(ctx, kvs, 2), 2).Collect(); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats().ShuffleBytes == 0 {
		t.Fatal("shuffle bytes not accounted")
	}
}

func TestChainedShufflesPrepareInOrder(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 2})
	var kvs []KV[int64, int64]
	for i := 0; i < 100; i++ {
		kvs = append(kvs, KV[int64, int64]{K: int64(i % 10), V: 1})
	}
	counts := ReduceByKey(Parallelize(ctx, kvs, 4), func(a, b int64) int64 { return a + b }, 3)
	// Second shuffle keyed by count value.
	byCount := Map(counts, func(kv KV[int64, int64]) KV[int64, int64] {
		return KV[int64, int64]{K: kv.V, V: 1}
	})
	grouped := ReduceByKey(byCount, func(a, b int64) int64 { return a + b }, 2)
	out, err := grouped.Collect()
	if err != nil {
		t.Fatalf("chained shuffle: %v", err)
	}
	if len(out) != 1 || out[0].K != 10 || out[0].V != 10 {
		t.Fatalf("got %v, want one entry 10->10", out)
	}
}

func TestEstimateBytesScalesWithLength(t *testing.T) {
	small := estimateBytes(ints(10))
	large := estimateBytes(ints(10000))
	if large < small*100 {
		t.Fatalf("estimate does not scale: small=%d large=%d", small, large)
	}
	if estimateBytes([]int(nil)) != 0 {
		t.Fatal("empty estimate not zero")
	}
}

func TestTextFileSplitSemantics(t *testing.T) {
	// Every line must land in exactly one partition regardless of how
	// split boundaries cut through lines.
	fs := dfs.New(dfs.Config{BlockSize: 16, NumDataNodes: 2, Replication: 1})
	ctx := NewContext(fs, Config{NumExecutors: 2})
	var sb strings.Builder
	var want []string
	rng := 0
	for i := 0; i < 200; i++ {
		line := fmt.Sprintf("line-%d-%s", i, strings.Repeat("x", rng))
		rng = (rng*7 + 3) % 23 // varied line lengths
		want = append(want, line)
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	fs.WriteFile("/split.txt", []byte(sb.String()))
	for _, parts := range []int{1, 2, 3, 7, 16} {
		got, err := TextFile(ctx, "/split.txt", parts).Collect()
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		if len(got) != len(want) {
			t.Fatalf("parts=%d: %d lines, want %d", parts, len(got), len(want))
		}
		sort.Strings(got)
		sorted := append([]string(nil), want...)
		sort.Strings(sorted)
		for i := range sorted {
			if got[i] != sorted[i] {
				t.Fatalf("parts=%d: line %d = %q, want %q", parts, i, got[i], sorted[i])
			}
		}
	}
}

func TestTextFileNoTrailingNewline(t *testing.T) {
	fs := dfs.NewDefault()
	ctx := NewContext(fs, Config{NumExecutors: 2})
	fs.WriteFile("/nt.txt", []byte("a\nb\nc")) // no final newline
	got, err := TextFile(ctx, "/nt.txt", 3).Collect()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != "[a b c]" {
		t.Fatalf("got %v", got)
	}
}

func TestMemBloatFactorScalesCharges(t *testing.T) {
	var kvs []KV[int64, int64]
	for i := 0; i < 20000; i++ {
		kvs = append(kvs, KV[int64, int64]{K: int64(i % 5), V: int64(i)})
	}
	// A budget that passes at factor 1 must OOM at factor 8.
	base := NewContext(dfs.NewDefault(), Config{NumExecutors: 2, ExecutorMemBytes: 4 << 20})
	if _, err := GroupByKey(Parallelize(base, kvs, 4), 2).Collect(); err != nil {
		t.Fatalf("factor 1: %v", err)
	}
	bloated := NewContext(dfs.NewDefault(), Config{NumExecutors: 2, ExecutorMemBytes: 4 << 20, MemBloatFactor: 8})
	if _, err := GroupByKey(Parallelize(bloated, kvs, 4), 2).Collect(); !errors.Is(err, ErrOOM) {
		t.Fatalf("factor 8: err = %v, want ErrOOM", err)
	}
}

func TestJoinOOMWhenOutputReplicates(t *testing.T) {
	// A join whose output replicates large build-side values must charge
	// for the replication: few keys, big slices, many right rows.
	ctx := NewContext(dfs.NewDefault(), Config{NumExecutors: 2, ExecutorMemBytes: 1 << 20})
	big := make([]int64, 4096)
	for i := range big {
		big[i] = int64(i) * 1_000_003 // incompressible values
	}
	left := Parallelize(ctx, []KV[int64, []int64]{{K: 1, V: big}, {K: 2, V: big}}, 1)
	var rights []KV[int64, int64]
	for i := 0; i < 200; i++ {
		rights = append(rights, KV[int64, int64]{K: int64(1 + i%2), V: int64(i)})
	}
	right := Parallelize(ctx, rights, 1)
	_, err := Join(left, right, 1).Collect()
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM from replicated join output", err)
	}
}

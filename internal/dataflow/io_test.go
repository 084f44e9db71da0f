package dataflow

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"psgraph/internal/dfs"
)

// fileLines is what a text file's lines are, independently of splits:
// the pieces between newlines, without a phantom line after a final one.
func fileLines(content []byte) []string {
	if len(content) == 0 {
		return nil
	}
	lines := strings.Split(string(content), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// splitCorpus returns the files the split-ownership properties run on:
// the named edge cases plus seeded random ones.
func splitCorpus() map[string][]byte {
	long := strings.Repeat("x", 70_000) // longer than the 64 KB read buffer
	corpus := map[string][]byte{
		"empty":            nil,
		"one-newline":      []byte("\n"),
		"no-trailing":      []byte("a\nbb\nccc"),
		"crlf":             []byte("a\r\n\r\nb\r\n"),
		"blank-lines":      []byte("\n\na\n\n\nb\n\n"),
		"long-line":        []byte("head\n" + long + "\ntail\n"),
		"long-line-last":   []byte("head\n" + long),
		"boundary-aligned": []byte(strings.Repeat("123456789\n", 9)), // 90 bytes: parts 3 and 9 cut exactly after a newline
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		var b bytes.Buffer
		for l := rng.Intn(40); l > 0; l-- {
			b.WriteString(strings.Repeat("y", rng.Intn(12)))
			if rng.Intn(4) == 0 {
				b.WriteByte('\r')
			}
			b.WriteByte('\n')
		}
		if rng.Intn(2) == 0 {
			b.WriteString("tail")
		}
		corpus[fmt.Sprintf("random-%d", i)] = b.Bytes()
	}
	return corpus
}

// TestSplitOwnership: for every file and every partition count, the
// splits in partition order concatenate to exactly the file's lines —
// each line owned once, none torn, none invented.
func TestSplitOwnership(t *testing.T) {
	for _, blockSize := range []int{16, 4 << 20} {
		fs := dfs.New(dfs.Config{BlockSize: blockSize})
		ctx := NewContext(fs, Config{NumExecutors: 2})
		for name, content := range splitCorpus() {
			path := "/split/" + name
			if err := fs.WriteFile(path, content); err != nil {
				t.Fatal(err)
			}
			want := fileLines(content)
			for parts := 1; parts <= 9; parts++ {
				got, err := TextFile(ctx, path, parts).Collect()
				if err != nil {
					t.Fatalf("%s parts=%d: %v", name, parts, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s block=%d parts=%d: %d lines, want %d (first difference at %d)",
						name, blockSize, parts, len(got), len(want), firstDiff(got, want))
				}
			}
		}
	}
}

// ownedLines is what split part of parts must read: the lines whose first
// byte lies in its byte range, without the newline, \r kept.
func ownedLines(content []byte, part, parts int) []string {
	start := len(content) * part / parts
	end := len(content) * (part + 1) / parts
	var out []string
	off := 0
	for _, line := range fileLines(content) {
		if off >= start && off < end {
			out = append(out, line)
		}
		off += len(line) + 1
	}
	return out
}

// TestReadSplitTable: each split, read alone, yields exactly the lines it
// owns by first byte — CRLF endings, a last line without a newline, lines
// longer than the read window (and one that fills it exactly) and splits
// that start mid-line — for every partition count from 1 to 5.
func TestReadSplitTable(t *testing.T) {
	const window = 1 << 16
	cases := map[string]string{
		"crlf":            "a\r\n\r\nbb\r\nccc\r\n",
		"no-trailing":     "12 34\n56 78\n9 10",
		"longer":          "h\n" + strings.Repeat("x", window+10) + "\nt\n",
		"twice-longer":    strings.Repeat("y", 2*window+3) + "\r\nz",
		"fills-window":    strings.Repeat("w", window-1) + "\n" + strings.Repeat("v", window) + "\nu",
		"mid-line-starts": strings.Repeat("abcdefghijklmnopq\n", 3) + "r",
		"blank-lines":     "\n\n1 2\n\n",
	}
	fs := dfs.New(dfs.Config{BlockSize: 1000})
	for name, content := range cases {
		path := "/table/" + name
		if err := fs.WriteFile(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		for parts := 1; parts <= 5; parts++ {
			for part := range parts {
				var got []string
				err := readSplit(fs, path, part, parts, func(line []byte) error {
					got = append(got, string(line))
					return nil
				})
				if want := ownedLines([]byte(content), part, parts); err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s split %d of %d: %d lines (%v), want %d (first difference at %d)",
						name, part, parts, len(got), err, len(want), firstDiff(got, want))
				}
			}
		}
	}
}

func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestSplitParseDropsAndFails: parse may drop a line or fail the job, and
// sees each line as bytes.
func TestSplitParseDropsAndFails(t *testing.T) {
	fs := dfs.NewDefault()
	ctx := NewContext(fs, Config{NumExecutors: 2})
	fs.WriteFile("/p.txt", []byte("1\n\n22\n333\n"))
	lens := ParseTextFile(ctx, "/p.txt", 3, func(line []byte) (int, bool, error) {
		return len(line), len(line) > 0, nil
	})
	got, err := lens.Collect()
	if err != nil || !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("got %v, %v", got, err)
	}
	bad := ParseTextFile(ctx, "/p.txt", 3, func(line []byte) (int, bool, error) {
		if len(line) == 2 {
			return 0, false, fmt.Errorf("bad line %q", line)
		}
		return 0, true, nil
	})
	if _, err := bad.Count(); err == nil || !strings.Contains(err.Error(), `"22"`) {
		t.Fatalf("err = %v, want the line quoted", err)
	}
}

// TestCachedForeachSharesBackingArray: a cached partition is handed to
// ForeachPartition and to MapPartitions as the cached slice itself, the
// same backing array on every call.
func TestCachedForeachSharesBackingArray(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 2})
	r := Map(Parallelize(ctx, ints(100), 4), func(x int) int { return x + 1 }).Cache()
	first := func() []*int {
		heads := make([]*int, r.NumPartitions())
		err := r.ForeachPartition(func(part int, in []int) error {
			heads[part] = &in[0]
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return heads
	}
	a, b := first(), first()
	if !slices.Equal(a, b) {
		t.Fatal("ForeachPartition copied a cached partition")
	}
	mapped := MapPartitions(r, func(part int, in []int) ([]int, error) {
		if &in[0] != a[part] {
			return nil, fmt.Errorf("partition %d: MapPartitions input is a copy", part)
		}
		return nil, nil
	})
	if _, err := mapped.Count(); err != nil {
		t.Fatal(err)
	}
	// Collect still returns a slice the caller owns.
	all, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	all[0] = -1
	again, _ := r.Collect()
	if again[0] == -1 {
		t.Fatal("Collect aliased the cache")
	}
}

// TestCachedEmptyPartitionIsCached: a partition that computes to nothing
// is cached like any other instead of being recomputed on every action.
func TestCachedEmptyPartitionIsCached(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 2})
	var computes atomic.Int64
	r := MapPartitions(Parallelize(ctx, ints(4), 2), func(part int, in []int) ([]int, error) {
		computes.Add(1)
		return nil, nil
	}).Cache()
	for i := 0; i < 3; i++ {
		if n, err := r.Count(); err != nil || n != 0 {
			t.Fatalf("count = %d, %v", n, err)
		}
	}
	if got := computes.Load(); got != 2 {
		t.Fatalf("computed %d times, want once per partition", got)
	}
}

func shuffleFileBytes(t *testing.T, fs *dfs.FS) int64 {
	t.Helper()
	var total int64
	for _, p := range fs.List("/shuffle/") {
		n, err := fs.Size(p)
		if err != nil {
			continue // released between List and Size
		}
		total += n
	}
	return total
}

// waitShuffleReleased collects until the cleanups of unreachable shuffles
// have run and /shuffle/ holds at most limit bytes.
func waitShuffleReleased(t *testing.T, fs *dfs.FS, limit int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		got := shuffleFileBytes(t, fs)
		if got <= limit {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/shuffle/ still holds %d bytes (limit %d)", got, limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShuffleReleaseAfterJob: shuffle files of finished jobs do not pile
// up in a long-lived context, cached reduce sides and consumed-once ones
// alike.
func TestShuffleReleaseAfterJob(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 2})
	kvs := make([]KV[int64, int64], 5000)
	for i := range kvs {
		kvs[i] = KV[int64, int64]{K: int64(i % 97), V: int64(i)}
	}
	var perJob int64
	for job := 0; job < 10; job++ {
		before := ctx.Stats().ShuffleBytes
		sums := ReduceByKey(Parallelize(ctx, kvs, 4), func(a, b int64) int64 { return a + b }, 3)
		if n, err := sums.Count(); err != nil || n != 97 {
			t.Fatalf("job %d: %d keys, %v", job, n, err)
		}
		groups := GroupByKey(Parallelize(ctx, kvs, 4), 3).Cache()
		if n, err := groups.Count(); err != nil || n != 97 {
			t.Fatalf("job %d: %d groups, %v", job, n, err)
		}
		groups.Unpersist()
		perJob = ctx.Stats().ShuffleBytes - before
	}
	if perJob == 0 {
		t.Fatal("jobs wrote no shuffle bytes")
	}
	waitShuffleReleased(t, ctx.FS, 0)
}

// TestShuffleReleaseKeepsLiveShuffles: while an RDD can still recompute
// from a shuffle — here a reduce task that is retried after its executor
// dies mid-job, with collections forced in between — the files stay.
func TestShuffleReleaseKeepsLiveShuffles(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 1, RestartDelay: 5 * time.Millisecond})
	kvs := make([]KV[int64, int64], 2000)
	for i := range kvs {
		kvs[i] = KV[int64, int64]{K: int64(i % 50), V: 1}
	}
	grouped := GroupByKey(Parallelize(ctx, kvs, 4), 4)
	var killed sync.Once
	sizes := MapPartitions(grouped, func(part int, in []KV[int64, []int64]) ([]int, error) {
		runtime.GC()
		killed.Do(func() { ctx.KillExecutor(0) }) // this attempt is discarded and retried
		var n int
		for _, kv := range in {
			n += len(kv.V)
		}
		return []int{n}, nil
	})
	got, err := sizes.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, n := range got {
		total += n
	}
	if total != len(kvs) || ctx.Stats().TasksRetried == 0 {
		t.Fatalf("total = %d (want %d), retried = %d", total, len(kvs), ctx.Stats().TasksRetried)
	}
	// A second action over the same lineage re-reads the same files.
	runtime.GC()
	if n, err := grouped.Count(); err != nil || n != 50 {
		t.Fatalf("recount = %d, %v", n, err)
	}
}

// TestParallelizedSourceIsCopiedOnce: an action over a Parallelize'd RDD
// hands each task one sized copy of its share (the source's compute), not
// a slice grown element by element through the fused path — exactly as
// long as it is capacious, private to the task (writing through it leaves
// the source and the next action alone), and about as many bytes per
// action as the data: growing by doubling allocated 2.5 times that.
func TestParallelizedSourceIsCopiedOnce(t *testing.T) {
	ctx := newCtx(t, Config{NumExecutors: 2})
	data := ints(1 << 16)
	r := Parallelize(ctx, data, 2)
	action := func() {
		err := r.ForeachPartition(func(part int, in []int) error {
			if len(in) != len(data)/2 || cap(in) != len(in) || in[0] != data[part*len(in)] {
				return fmt.Errorf("partition %d: %d elements (cap %d) starting %d", part, len(in), cap(in), in[0])
			}
			in[0] = -1
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	action()
	if data[0] != 0 {
		t.Fatal("a task wrote through to the parallelized source")
	}
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		action()
	}
	runtime.ReadMemStats(&m1)
	if per, size := (m1.TotalAlloc-m0.TotalAlloc)/runs, uint64(8*len(data)); per > size+size/4 {
		t.Errorf("an action over %d bytes of parallelized data allocates %d", size, per)
	}
}

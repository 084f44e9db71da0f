package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"psgraph/internal/dataflow"
	"psgraph/internal/dfs"
	"psgraph/internal/gen"
)

// awkwardGraph has everything the flat PageRank path must get right in
// one edge set: duplicate edges, self-loops, and a largest vertex id that
// only ever appears as a destination.
func awkwardGraph() []Edge {
	edges := randomEdges(11, 6, 300) // ids below 64, R-MAT duplicates included
	edges = append(edges, edges[:20]...)
	edges = append(edges, Edge{Src: 5, Dst: 5}, Edge{Src: 9, Dst: 9}, Edge{Src: 9, Dst: 9})
	return append(edges, Edge{Src: 3, Dst: 99})
}

func l1(a, b []float64) float64 {
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// TestPageRankMatchesOracle: BSP and ASP ranks from the CSR loop equal the
// sequential oracle, with the vector sized from the cached blocks, both
// on the awkward graph and on one with more partitions than sources (so
// most partitions are empty).
func TestPageRankMatchesOracle(t *testing.T) {
	for name, tc := range map[string]struct {
		edges []Edge
		parts int
		n     int64
	}{
		"awkward":          {awkwardGraph(), 3, 100},
		"empty-partitions": {[]Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 1, Dst: 7}, {Src: 0, Dst: 1}}, 8, 8},
	} {
		t.Run(name, func(t *testing.T) {
			ctx := newTestContext(t)
			const iters = 30
			cfg := PageRankConfig{MaxIterations: iters, Tolerance: 1e-300, Parts: tc.parts}
			res, err := PageRank(ctx, edgesRDD(ctx, tc.edges, 3), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.NumVertices != tc.n || res.Iterations != iters {
				t.Fatalf("n = %d (want %d), iterations = %d", res.NumVertices, tc.n, res.Iterations)
			}
			got, err := res.Ranks.PullAll()
			if err != nil {
				t.Fatal(err)
			}
			want := pageRankOracle(tc.edges, tc.n, 0.85, 1e-9, iters)
			if d := l1(got, want); d > 1e-9 {
				t.Fatalf("L1 distance to the oracle %g", d)
			}

			// ASP moves the same mass in a different order; it converges
			// to the fixpoint the oracle approaches.
			asp, err := PageRankASP(ctx, edgesRDD(ctx, tc.edges, 3), PageRankConfig{MaxIterations: 200, Tolerance: 1e-13, DeltaThreshold: 1e-15, Parts: tc.parts})
			if err != nil {
				t.Fatal(err)
			}
			if asp.NumVertices != tc.n {
				t.Fatalf("ASP n = %d, want %d", asp.NumVertices, tc.n)
			}
			aspRanks, err := asp.Ranks.PullAll()
			if err != nil {
				t.Fatal(err)
			}
			if d := l1(aspRanks, pageRankOracle(tc.edges, tc.n, 0.85, 0, 400)); d > 1e-6 {
				t.Fatalf("ASP L1 distance to the converged oracle %g", d)
			}
		})
	}
}

// blocksOf builds the CSR blocks of edges over parts partitions through
// the shuffle, one slot per partition (nil where it is empty).
func blocksOf(tb testing.TB, edges []Edge, parts int) []*csrBlock {
	tb.Helper()
	out, err := buildBlocks(edges, parts)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

func buildBlocks(edges []Edge, parts int) ([]*csrBlock, error) {
	sc := dataflow.NewContext(dfs.NewDefault(), dataflow.Config{NumExecutors: 2})
	out := make([]*csrBlock, parts)
	err := csrBlocks(dataflow.Parallelize(sc, edges, 3), parts).ForeachPartition(func(part int, in []*csrBlock) error {
		if len(in) > 1 {
			return fmt.Errorf("partition %d holds %d blocks", part, len(in))
		}
		if len(in) == 1 {
			out[part] = in[0]
		}
		return nil
	})
	return out, err
}

// TestCSRBlocksMatchNeighborTables: for every partition, a block's rows
// decoded through dstIDs hold exactly the ids of ToNeighborTables' tables
// of the same partition, each once — duplicates dropped, self-loops kept,
// negative and large ids alike — with sorted distinct destinations, exact
// slices and size, and the partition's largest id. A row lists its ids in
// shuffle order, which scatter cannot tell from any other. Ids that span
// more than 2^32 values in one partition are refused.
func TestCSRBlocksMatchNeighborTables(t *testing.T) {
	wide := randomEdges(5, 8, 400)
	for i := range wide {
		wide[i].Src, wide[i].Dst = wide[i].Src<<40|int64(i%3), 1<<40+wide[i].Dst*7919
	}
	wideDense := randomEdges(7, 8, 400)
	for i := range wideDense {
		wideDense[i].Src, wideDense[i].Dst = 1<<40+wideDense[i].Src, 1<<40-wideDense[i].Dst*7919
	}
	negative := randomEdges(6, 7, 300)
	for i := range negative {
		negative[i].Src, negative[i].Dst = negative[i].Src-64, -negative[i].Dst
	}
	for name, tc := range map[string]struct {
		edges []Edge
		parts int
		err   error
	}{
		"awkward":          {awkwardGraph(), 3, nil},
		"empty-partitions": {[]Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 1, Dst: 7}, {Src: 0, Dst: 1}}, 8, nil},
		"negative":         {negative, 4, nil},
		"wide":             {wide, 5, errIDSpan}, // ids span 2^43 values
		"wide-dense":       {wideDense, 5, nil},  // ids near 2^40, a span of 2^21
	} {
		t.Run(name, func(t *testing.T) {
			if tc.err != nil {
				if _, err := buildBlocks(tc.edges, tc.parts); !errors.Is(err, tc.err) {
					t.Fatalf("built with error %v, want %v", err, tc.err)
				}
				return
			}
			blocks := blocksOf(t, tc.edges, tc.parts)
			sc := dataflow.NewContext(dfs.NewDefault(), dataflow.Config{NumExecutors: 2})
			tables := make([][]dataflow.KV[int64, []int64], tc.parts)
			err := ToNeighborTables(dataflow.Parallelize(sc, tc.edges, 3), tc.parts).ForeachPartition(func(part int, in []dataflow.KV[int64, []int64]) error {
				tables[part] = in
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			maxID := int64(math.MinInt64)
			for part, b := range blocks {
				if b == nil {
					if len(tables[part]) != 0 {
						t.Fatalf("partition %d: no block for %d tables", part, len(tables[part]))
					}
					continue
				}
				if len(b.srcs) != len(tables[part]) || len(b.offs) != len(b.srcs)+1 {
					t.Fatalf("partition %d: %d rows, %d offsets for %d tables", part, len(b.srcs), len(b.offs), len(tables[part]))
				}
				if !slices.IsSorted(b.dstIDs) || len(slices.Compact(slices.Clone(b.dstIDs))) != len(b.dstIDs) {
					t.Fatalf("partition %d: dstIDs not sorted and distinct", part)
				}
				want := int64(math.MinInt64)
				for i, tab := range tables[part] {
					var row []int64
					for _, k := range b.adj[b.offs[i]:b.offs[i+1]] {
						row = append(row, b.dstIDs[k])
					}
					if b.srcs[i] != tab.K || !slices.Equal(slices.Sorted(slices.Values(row)), tab.V) {
						t.Fatalf("partition %d row %d: %d→%v, want %d→%v", part, i, b.srcs[i], row, tab.K, tab.V)
					}
					want = max(want, tab.K, tab.V[len(tab.V)-1])
				}
				if b.maxID != want {
					t.Fatalf("partition %d: maxID = %d, want %d", part, b.maxID, want)
				}
				maxID = max(maxID, want)
				if cap(b.srcs) != len(b.srcs) || cap(b.offs) != len(b.offs) || cap(b.dstIDs) != len(b.dstIDs) || cap(b.adj) != len(b.adj) {
					t.Fatalf("partition %d: a slice holds more than its length", part)
				}
				if mem := int64(8*len(b.srcs) + 4*len(b.offs) + 8*len(b.dstIDs) + 4*len(b.adj)); b.MemBytes() != mem {
					t.Fatalf("partition %d: MemBytes = %d, want %d", part, b.MemBytes(), mem)
				}
			}
			if name == "awkward" && maxID != 99 {
				t.Fatalf("maxID = %d, want the destination-only vertex 99", maxID)
			}
		})
	}
}

// scatterMarked is scatter as it was with a touched mark per destination:
// the reference the unmarked one must push exactly like.
func scatterMarked(b *csrBlock, deltas []float64, damping, threshold float64) (idx []int64, vals []float64) {
	acc := make([]float64, len(b.dstIDs))
	hit := make([]bool, len(b.dstIDs))
	for i, d := range deltas {
		if d <= threshold && d >= -threshold {
			continue
		}
		row := b.adj[b.offs[i]:b.offs[i+1]]
		share := damping * d / float64(len(row))
		for _, k := range row {
			acc[k] += share
			hit[k] = true
		}
	}
	for k, h := range hit {
		if h {
			idx = append(idx, b.dstIDs[k])
			vals = append(vals, acc[k])
		}
	}
	return idx, vals
}

// TestScatterMatchesMarked: over 24 Δ-propagation steps (each step's
// pushes at the sources become the next step's increments) on the R-MAT
// block and the awkward graph, at the sparsity thresholds and with full
// propagation, scatter pushes the marked reference's ids and bits.
func TestScatterMatchesMarked(t *testing.T) {
	rmat, _ := scatterBlock(t, 50_000)
	for name, b := range map[string]*csrBlock{"rmat": rmat, "awkward": blocksOf(t, awkwardGraph(), 1)[0]} {
		for _, threshold := range []float64{1e-9, 1e-15, -1} {
			deltas := make([]float64, len(b.srcs))
			for i := range deltas {
				deltas[i] = 0.15
			}
			for step := 0; step < 24; step++ {
				idx, vals := b.scatter(deltas, 0.85, threshold)
				wantIdx, wantVals := scatterMarked(b, deltas, 0.85, threshold)
				if !slices.Equal(idx, wantIdx) || len(vals) != len(wantVals) {
					t.Fatalf("%s threshold %g step %d: pushed %d ids, the marked scatter %d", name, threshold, step, len(idx), len(wantIdx))
				}
				for k := range vals {
					if math.Float64bits(vals[k]) != math.Float64bits(wantVals[k]) {
						t.Fatalf("%s threshold %g step %d: id %d gets %v, the marked scatter %v", name, threshold, step, idx[k], vals[k], wantVals[k])
					}
				}
				pushed := map[int64]float64{}
				for k, id := range idx {
					pushed[id] = vals[k]
				}
				for i, src := range b.srcs {
					deltas[i] = pushed[src]
				}
			}
		}
	}
}

// TestScatterFullPropagation: with a negative threshold (the ablation's
// full propagation) every destination is pushed, zero shares included;
// with the sparsity threshold only the non-zero sums are. Shares of mixed
// sign that cancel to exactly 0.0 are the one destination the touched
// marks pushed and the sums do not: an add of zero.
func TestScatterFullPropagation(t *testing.T) {
	b := blocksOf(t, []Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 4, Dst: 3}, {Src: 4, Dst: 5}, {Src: 6, Dst: 7}}, 1)[0]
	deltas := []float64{1, 0, 1e-12}
	idx, vals := b.scatter(deltas, 0.5, -1)
	if !slices.Equal(idx, []int64{2, 3, 5, 7}) || !slices.Equal(vals, []float64{0.25, 0.25, 0, 0.5e-12}) {
		t.Fatalf("full propagation pushed %v %v", idx, vals)
	}
	idx, vals = b.scatter(deltas, 0.5, 1e-9)
	if !slices.Equal(idx, []int64{2, 3}) || !slices.Equal(vals, []float64{0.25, 0.25}) {
		t.Fatalf("thresholded scatter pushed %v %v", idx, vals)
	}
	if idx, _ := b.scatter([]float64{0, 0, 0}, 0.5, 1e-9); idx != nil {
		t.Fatalf("idle scatter pushed %v", idx)
	}
	mixed := []float64{1, -1, 0}
	if idx, _ := scatterMarked(b, mixed, 0.5, 1e-9); !slices.Equal(idx, []int64{2, 3, 5}) {
		t.Fatalf("the marked scatter pushed %v", idx)
	}
	if idx, vals := b.scatter(mixed, 0.5, 1e-9); !slices.Equal(idx, []int64{2, 5}) || !slices.Equal(vals, []float64{0.25, -0.25}) {
		t.Fatalf("mixed-sign scatter pushed %v %v, want 3's exact zero left out", idx, vals)
	}
}

func scatterBlock(tb testing.TB, edges int) (*csrBlock, []float64) {
	raw := gen.RMAT(gen.RMATConfig{Scale: 13, Edges: int64(edges), Seed: 1})
	es := make([]Edge, len(raw))
	for i, e := range raw {
		es[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	b := blocksOf(tb, es, 1)[0]
	deltas := make([]float64, len(b.srcs))
	for i := range deltas {
		deltas[i] = 0.15
	}
	return b, deltas
}

// TestScatterAllocs: one scatter costs its accumulator, which becomes
// the pushed values, and the pushed ids — no map, nothing per vertex.
func TestScatterAllocs(t *testing.T) {
	b, deltas := scatterBlock(t, 50_000)
	allocs := testing.AllocsPerRun(10, func() {
		b.scatter(deltas, 0.85, 1e-9)
	})
	if allocs > 2 {
		t.Fatalf("scatter allocates %v objects per call, want ≤ 2", allocs)
	}
}

var scatterSink []float64

func BenchmarkPageRankScatter(b *testing.B) {
	blk, deltas := scatterBlock(b, 500_000)
	b.ReportAllocs()
	for b.Loop() {
		_, scatterSink = blk.scatter(deltas, 0.85, 1e-9)
	}
}

// BenchmarkCSRBlocks is PageRank's groupBy at the repo benchmark's size:
// 2 M R-MAT-17 edges shuffled into 4 partitions and built into blocks,
// map side and reduce side, in ms per build.
func BenchmarkCSRBlocks(b *testing.B) {
	raw := gen.RMAT(gen.RMATConfig{Scale: 17, Edges: 2_000_000, Seed: 1})
	es := make([]Edge, len(raw))
	for i, e := range raw {
		es[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	sc := dataflow.NewContext(dfs.NewDefault(), dataflow.Config{NumExecutors: 2})
	edges := dataflow.Parallelize(sc, es, 4)
	for b.Loop() {
		if _, err := csrBlocks(edges, 4).Count(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/build")
}

// TestCSRBlocksShuffleLedger pins what PageRank's groupBy moves through
// the shuffle for a fixed R-MAT graph (50,000 edges over 4,096 ids, 3 map
// tasks, 4 reduce partitions): the records each reduce partition's files
// hold, their frames (2,048 records a full one: a file of ~3,500 records
// is two frames, of ~4,400 three) and dataflow's shuffle bytes, exactly.
// The bytes are the format's: ids below 4,096 pack as two 12-bit offsets,
// 3 bytes a pair, plus 17 a frame (the 8-byte header, two widths, two
// one-byte minimums and the last 5 of the 8 bytes after the last record's
// first). The per-record varints this format replaced wrote 180,920.
func TestCSRBlocksShuffleLedger(t *testing.T) {
	edges := make([]Edge, 0, 50_000)
	for _, e := range gen.RMAT(gen.RMATConfig{Scale: 12, Edges: 50_000, Seed: 3}) {
		edges = append(edges, Edge{Src: e.Src, Dst: e.Dst, W: 1})
	}
	sc := dataflow.NewContext(dfs.NewDefault(), dataflow.Config{NumExecutors: 2})
	blocks := csrBlocks(dataflow.Parallelize(sc, edges, 3), 4)
	if _, err := blocks.Count(); err != nil {
		t.Fatal(err)
	}
	var records, frames [4]int
	for _, path := range sc.FS.List("/shuffle/") {
		file, err := sc.FS.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rp := int(path[len(path)-1] - '0')
		for ; len(file) > 0; frames[rp]++ {
			size, n := binary.LittleEndian.Uint32(file), binary.LittleEndian.Uint32(file[4:])
			records[rp] += int(n)
			file = file[8+size:]
		}
	}
	runtime.KeepAlive(blocks) // its shuffle files live as long as it does
	if want := [4]int{13201, 10499, 12946, 13354}; records != want {
		t.Errorf("records per reduce partition %v, want %v", records, want)
	}
	if want := [4]int{9, 6, 9, 9}; frames != want {
		t.Errorf("frames per reduce partition %v, want %v", frames, want)
	}
	if got, want := sc.Stats().ShuffleBytes, int64(3*50_000+17*33); got != want {
		t.Errorf("dataflow shuffle bytes %d, want %d", got, want)
	}
}

// TestSortByK: the radix sort agrees with a stable comparison sort on
// small, huge and negative keys alike.
func TestSortByK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	draw := map[string]func() int64{
		"small":    func() int64 { return rng.Int63n(1 << 17) },
		"constant": func() int64 { return 42 },
		"wide":     func() int64 { return int64(rng.Uint64()) },
		"signed":   func() int64 { return rng.Int63n(2000) - 1000 },
	}
	for name, key := range draw {
		for _, n := range []int{0, 1, 2, 1000} {
			a := make([]idPair, n)
			for i := range a {
				a[i] = idPair{K: key(), V: int64(i)}
			}
			want := slices.Clone(a)
			sort.SliceStable(want, func(i, j int) bool { return want[i].K < want[j].K })
			got, scratch := sortByK(a, make([]idPair, n))
			if !slices.Equal(got, want) || len(scratch) != n {
				t.Fatalf("%s n=%d: radix sort disagrees with sort.SliceStable", name, n)
			}
		}
	}
}

// TestShuffleReleasePageRank: ten PageRank calls on one context leave
// nothing behind under /shuffle/.
func TestShuffleReleasePageRank(t *testing.T) {
	ctx := newTestContext(t)
	edges := edgesRDD(ctx, awkwardGraph(), 3)
	for i := 0; i < 10; i++ {
		if _, err := PageRank(ctx, edges, PageRankConfig{MaxIterations: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if ctx.Spark.Stats().ShuffleBytes == 0 {
		t.Fatal("PageRank wrote no shuffle bytes")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		left := ctx.FS.List("/shuffle/")
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d shuffle files left after 10 jobs, e.g. %s", len(left), left[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// partitionDigest describes where csrBlocks puts a fixed R-MAT graph over
// four partitions: per partition, a hash of its block's sources, its edge
// count and the records its reduce task read.
func partitionDigest(tb testing.TB) string {
	tb.Helper()
	edges := make([]Edge, 0, 20_000)
	for _, e := range gen.RMAT(gen.RMATConfig{Scale: 12, Edges: 20_000, Seed: 3}) {
		edges = append(edges, Edge{Src: e.Src, Dst: e.Dst, W: 1})
	}
	const parts = 4
	sc := dataflow.NewContext(dfs.NewDefault(), dataflow.Config{NumExecutors: 2})
	pairs := dataflow.Map(dataflow.Parallelize(sc, edges, 3), func(e Edge) idPair { return idPair{K: e.Src, V: e.Dst} })
	records, err := dataflow.ShuffleReduce(pairs, parts, func(_ *dataflow.Task, n int, _ func(func([]idPair) error) error) ([]int, error) {
		return []int{n}, nil
	}).Collect()
	if err != nil {
		tb.Fatal(err)
	}
	var b strings.Builder
	for part, blk := range blocksOf(tb, edges, parts) {
		h := sha256.New()
		var srcs, adj int
		if blk != nil {
			binary.Write(h, binary.LittleEndian, blk.srcs)
			srcs, adj = len(blk.srcs), len(blk.adj)
		}
		fmt.Fprintf(&b, "part %d: %d srcs %x, %d edges, %d records\n", part, srcs, h.Sum(nil)[:8], adj, records[part])
	}
	return b.String()
}

// TestShufflePartitionsAreFixedAcrossProcesses: int64 keys land in the same
// partition in every process, so two runs of this test binary build the
// same blocks out of the same reduce-task inputs (ROADMAP item 20). The
// test runs itself twice as a child; each child prints its digest.
func TestShufflePartitionsAreFixedAcrossProcesses(t *testing.T) {
	const child = "PSGRAPH_PARTITION_DIGEST_CHILD"
	if os.Getenv(child) == "1" {
		fmt.Print(partitionDigest(t))
		return
	}
	var digests []string
	for range 2 {
		cmd := exec.Command(os.Args[0], "-test.run=^TestShufflePartitionsAreFixedAcrossProcesses$")
		cmd.Env = append(os.Environ(), child+"=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		got, _, _ := strings.Cut(string(out), "PASS")
		digests = append(digests, got)
	}
	if digests[0] != digests[1] || !strings.Contains(digests[0], "part 3:") {
		t.Fatalf("two processes partition the same graph differently:\n%s---\n%s", digests[0], digests[1])
	}
}

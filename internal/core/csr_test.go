package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"psgraph/internal/dataflow"
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

func tablesOf(edges []Edge) []dataflow.KV[int64, []int64] {
	adj := map[int64][]int64{}
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	var tables []dataflow.KV[int64, []int64]
	for src, dsts := range adj {
		tables = append(tables, dataflow.KV[int64, []int64]{K: src, V: sortUnique(dsts)})
	}
	return tables
}

// TestBuildCSRMatchesTables: a block holds exactly its tables' edges,
// with sorted distinct destinations and exact self-reported size.
func TestBuildCSRMatchesTables(t *testing.T) {
	tables := tablesOf(awkwardGraph())
	b, err := buildCSR(tables)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(b.dstIDs, func(i, j int) bool { return b.dstIDs[i] < b.dstIDs[j] }) {
		t.Fatal("dstIDs not sorted")
	}
	if len(slices.Compact(slices.Clone(b.dstIDs))) != len(b.dstIDs) {
		t.Fatal("dstIDs not distinct")
	}
	for i, tab := range tables {
		var row []int64
		for _, k := range b.adj[b.offs[i]:b.offs[i+1]] {
			row = append(row, b.dstIDs[k])
		}
		if b.srcs[i] != tab.K || !slices.Equal(row, tab.V) {
			t.Fatalf("row %d: %d→%v, want %d→%v", i, b.srcs[i], row, tab.K, tab.V)
		}
	}
	if b.maxID != 99 {
		t.Fatalf("maxID = %d, want the destination-only vertex 99", b.maxID)
	}
	want := int64(8*len(b.srcs) + 4*len(b.offs) + 8*len(b.dstIDs) + 4*len(b.adj))
	if b.MemBytes() != want {
		t.Fatalf("MemBytes = %d, want %d", b.MemBytes(), want)
	}
}

// TestScatterFullPropagation: with a negative threshold (the ablation's
// full propagation) every destination is pushed, zero shares included;
// with the sparsity threshold only destinations of active sources are.
func TestScatterFullPropagation(t *testing.T) {
	b, err := buildCSR([]dataflow.KV[int64, []int64]{
		{K: 1, V: []int64{2, 3}},
		{K: 4, V: []int64{3, 5}},
		{K: 6, V: []int64{7}},
	})
	if err != nil {
		t.Fatal(err)
	}
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
}

func scatterBlock(tb testing.TB, edges int) (*csrBlock, []float64) {
	raw := gen.RMAT(gen.RMATConfig{Scale: 13, Edges: int64(edges), Seed: 1})
	es := make([]Edge, len(raw))
	for i, e := range raw {
		es[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	b, err := buildCSR(tablesOf(es))
	if err != nil {
		tb.Fatal(err)
	}
	deltas := make([]float64, len(b.srcs))
	for i := range deltas {
		deltas[i] = 0.15
	}
	return b, deltas
}

// TestScatterAllocs: one scatter costs its scratch and the two push
// slices — no map, nothing per vertex.
func TestScatterAllocs(t *testing.T) {
	b, deltas := scatterBlock(t, 50_000)
	allocs := testing.AllocsPerRun(10, func() {
		b.scatter(deltas, 0.85, 1e-9)
	})
	if allocs > 8 {
		t.Fatalf("scatter allocates %v objects per call, want ≤ 8", allocs)
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

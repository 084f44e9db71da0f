package graphx

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"psgraph/internal/dataflow"
	"psgraph/internal/dfs"
)

func newCtx() *dataflow.Context {
	return dataflow.NewContext(dfs.NewDefault(), dataflow.Config{NumExecutors: 3})
}

// ringEdges returns a directed cycle 0→1→…→n-1→0.
func ringEdges(n int) []Edge {
	out := make([]Edge, n)
	for i := 0; i < n; i++ {
		out[i] = Edge{Src: int64(i), Dst: int64((i + 1) % n)}
	}
	return out
}

func TestPageRankUniformOnRing(t *testing.T) {
	// On a directed ring every vertex must have rank exactly 1.
	ctx := newCtx()
	edges := dataflow.Parallelize(ctx, ringEdges(10), 3)
	ranks, err := PageRank(edges, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ranks.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("ranks = %d", len(got))
	}
	for _, kv := range got {
		if math.Abs(kv.V-1.0) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want 1", kv.K, kv.V)
		}
	}
}

func TestPageRankStar(t *testing.T) {
	// Star 1..4 → 0 plus 0 → 1: hub 0 accumulates rank.
	ctx := newCtx()
	edges := []Edge{
		{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0}, {Src: 4, Dst: 0},
		{Src: 0, Dst: 1},
	}
	ranks, err := PageRank(dataflow.Parallelize(ctx, edges, 2), 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := ranks.Collect()
	m := map[int64]float64{}
	for _, kv := range got {
		m[kv.K] = kv.V
	}
	if m[0] <= m[2] {
		t.Fatalf("hub rank %v not above leaf rank %v", m[0], m[2])
	}
}

func TestCommonNeighbor(t *testing.T) {
	ctx := newCtx()
	// Square with a diagonal: pairs (0,2) share {1,3}; (1,3) share {0,2}.
	edges := dataflow.Parallelize(ctx, []Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0},
	}, 2)
	pairs := dataflow.Parallelize(ctx, []Edge{{Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 0, Dst: 1}}, 2)
	scored, err := CommonNeighbor(edges, pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := scored.Collect()
	m := map[Edge]int64{}
	for _, kv := range got {
		m[kv.K] = kv.V
	}
	if m[Edge{Src: 0, Dst: 2}] != 2 {
		t.Fatalf("cn(0,2) = %d, want 2", m[Edge{Src: 0, Dst: 2}])
	}
	if m[Edge{Src: 1, Dst: 3}] != 2 {
		t.Fatalf("cn(1,3) = %d, want 2", m[Edge{Src: 1, Dst: 3}])
	}
	if m[Edge{Src: 0, Dst: 1}] != 0 {
		t.Fatalf("cn(0,1) = %d, want 0", m[Edge{Src: 0, Dst: 1}])
	}
}

func TestTriangleCountK4(t *testing.T) {
	ctx := newCtx()
	// K4 has 4 triangles.
	var edges []Edge
	for i := int64(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, Edge{Src: i, Dst: j})
		}
	}
	n, err := TriangleCount(dataflow.Parallelize(ctx, edges, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("triangles = %d, want 4", n)
	}
}

func TestTriangleCountNoTriangles(t *testing.T) {
	ctx := newCtx()
	n, err := TriangleCount(dataflow.Parallelize(ctx, ringEdges(6), 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("triangles = %d, want 0", n)
	}
}

func TestTriangleCountHandlesReciprocalEdges(t *testing.T) {
	ctx := newCtx()
	edges := []Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, // duplicate in reverse
		{Src: 1, Dst: 2}, {Src: 2, Dst: 0},
	}
	n, err := TriangleCount(dataflow.Parallelize(ctx, edges, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("triangles = %d, want 1", n)
	}
}

func TestFastUnfoldingTwoCliques(t *testing.T) {
	ctx := newCtx()
	// Two 4-cliques joined by a single bridge: communities must separate
	// the cliques.
	var edges []Edge
	for i := int64(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, Edge{Src: i, Dst: j}, Edge{Src: i + 4, Dst: j + 4})
		}
	}
	edges = append(edges, Edge{Src: 0, Dst: 4})
	coms, q, err := FastUnfolding(dataflow.Parallelize(ctx, edges, 2), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := coms.Collect()
	m := map[int64]int64{}
	for _, kv := range got {
		m[kv.K] = kv.V
	}
	for i := int64(1); i < 4; i++ {
		if m[i] != m[0] {
			t.Fatalf("vertex %d not with clique A: %v", i, m)
		}
		if m[i+4] != m[4] {
			t.Fatalf("vertex %d not with clique B: %v", i+4, m)
		}
	}
	if m[0] == m[4] {
		t.Fatalf("cliques merged: %v", m)
	}
	if q < 0.3 {
		t.Fatalf("modularity = %v, want > 0.3", q)
	}
}

func TestKCore(t *testing.T) {
	ctx := newCtx()
	// K4 (vertices 0-3) plus pendant chain 4-5: the 3-core, the vertices
	// of coreness at least 3, is the clique.
	var edges []Edge
	for i := int64(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, Edge{Src: i, Dst: j})
		}
	}
	edges = append(edges, Edge{Src: 0, Dst: 4}, Edge{Src: 4, Dst: 5})
	core, _, err := KCoreDecompose(dataflow.Parallelize(ctx, edges, 2), 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for v, c := range core {
		if c >= 3 {
			got = append(got, v)
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Fatalf("3-core = %v, want [0 1 2 3]", got)
	}
}

func TestKCoreEmptyWhenKTooLarge(t *testing.T) {
	// Every vertex of a ring has coreness 2: its 3-core is empty.
	ctx := newCtx()
	core, maxCore, err := KCoreDecompose(dataflow.Parallelize(ctx, ringEdges(5), 2), 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if maxCore != 2 || len(core) != 5 {
		t.Fatalf("ring of 5: degeneracy %d over %d vertices, want 2 over 5", maxCore, len(core))
	}
	for v, c := range core {
		if c >= 3 {
			t.Fatalf("vertex %d of a ring has coreness %d", v, c)
		}
	}
}

func TestKCoreDecomposeCliqueAndChain(t *testing.T) {
	ctx := newCtx()
	// K4 (coreness 3) plus a chain 3-4-5 (coreness 1).
	var edges []Edge
	for i := int64(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, Edge{Src: i, Dst: j})
		}
	}
	edges = append(edges, Edge{Src: 3, Dst: 4}, Edge{Src: 4, Dst: 5})
	core, maxCore, err := KCoreDecompose(dataflow.Parallelize(ctx, edges, 2), 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if maxCore != 3 {
		t.Fatalf("degeneracy = %d", maxCore)
	}
	want := map[int64]int64{0: 3, 1: 3, 2: 3, 3: 3, 4: 1, 5: 1}
	for v, c := range want {
		if core[v] != c {
			t.Fatalf("coreness[%d] = %d, want %d", v, core[v], c)
		}
	}
}

func TestCommonNeighborSkipsUnknownVertices(t *testing.T) {
	ctx := newCtx()
	edges := dataflow.Parallelize(ctx, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, 2)
	// Pair endpoints 7/8 have no adjacency: the inner join drops them.
	pairs := dataflow.Parallelize(ctx, []Edge{{Src: 0, Dst: 2}, {Src: 7, Dst: 8}}, 1)
	scored, err := CommonNeighbor(edges, pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := scored.Collect()
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].K != (Edge{Src: 0, Dst: 2}) || rows[0].V != 1 {
		t.Fatalf("score = %+v", rows[0])
	}
}

// checkRoundTrip sends recs through one shuffle and requires the records
// that come back to be the records that went in, nil slices kept apart
// from empty ones.
func checkRoundTrip[K comparable, V any](t *testing.T, recs []dataflow.KV[K, V]) {
	t.Helper()
	moved := dataflow.ShuffleReduce(dataflow.Parallelize(newCtx(), recs, 3), 4,
		func(_ *dataflow.Task, n int, records func(func(dataflow.KV[K, V]) error) error) ([]dataflow.KV[K, V], error) {
			out := make([]dataflow.KV[K, V], 0, n)
			err := records(func(kv dataflow.KV[K, V]) error { out = append(out, kv); return nil })
			return out, err
		})
	got, err := moved.Collect()
	if err != nil {
		t.Fatal(err)
	}
	byText := func(kvs []dataflow.KV[K, V]) {
		sort.Slice(kvs, func(i, j int) bool { return fmt.Sprint(kvs[i]) < fmt.Sprint(kvs[j]) })
	}
	want := slices.Clone(recs)
	byText(got)
	byText(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: the shuffle changed the records", recs)
	}
}

// TestShuffleCodecsRoundTrip: every shape the GraphX lowering registers a
// codec for comes back from a shuffle as the records that went in.
func TestShuffleCodecsRoundTrip(t *testing.T) {
	var (
		edges []dataflow.KV[int64, Edge]
		nbrs  []dataflow.KV[int64, dataflow.Pair[Edge, []int64]]
		units []dataflow.KV[Edge, struct{}]
		pairs []dataflow.KV[dataflow.KV[int64, int64], struct{}]
		vcs   []dataflow.KV[vcKey, float64]
		tots  []dataflow.KV[int64, dataflow.Pair[vcKey, float64]]
		x3    []dataflow.KV[int64, [3]float64]
		x2    []dataflow.KV[int64, [2]float64]
	)
	for i := int64(0); i < 60; i++ {
		e := Edge{Src: -i, Dst: i << 40, W: float64(i) / 3}
		var ns []int64 // nil, empty and full lists alike
		if i%3 > 0 {
			ns = make([]int64, i%5)
			for j := range ns {
				ns[j] = i*int64(j) - 7
			}
		}
		f := float64(i) * -1.25
		vc := vcKey{V: -i, C: i % 7}
		edges = append(edges, dataflow.KV[int64, Edge]{K: i, V: e})
		nbrs = append(nbrs, dataflow.KV[int64, dataflow.Pair[Edge, []int64]]{K: i, V: dataflow.Pair[Edge, []int64]{A: e, B: ns}})
		units = append(units, dataflow.KV[Edge, struct{}]{K: e})
		pairs = append(pairs, dataflow.KV[dataflow.KV[int64, int64], struct{}]{K: dataflow.KV[int64, int64]{K: i, V: -i}})
		vcs = append(vcs, dataflow.KV[vcKey, float64]{K: vc, V: f})
		tots = append(tots, dataflow.KV[int64, dataflow.Pair[vcKey, float64]]{K: i, V: dataflow.Pair[vcKey, float64]{A: vc, B: f}})
		x3 = append(x3, dataflow.KV[int64, [3]float64]{K: i, V: [3]float64{f, math.Inf(1), -f}})
		x2 = append(x2, dataflow.KV[int64, [2]float64]{K: i, V: [2]float64{f, float64(i)}})
	}
	checkRoundTrip(t, edges)
	checkRoundTrip(t, nbrs)
	checkRoundTrip(t, units)
	checkRoundTrip(t, pairs)
	checkRoundTrip(t, vcs)
	checkRoundTrip(t, tots)
	checkRoundTrip(t, x3)
	checkRoundTrip(t, x2)
}

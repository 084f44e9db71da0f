package core

// Cross-implementation property tests: the PS-based algorithms, the
// GraphX baselines and small brute-force oracles must agree on random
// graphs. Any divergence between the two systems would silently corrupt
// the Fig. 6 comparison, so these tests pin them together.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"psgraph/internal/dataflow"
	"psgraph/internal/dfs"
	"psgraph/internal/gen"
	"psgraph/internal/graphx"
)

// randomEdges draws a small random multigraph.
func randomEdges(seed int64, scale int, m int64) []Edge {
	raw := gen.RMAT(gen.RMATConfig{Scale: scale, Edges: m, Seed: seed})
	out := make([]Edge, len(raw))
	for i, e := range raw {
		out[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	return out
}

// undirectedSets builds deduplicated undirected adjacency sets.
func undirectedSets(edges []Edge) map[int64]map[int64]bool {
	adj := map[int64]map[int64]bool{}
	add := func(a, b int64) {
		if adj[a] == nil {
			adj[a] = map[int64]bool{}
		}
		adj[a][b] = true
	}
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		add(e.Src, e.Dst)
		add(e.Dst, e.Src)
	}
	return adj
}

// triangleOracle counts triangles by iterating wedges.
func triangleOracle(edges []Edge) int64 {
	adj := undirectedSets(edges)
	var count int64
	for u, nu := range adj {
		for v := range nu {
			if v <= u {
				continue
			}
			for w := range adj[v] {
				if w <= v {
					continue
				}
				if nu[w] {
					count++
				}
			}
		}
	}
	return count
}

// corenessOracle runs sequential Batagelj–Zaversnik peeling.
func corenessOracle(edges []Edge, n int64) []int64 {
	adj := undirectedSets(edges)
	deg := map[int64]int{}
	for v, ns := range adj {
		deg[v] = len(ns)
	}
	core := make([]int64, n)
	alive := map[int64]bool{}
	for v := range adj {
		alive[v] = true
	}
	for k := int64(1); len(alive) > 0; k++ {
		for {
			removed := false
			for v := range alive {
				if deg[v] < int(k) {
					core[v] = k - 1
					delete(alive, v)
					for u := range adj[v] {
						if alive[u] {
							deg[u]--
						}
					}
					removed = true
				}
			}
			if !removed {
				break
			}
		}
	}
	return core
}

// pageRankOracle is sequential Δ-PageRank: the recurrence of PageRank
// (ranks accumulate (1-d)·Σ(dM)^k·1 over distinct out-neighbors,
// increments within ±threshold are not propagated) on one goroutine with
// plain slices.
func pageRankOracle(edges []Edge, n int64, d, threshold float64, iters int) []float64 {
	sorted := append([]Edge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Src != sorted[j].Src {
			return sorted[i].Src < sorted[j].Src
		}
		return sorted[i].Dst < sorted[j].Dst
	})
	var uniq []Edge
	for _, e := range sorted {
		if k := len(uniq) - 1; k < 0 || e.Src != uniq[k].Src || e.Dst != uniq[k].Dst {
			uniq = append(uniq, e)
		}
	}
	outdeg := make([]float64, n)
	for _, e := range uniq {
		outdeg[e.Src]++
	}
	ranks, cur, next := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range cur {
		cur[i] = 1 - d
	}
	for it := 0; it < iters; it++ {
		for _, e := range uniq {
			if x := cur[e.Src]; x > threshold || x < -threshold {
				next[e.Dst] += d * x / outdeg[e.Src]
			}
		}
		for i := range ranks {
			ranks[i] += cur[i]
			cur[i], next[i] = next[i], 0
		}
	}
	return ranks
}

func TestTriangleCountAgreesWithOracleAndGraphX(t *testing.T) {
	ctx := newTestContext(t)
	gx := dataflow.NewContext(dfs.NewDefault(), dataflow.Config{NumExecutors: 2})
	for seed := int64(1); seed <= 5; seed++ {
		edges := randomEdges(seed, 6, 250)
		want := triangleOracle(edges)

		rdd := edgesRDD(ctx, edges, 3)
		model, err := BuildNeighborModel(ctx, rdd, true, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TriangleCount(ctx, model, rdd, TriangleCountConfig{})
		model.Close(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed %d: PSGraph triangles = %d, oracle %d", seed, got, want)
		}

		gxEdges := make([]graphx.Edge, len(edges))
		for i, e := range edges {
			gxEdges[i] = graphx.Edge{Src: e.Src, Dst: e.Dst}
		}
		gxGot, err := graphx.TriangleCount(dataflow.Parallelize(gx, gxEdges, 3), 3)
		if err != nil {
			t.Fatal(err)
		}
		if gxGot != want {
			t.Fatalf("seed %d: GraphX triangles = %d, oracle %d", seed, gxGot, want)
		}
	}
}

func TestCorenessAgreesWithOracleAndGraphX(t *testing.T) {
	ctx := newTestContext(t)
	gx := dataflow.NewContext(dfs.NewDefault(), dataflow.Config{NumExecutors: 2})
	for seed := int64(1); seed <= 3; seed++ {
		edges := randomEdges(seed+10, 6, 200)
		n := int64(0)
		for _, e := range edges {
			n = max(n, max(e.Src, e.Dst)+1)
		}
		want := corenessOracle(edges, n)

		res, err := KCoreDecompose(ctx, edgesRDD(ctx, edges, 3), KCoreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for v := int64(0); v < n; v++ {
			if res.Coreness[v] != want[v] {
				t.Fatalf("seed %d: PSGraph coreness[%d] = %d, oracle %d", seed, v, res.Coreness[v], want[v])
			}
		}

		gxEdges := make([]graphx.Edge, len(edges))
		for i, e := range edges {
			gxEdges[i] = graphx.Edge{Src: e.Src, Dst: e.Dst}
		}
		gxCore, _, err := graphx.KCoreDecompose(dataflow.Parallelize(gx, gxEdges, 3), 3, 10000)
		if err != nil {
			t.Fatal(err)
		}
		for v, c := range gxCore {
			if c != want[v] {
				t.Fatalf("seed %d: GraphX coreness[%d] = %d, oracle %d", seed, v, c, want[v])
			}
		}
	}
}

func TestCommonNeighborAgreesWithGraphX(t *testing.T) {
	ctx := newTestContext(t)
	gx := dataflow.NewContext(dfs.NewDefault(), dataflow.Config{NumExecutors: 2})
	edges := randomEdges(31, 6, 300)
	rng := rand.New(rand.NewSource(7))
	var pairs []Edge
	for i := 0; i < 40; i++ {
		a := edges[rng.Intn(len(edges))].Src
		b := edges[rng.Intn(len(edges))].Dst
		if a != b {
			pairs = append(pairs, Edge{Src: a, Dst: b})
		}
	}

	rdd := edgesRDD(ctx, edges, 3)
	model, err := BuildNeighborModel(ctx, rdd, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer model.Close(ctx)
	scored, err := CommonNeighbor(ctx, model, edgesRDD(ctx, pairs, 2), CommonNeighborConfig{})
	if err != nil {
		t.Fatal(err)
	}
	psRows, _ := scored.Collect()
	psScores := map[Edge]int64{}
	for _, kv := range psRows {
		psScores[kv.K] = kv.V
	}

	gxEdges := make([]graphx.Edge, len(edges))
	for i, e := range edges {
		gxEdges[i] = graphx.Edge{Src: e.Src, Dst: e.Dst}
	}
	gxPairs := make([]graphx.Edge, len(pairs))
	for i, p := range pairs {
		gxPairs[i] = graphx.Edge{Src: p.Src, Dst: p.Dst}
	}
	gxScored, err := graphx.CommonNeighbor(
		dataflow.Parallelize(gx, gxEdges, 3),
		dataflow.Parallelize(gx, gxPairs, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	gxRows, _ := gxScored.Collect()
	for _, kv := range gxRows {
		key := Edge{Src: kv.K.Src, Dst: kv.K.Dst}
		if psScores[key] != kv.V {
			t.Fatalf("pair %v: PSGraph %d vs GraphX %d", key, psScores[key], kv.V)
		}
	}
}

func TestPageRankAgreesWithGraphXOnDanglingFreeGraph(t *testing.T) {
	// Ring + random chords: every vertex has an out-edge, so the Δ-rank
	// formulation and GraphX's recompute formulation share a fixpoint.
	const n = 40
	rng := rand.New(rand.NewSource(5))
	edges := ringEdges(n)
	for i := 0; i < 30; i++ {
		a, b := rng.Int63n(n), rng.Int63n(n)
		if a != b {
			edges = append(edges, Edge{Src: a, Dst: b})
		}
	}
	ctx := newTestContext(t)
	res, err := PageRank(ctx, edgesRDD(ctx, edges, 3), PageRankConfig{MaxIterations: 120, Tolerance: 1e-13, DeltaThreshold: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := res.Ranks.PullAll()

	gx := dataflow.NewContext(dfs.NewDefault(), dataflow.Config{NumExecutors: 2})
	gxEdges := make([]graphx.Edge, len(edges))
	for i, e := range edges {
		gxEdges[i] = graphx.Edge{Src: e.Src, Dst: e.Dst}
	}
	ranks, err := graphx.PageRank(dataflow.Parallelize(gx, gxEdges, 3), 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := ranks.Collect()
	for _, kv := range rows {
		if math.Abs(ps[kv.K]-kv.V) > 1e-6 {
			t.Fatalf("rank[%d]: PSGraph %v vs GraphX %v", kv.K, ps[kv.K], kv.V)
		}
	}
}

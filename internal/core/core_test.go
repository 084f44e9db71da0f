package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"psgraph/internal/dataflow"
	"psgraph/internal/gen"
)

func newTestContext(t *testing.T) *Context {
	t.Helper()
	ctx, err := NewContext(Config{NumExecutors: 3, NumServers: 2})
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	t.Cleanup(ctx.Close)
	return ctx
}

func edgesRDD(ctx *Context, edges []Edge, parts int) *dataflow.RDD[Edge] {
	return dataflow.Parallelize(ctx.Spark, edges, parts)
}

func ringEdges(n int) []Edge {
	out := make([]Edge, n)
	for i := 0; i < n; i++ {
		out[i] = Edge{Src: int64(i), Dst: int64((i + 1) % n)}
	}
	return out
}

func TestLoadEdgesParsing(t *testing.T) {
	ctx := newTestContext(t)
	ctx.FS.WriteFile("/edges.txt", []byte("1\t2\n3\t4\t0.5\n\n5 6\n"))
	edges, err := LoadEdges(ctx, "/edges.txt", 2).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
	m := map[int64]Edge{}
	for _, e := range edges {
		m[e.Src] = e
	}
	if m[1].W != 1 || m[3].W != 0.5 || m[5].Dst != 6 {
		t.Fatalf("parsed %v", m)
	}
}

func TestLoadEdgesMalformedFails(t *testing.T) {
	ctx := newTestContext(t)
	ctx.FS.WriteFile("/bad.txt", []byte("1\t2\nnotanumber\t3\n"))
	if _, err := LoadEdges(ctx, "/bad.txt", 2).Collect(); err == nil {
		t.Fatal("malformed edge accepted")
	}
}

func TestToNeighborTables(t *testing.T) {
	ctx := newTestContext(t)
	edges := edgesRDD(ctx, []Edge{{Src: 1, Dst: 3}, {Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 1}}, 2)
	tables, err := ToNeighborTables(edges, 2).Collect()
	if err != nil {
		t.Fatal(err)
	}
	m := map[int64][]int64{}
	for _, kv := range tables {
		m[kv.K] = kv.V
	}
	if fmt.Sprint(m[1]) != "[2 3]" { // sorted, deduplicated
		t.Fatalf("nbr[1] = %v", m[1])
	}
	if fmt.Sprint(m[2]) != "[1]" {
		t.Fatalf("nbr[2] = %v", m[2])
	}
}

func TestNumVertices(t *testing.T) {
	ctx := newTestContext(t)
	n, err := NumVertices(edgesRDD(ctx, []Edge{{Src: 3, Dst: 9}, {Src: 1, Dst: 2}}, 2))
	if err != nil || n != 10 {
		t.Fatalf("n = %d, %v", n, err)
	}
}

func TestPageRankRingUniform(t *testing.T) {
	ctx := newTestContext(t)
	res, err := PageRank(ctx, edgesRDD(ctx, ringEdges(12), 3), PageRankConfig{MaxIterations: 60, Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := res.Ranks.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range ranks {
		if math.Abs(r-1.0) > 1e-3 {
			t.Fatalf("rank[%d] = %v, want ~1", v, r)
		}
	}
}

func TestPageRankMatchesSequentialReference(t *testing.T) {
	// Compare the PS Δ-rank implementation against a plain sequential
	// damped PageRank on a small power-law graph.
	ctx := newTestContext(t)
	raw := gen.RMAT(gen.RMATConfig{Scale: 6, Edges: 300, Seed: 3})
	edges := make([]Edge, len(raw))
	for i, e := range raw {
		edges[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	res, err := PageRank(ctx, edgesRDD(ctx, edges, 3), PageRankConfig{MaxIterations: 100, Tolerance: 1e-12, DeltaThreshold: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Ranks.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	want := pageRankOracle(edges, res.NumVertices, 0.85, 1e-14, 100)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6 {
			t.Fatalf("rank[%d] = %v, reference %v", v, got[v], want[v])
		}
	}
}

func TestPageRankDeltaThresholdAblation(t *testing.T) {
	// With and without the sparsity optimization results must agree to
	// within the threshold-induced error.
	ctx := newTestContext(t)
	edges := ringEdges(8)
	edges = append(edges, Edge{Src: 0, Dst: 4}, Edge{Src: 2, Dst: 6})
	sparse, err := PageRank(ctx, edgesRDD(ctx, edges, 2), PageRankConfig{MaxIterations: 50, DeltaThreshold: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	full, err := PageRank(ctx, edgesRDD(ctx, edges, 2), PageRankConfig{MaxIterations: 50, DeltaThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sparse.Ranks.PullAll()
	b, _ := full.Ranks.PullAll()
	for v := range a {
		if math.Abs(a[v]-b[v]) > 1e-3 {
			t.Fatalf("threshold changed rank[%d]: %v vs %v", v, a[v], b[v])
		}
	}
}

func TestCommonNeighborSquare(t *testing.T) {
	ctx := newTestContext(t)
	edges := edgesRDD(ctx, []Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0},
	}, 2)
	model, err := BuildNeighborModel(ctx, edges, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer model.Close(ctx)
	pairs := edgesRDD(ctx, []Edge{{Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 0, Dst: 1}}, 2)
	scored, err := CommonNeighbor(ctx, model, pairs, CommonNeighborConfig{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := scored.Collect()
	m := map[Edge]int64{}
	for _, kv := range rows {
		m[kv.K] = kv.V
	}
	if m[Edge{Src: 0, Dst: 2}] != 2 || m[Edge{Src: 1, Dst: 3}] != 2 || m[Edge{Src: 0, Dst: 1}] != 0 {
		t.Fatalf("scores = %v", m)
	}
}

// TestTriangleCountMatchesGraphXOracle: K4 plus a pendant has 4 triangles.
// TestCommonNeighborSquare crosses the pull batches of the same intersect.
func TestTriangleCountMatchesGraphXOracle(t *testing.T) {
	ctx := newTestContext(t)
	var es []Edge
	for i := int64(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			es = append(es, Edge{Src: i, Dst: j})
		}
	}
	es = append(es, Edge{Src: 3, Dst: 4})
	edges := edgesRDD(ctx, es, 2)
	model, err := BuildNeighborModel(ctx, edges, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer model.Close(ctx)
	n, err := TriangleCount(ctx, model, edges, TriangleCountConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("triangles = %d, want 4", n)
	}
}

func TestTriangleCountRingZero(t *testing.T) {
	ctx := newTestContext(t)
	edges := edgesRDD(ctx, ringEdges(7), 2)
	model, err := BuildNeighborModel(ctx, edges, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer model.Close(ctx)
	n, err := TriangleCount(ctx, model, edges, TriangleCountConfig{})
	if err != nil || n != 0 {
		t.Fatalf("triangles = %d, %v", n, err)
	}
}

func TestKCoreK4PlusChain(t *testing.T) {
	ctx := newTestContext(t)
	var es []Edge
	for i := int64(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			es = append(es, Edge{Src: i, Dst: j})
		}
	}
	es = append(es, Edge{Src: 0, Dst: 4}, Edge{Src: 4, Dst: 5})
	res, err := KCore(ctx, edgesRDD(ctx, es, 2), KCoreConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(res.Members, func(i, j int) bool { return res.Members[i] < res.Members[j] })
	if res.Survivors != 4 || fmt.Sprint(res.Members) != "[0 1 2 3]" {
		t.Fatalf("3-core = %+v", res)
	}
}

func TestKCoreCascadingRemoval(t *testing.T) {
	// A path graph has an empty 2-core; peeling must cascade end to end.
	ctx := newTestContext(t)
	var es []Edge
	for i := int64(0); i < 9; i++ {
		es = append(es, Edge{Src: i, Dst: i + 1})
	}
	res, err := KCore(ctx, edgesRDD(ctx, es, 3), KCoreConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Survivors != 0 {
		t.Fatalf("2-core of path = %d vertices, want 0", res.Survivors)
	}
	if res.Rounds < 2 {
		t.Fatalf("expected cascading rounds, got %d", res.Rounds)
	}
}

// TestKCoreLongPathConverges: peeling runs until a round removes nothing,
// however many rounds that takes. A 300-vertex path peels a few vertices
// from each end per round; a cap of 100 rounds used to return 80 of them
// as the 2-core.
func TestKCoreLongPathConverges(t *testing.T) {
	ctx := newTestContext(t)
	var es []Edge
	for i := int64(0); i < 299; i++ {
		es = append(es, Edge{Src: i, Dst: i + 1})
	}
	res, err := KCore(ctx, edgesRDD(ctx, es, 3), KCoreConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Survivors != 0 || res.Rounds <= 100 {
		t.Fatalf("2-core of a 300-vertex path: %d survivors after %d rounds, want 0 after more than 100", res.Survivors, res.Rounds)
	}
}

func TestKCoreRingIsOwn2Core(t *testing.T) {
	ctx := newTestContext(t)
	res, err := KCore(ctx, edgesRDD(ctx, ringEdges(6), 2), KCoreConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Survivors != 6 {
		t.Fatalf("2-core of ring = %d, want 6", res.Survivors)
	}
}

func TestFastUnfoldingTwoCliques(t *testing.T) {
	ctx := newTestContext(t)
	var es []Edge
	for i := int64(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			es = append(es, Edge{Src: i, Dst: j}, Edge{Src: i + 5, Dst: j + 5})
		}
	}
	es = append(es, Edge{Src: 0, Dst: 5})
	res, err := FastUnfolding(ctx, edgesRDD(ctx, es, 2), FastUnfoldingConfig{Passes: 2, Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Assignment
	for i := int64(1); i < 5; i++ {
		if a[i] != a[0] {
			t.Fatalf("clique A split: %v", a)
		}
		if a[i+5] != a[5] {
			t.Fatalf("clique B split: %v", a)
		}
	}
	if a[0] == a[5] {
		t.Fatalf("cliques merged: %v", a)
	}
	if res.Modularity < 0.3 {
		t.Fatalf("modularity = %v", res.Modularity)
	}
	if res.Communities != 2 {
		t.Fatalf("communities = %d, want 2", res.Communities)
	}
}

func TestFastUnfoldingAggregationReducesCommunities(t *testing.T) {
	// A chain of small cliques: pass 2 should merge at least as well as
	// pass 1 (aggregation can only coarsen).
	ctx := newTestContext(t)
	var es []Edge
	for c := int64(0); c < 4; c++ {
		base := c * 3
		es = append(es,
			Edge{Src: base, Dst: base + 1}, Edge{Src: base + 1, Dst: base + 2}, Edge{Src: base, Dst: base + 2})
		if c > 0 {
			es = append(es, Edge{Src: base - 1, Dst: base})
		}
	}
	one, err := FastUnfolding(ctx, edgesRDD(ctx, es, 2), FastUnfoldingConfig{Passes: 1, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	two, err := FastUnfolding(ctx, edgesRDD(ctx, es, 2), FastUnfoldingConfig{Passes: 2, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if two.Communities > one.Communities {
		t.Fatalf("aggregation increased communities: %d -> %d", one.Communities, two.Communities)
	}
}

func TestLineEmbeddingsSeparateCommunities(t *testing.T) {
	// Two dense communities bridged by one edge: average intra-community
	// embedding similarity must exceed inter-community similarity.
	ctx := newTestContext(t)
	sbmEdges, _ := gen.SBM(gen.SBMConfig{Vertices: 60, Classes: 2, IntraDeg: 8, InterDeg: 0.3, Seed: 11})
	es := make([]Edge, len(sbmEdges))
	for i, e := range sbmEdges {
		es[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	res, err := Line(ctx, edgesRDD(ctx, es, 2), LineConfig{
		Dim: 16, Order: 2, Epochs: 12, BatchSize: 256, NegSamples: 4, LR: 0.06, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, labels := gen.SBM(gen.SBMConfig{Vertices: 60, Classes: 2, IntraDeg: 8, InterDeg: 0.3, Seed: 11})
	ids := make([]int64, 60)
	for i := range ids {
		ids[i] = int64(i)
	}
	embs, err := res.Embedding(ids)
	if err != nil {
		t.Fatal(err)
	}
	intra, inter, ni, nx := 0.0, 0.0, 0, 0
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			s := cosine(embs[int64(i)], embs[int64(j)])
			if labels[i] == labels[j] {
				intra += s
				ni++
			} else {
				inter += s
				nx++
			}
		}
	}
	intra /= float64(ni)
	inter /= float64(nx)
	if intra <= inter {
		t.Fatalf("LINE did not separate communities: intra %v <= inter %v", intra, inter)
	}
}

func TestLinePullVariantAgreesInQuality(t *testing.T) {
	ctx := newTestContext(t)
	sbmEdges, labels := gen.SBM(gen.SBMConfig{Vertices: 40, Classes: 2, IntraDeg: 8, InterDeg: 0.3, Seed: 13})
	es := make([]Edge, len(sbmEdges))
	for i, e := range sbmEdges {
		es[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	res, err := Line(ctx, edgesRDD(ctx, es, 2), LineConfig{
		Dim: 16, Order: 2, Epochs: 12, BatchSize: 256, NegSamples: 4, LR: 0.06, Seed: 1,
		PullVectors: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 40)
	for i := range ids {
		ids[i] = int64(i)
	}
	embs, err := res.Embedding(ids)
	if err != nil {
		t.Fatal(err)
	}
	intra, inter, ni, nx := 0.0, 0.0, 0, 0
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			s := cosine(embs[int64(i)], embs[int64(j)])
			if labels[i] == labels[j] {
				intra, ni = intra+s, ni+1
			} else {
				inter, nx = inter+s, nx+1
			}
		}
	}
	if intra/float64(ni) <= inter/float64(nx) {
		t.Fatal("pull-based LINE did not separate communities")
	}
}

func TestLineFirstOrder(t *testing.T) {
	ctx := newTestContext(t)
	res, err := Line(ctx, edgesRDD(ctx, ringEdges(20), 2), LineConfig{
		Dim: 8, Order: 1, Epochs: 3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CtxName != "" {
		t.Fatalf("first-order LINE created a context model: %q", res.CtxName)
	}
	embs, err := res.Embedding([]int64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(embs[0]) != 8 {
		t.Fatalf("dim = %d", len(embs[0]))
	}
}

func TestLineRejectsBadOrder(t *testing.T) {
	ctx := newTestContext(t)
	if _, err := Line(ctx, edgesRDD(ctx, ringEdges(4), 1), LineConfig{Order: 3}); err == nil {
		t.Fatal("order 3 accepted")
	}
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

func writeSBMDataset(t *testing.T, ctx *Context, n int64, classes int, seed int64) (string, string) {
	t.Helper()
	edges, labels := gen.SBM(gen.SBMConfig{Vertices: n, Classes: classes, IntraDeg: 10, InterDeg: 0.5, Seed: seed})
	feats := gen.Features(labels, classes, 8, 0.6, seed+1)
	if err := gen.WriteEdgesText(ctx.FS, "/ds3/edges.txt", edges, false); err != nil {
		t.Fatal(err)
	}
	if err := gen.WriteFeaturesText(ctx.FS, "/ds3/feats.txt", labels, feats); err != nil {
		t.Fatal(err)
	}
	return "/ds3/edges.txt", "/ds3/feats.txt"
}

func TestGraphSagePreprocess(t *testing.T) {
	ctx := newTestContext(t)
	edgesPath, featsPath := writeSBMDataset(t, ctx, 200, 3, 21)
	data, err := GraphSagePreprocess(ctx, edgesPath, featsPath, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close(ctx)
	if data.InputDim != 8 {
		t.Fatalf("dim = %d", data.InputDim)
	}
	if len(data.Vertices) != 200 || len(data.Labels) != 200 {
		t.Fatalf("vertices = %d labels = %d", len(data.Vertices), len(data.Labels))
	}
	// Adjacency must be queryable and symmetric-ish.
	tables, err := data.Adj.Nbr.Pull(data.Vertices[:10])
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no adjacency pushed")
	}
}

func TestGraphSageLearnsSBM(t *testing.T) {
	ctx := newTestContext(t)
	edgesPath, featsPath := writeSBMDataset(t, ctx, 600, 3, 22)
	data, err := GraphSagePreprocess(ctx, edgesPath, featsPath, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close(ctx)
	res, err := GraphSage(ctx, data, GraphSageConfig{
		Classes: 3, HiddenDim: 16, Epochs: 6, BatchSize: 128, LR: 0.02, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0.8 {
		t.Fatalf("test accuracy = %v, want >= 0.8 (losses %v)", res.TestAccuracy, res.Losses)
	}
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Fatalf("loss did not decrease: %v", res.Losses)
	}
}

func TestGraphSagePoolAggregator(t *testing.T) {
	ctx := newTestContext(t)
	edgesPath, featsPath := writeSBMDataset(t, ctx, 300, 3, 23)
	data, err := GraphSagePreprocess(ctx, edgesPath, featsPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close(ctx)
	res, err := GraphSage(ctx, data, GraphSageConfig{
		Classes: 3, Epochs: 5, BatchSize: 128, LR: 0.02, Seed: 9, Aggregator: "pool",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0.6 {
		t.Fatalf("pool aggregator accuracy = %v", res.TestAccuracy)
	}
}

func TestGraphSageRejectsBadConfig(t *testing.T) {
	ctx := newTestContext(t)
	if _, err := GraphSage(ctx, &GraphSageData{}, GraphSageConfig{Classes: 1}); err == nil {
		t.Fatal("Classes=1 accepted")
	}
	if _, err := GraphSage(ctx, &GraphSageData{}, GraphSageConfig{Classes: 2, Aggregator: "gcn"}); err == nil {
		t.Fatal("unknown aggregator accepted")
	}
	if _, err := GraphSage(ctx, &GraphSageData{}, GraphSageConfig{Classes: 2, Sync: "lockstep"}); err == nil {
		t.Fatal("unknown Sync accepted")
	}
}

func TestModelNameUnique(t *testing.T) {
	ctx := newTestContext(t)
	a := ctx.ModelName("x")
	b := ctx.ModelName("x")
	if a == b {
		t.Fatalf("names collide: %s", a)
	}
	if !strings.HasPrefix(a, "x-") {
		t.Fatalf("name = %s", a)
	}
}

func TestGraphSageLSTMAggregator(t *testing.T) {
	ctx := newTestContext(t)
	edgesPath, featsPath := writeSBMDataset(t, ctx, 300, 3, 25)
	data, err := GraphSagePreprocess(ctx, edgesPath, featsPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close(ctx)
	res, err := GraphSage(ctx, data, GraphSageConfig{
		Classes: 3, HiddenDim: 8, FanOut1: 5, FanOut2: 3,
		Epochs: 5, BatchSize: 64, LR: 0.02, Seed: 9, Aggregator: "lstm",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0.6 {
		t.Fatalf("LSTM aggregator accuracy = %v (losses %v)", res.TestAccuracy, res.Losses)
	}
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Fatalf("loss did not decrease: %v", res.Losses)
	}
}

func TestPageRankOverTCP(t *testing.T) {
	// The whole algorithm over real localhost sockets: results must match
	// the in-process run exactly.
	tcpCtx, err := NewContext(Config{NumExecutors: 3, NumServers: 2, UseTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpCtx.Close()
	edges := ringEdges(12)
	res, err := PageRank(tcpCtx, edgesRDD(tcpCtx, edges, 3), PageRankConfig{MaxIterations: 70, Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := res.Ranks.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range ranks {
		if math.Abs(r-1.0) > 1e-3 {
			t.Fatalf("tcp rank[%d] = %v", v, r)
		}
	}
}

func TestGraphSageOverTCP(t *testing.T) {
	ctx, err := NewContext(Config{NumExecutors: 2, NumServers: 2, UseTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	edgesPath, featsPath := writeSBMDataset(t, ctx, 200, 2, 31)
	data, err := GraphSagePreprocess(ctx, edgesPath, featsPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close(ctx)
	res, err := GraphSage(ctx, data, GraphSageConfig{Classes: 2, Epochs: 3, BatchSize: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0.6 {
		t.Fatalf("tcp accuracy = %v", res.TestAccuracy)
	}
}

func TestPageRankSurvivesConsistentPSFailure(t *testing.T) {
	// Kill a parameter server between PageRank iterations; the rank model
	// uses consistent recovery, so all partitions roll back to the same
	// checkpoint and the algorithm still converges to the reference.
	ctx, err := NewContext(Config{
		NumExecutors: 3, NumServers: 2,
		LeaseDuration: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	edges := ringEdges(16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(15 * time.Millisecond)
		ctx.PS.KillServer(ctx.PS.ServerAddrs()[1])
	}()
	res, err := PageRank(ctx, edgesRDD(ctx, edges, 2), PageRankConfig{
		MaxIterations: 80, Tolerance: 1e-10, CheckpointEvery: 2,
	})
	<-done
	if err != nil {
		t.Fatalf("PageRank with PS failure: %v", err)
	}
	ranks, err := res.Ranks.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range ranks {
		if math.Abs(r-1.0) > 1e-3 {
			t.Fatalf("rank[%d] = %v after recovery", v, r)
		}
	}
}

func TestLineEmbeddingsClassifyCommunities(t *testing.T) {
	// End-to-end GE quality: LINE embeddings + a softmax probe recover
	// the planted communities (Sec. II-B's vertex classification).
	ctx := newTestContext(t)
	raw, truth := gen.SBM(gen.SBMConfig{Vertices: 150, Classes: 3, IntraDeg: 10, InterDeg: 0.3, Seed: 41})
	es := make([]Edge, len(raw))
	for i, e := range raw {
		es[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	res, err := Line(ctx, edgesRDD(ctx, es, 2), LineConfig{
		Dim: 16, Order: 2, Epochs: 15, NegSamples: 5, LR: 0.06, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 150)
	labels := map[int64]int{}
	for i := range ids {
		ids[i] = int64(i)
		labels[int64(i)] = truth[i]
	}
	embs, err := res.Embedding(ids)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := EvaluateEmbeddings(embs, labels, 3, 0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Fatalf("probe accuracy = %v, want >= 0.8", acc)
	}
}

func TestEvaluateEmbeddingsRejectsBadInput(t *testing.T) {
	if _, err := EvaluateEmbeddings(nil, nil, 1, 0.7, 1); err == nil {
		t.Fatal("classes=1 accepted")
	}
	if _, err := EvaluateEmbeddings(map[int64][]float64{}, map[int64]int{1: 0}, 2, 0.7, 1); err == nil {
		t.Fatal("empty embeddings accepted")
	}
}

func TestDeepWalkSeparatesCommunities(t *testing.T) {
	ctx := newTestContext(t)
	raw, truth := gen.SBM(gen.SBMConfig{Vertices: 120, Classes: 2, IntraDeg: 10, InterDeg: 0.3, Seed: 51})
	es := make([]Edge, len(raw))
	for i, e := range raw {
		es[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	res, err := DeepWalk(ctx, edgesRDD(ctx, es, 2), DeepWalkConfig{Dim: 16, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 120)
	labels := map[int64]int{}
	for i := range ids {
		ids[i] = int64(i)
		labels[int64(i)] = truth[i]
	}
	embs, err := res.Embedding(ids)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := EvaluateEmbeddings(embs, labels, 2, 0.7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Fatalf("DeepWalk probe accuracy = %v", acc)
	}
}

func TestDeepWalkDefaultsAndDims(t *testing.T) {
	ctx := newTestContext(t)
	res, err := DeepWalk(ctx, edgesRDD(ctx, ringEdges(20), 2), DeepWalkConfig{Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	embs, err := res.Embedding([]int64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(embs[0]) != 8 || len(embs[10]) != 8 {
		t.Fatalf("dims: %d, %d", len(embs[0]), len(embs[10]))
	}
}

func TestGraphIORoundTrip(t *testing.T) {
	ctx := newTestContext(t)
	ctx.FS.WriteFile("/gio/e.txt", []byte("0\t1\t2.0\n1\t2\n2\t0\n"))
	df := LoadEdgeFrame(ctx, "/gio/e.txt", 2)
	if fmt.Sprint(df.Columns()) != "[src dst w]" {
		t.Fatalf("cols = %v", df.Columns())
	}
	edges, err := EdgesOfFrame(df)
	if err != nil {
		t.Fatal(err)
	}
	got, err := edges.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("edges = %v", got)
	}
	var weighted bool
	for _, e := range got {
		if e.Src == 0 && e.W == 2.0 {
			weighted = true
		}
	}
	if !weighted {
		t.Fatal("weight column lost")
	}
	// Missing src/dst columns must error.
	bad := dataflow.FromRows(ctx.Spark, []string{"a", "b"}, nil, 1)
	if _, err := EdgesOfFrame(bad); err == nil {
		t.Fatal("frame without src/dst accepted")
	}
	// Model → frame.
	res, err := PageRank(ctx, edges, PageRankConfig{MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	out, err := VectorFrame(ctx, res.Ranks, "rank", 2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := out.Count()
	if err != nil || n != res.NumVertices {
		t.Fatalf("frame rows = %d, want %d (%v)", n, res.NumVertices, err)
	}
}

func TestPageRankEdgePartitionedMatchesVertexPartitioned(t *testing.T) {
	ctx := newTestContext(t)
	raw := gen.RMAT(gen.RMATConfig{Scale: 6, Edges: 250, Seed: 8})
	// Deduplicate edges so both variants see identical out-degrees (the
	// vertex-partitioned variant dedups inside ToNeighborTables).
	seen := map[Edge]bool{}
	var edges []Edge
	for _, e := range raw {
		k := Edge{Src: e.Src, Dst: e.Dst}
		if !seen[k] {
			seen[k] = true
			edges = append(edges, k)
		}
	}
	cfg := PageRankConfig{MaxIterations: 80, Tolerance: 1e-12, DeltaThreshold: 1e-14}
	vp, err := PageRank(ctx, edgesRDD(ctx, edges, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := PageRankEdgePartitioned(ctx, edgesRDD(ctx, edges, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := vp.Ranks.PullAll()
	b, _ := ep.Ranks.PullAll()
	for v := range a {
		if math.Abs(a[v]-b[v]) > 1e-8 {
			t.Fatalf("rank[%d]: vertex-part %v vs edge-part %v", v, a[v], b[v])
		}
	}
}

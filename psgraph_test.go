package psgraph_test

// Integration tests against the public facade: each exercises a full
// pipeline exactly the way the examples and a downstream user would.

import (
	"math"
	"testing"
	"time"

	"psgraph"
	"psgraph/internal/dataflow"
)

func newCluster(t *testing.T) *psgraph.Context {
	t.Helper()
	ctx, err := psgraph.New(psgraph.Config{NumExecutors: 3, NumServers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(ctx.Close)
	return ctx
}

func TestEndToEndPageRankFromDFS(t *testing.T) {
	ctx := newCluster(t)
	edges := psgraph.GenerateRMAT(psgraph.RMATConfig{Scale: 10, Edges: 5000, Seed: 1})
	if err := psgraph.WriteEdges(ctx, "/e.txt", edges, false); err != nil {
		t.Fatal(err)
	}
	rdd := psgraph.LoadEdges(ctx, "/e.txt", 0)
	n, err := rdd.Count()
	if err != nil || n != 5000 {
		t.Fatalf("loaded %d edges, %v", n, err)
	}
	res, err := psgraph.PageRank(ctx, rdd, psgraph.PageRankConfig{MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := res.Ranks.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	if sum <= 0 || math.IsNaN(sum) {
		t.Fatalf("rank mass = %v", sum)
	}
}

func TestEndToEndTriangleAndKCoreAgree(t *testing.T) {
	// Triangle counting and coreness must be mutually consistent on a
	// clique: K5 has C(5,3)=10 triangles and coreness 4 everywhere.
	ctx := newCluster(t)
	var edges []psgraph.Edge
	for i := int64(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, psgraph.Edge{Src: i, Dst: j})
		}
	}
	rdd := psgraph.ParallelizeEdges(ctx, edges, 2)
	model, err := psgraph.BuildNeighborModel(ctx, rdd, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer model.Close(ctx)
	tri, err := psgraph.TriangleCount(ctx, model, rdd, psgraph.TriangleCountConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tri != 10 {
		t.Fatalf("triangles = %d, want 10", tri)
	}
	cores, err := psgraph.KCoreDecompose(ctx, rdd, psgraph.KCoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cores.MaxCore != 4 {
		t.Fatalf("degeneracy = %d, want 4", cores.MaxCore)
	}
	for v, c := range cores.Coreness {
		if c != 4 {
			t.Fatalf("coreness[%d] = %d, want 4", v, c)
		}
	}
}

func TestEndToEndCommunityPipeline(t *testing.T) {
	ctx := newCluster(t)
	edges, _ := psgraph.GenerateSBM(psgraph.SBMConfig{
		Vertices: 300, Classes: 3, IntraDeg: 10, InterDeg: 0.3, Seed: 5,
	})
	res, err := psgraph.FastUnfolding(ctx, psgraph.ParallelizeEdges(ctx, edges, 0), psgraph.FastUnfoldingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Modularity < 0.3 {
		t.Fatalf("modularity = %v", res.Modularity)
	}
	if res.Communities < 2 || res.Communities > 30 {
		t.Fatalf("communities = %d", res.Communities)
	}
}

func TestEndToEndGraphSagePipeline(t *testing.T) {
	ctx := newCluster(t)
	const classes = 3
	edges, labels := psgraph.GenerateSBM(psgraph.SBMConfig{
		Vertices: 400, Classes: classes, IntraDeg: 10, InterDeg: 0.5, Seed: 9,
	})
	feats := psgraph.GenerateFeatures(labels, classes, 8, 0.5, 10)
	if err := psgraph.WriteEdges(ctx, "/gnn/e.txt", edges, false); err != nil {
		t.Fatal(err)
	}
	if err := psgraph.WriteFeatures(ctx, "/gnn/f.txt", labels, feats); err != nil {
		t.Fatal(err)
	}
	data, err := psgraph.GraphSagePreprocess(ctx, "/gnn/e.txt", "/gnn/f.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close(ctx)
	res, err := psgraph.GraphSage(ctx, data, psgraph.GraphSageConfig{
		Classes: classes, Epochs: 5, BatchSize: 64, LR: 0.02, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0.75 {
		t.Fatalf("test accuracy = %v", res.TestAccuracy)
	}
}

func TestEndToEndLineEmbeddings(t *testing.T) {
	ctx := newCluster(t)
	edges, _ := psgraph.GenerateSBM(psgraph.SBMConfig{
		Vertices: 100, Classes: 2, IntraDeg: 8, InterDeg: 0.3, Seed: 2,
	})
	res, err := psgraph.Line(ctx, psgraph.ParallelizeEdges(ctx, edges, 0), psgraph.LineConfig{
		Dim: 8, Epochs: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	embs, err := res.Embedding([]int64{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{0, 1, 2} {
		if len(embs[id]) != 8 {
			t.Fatalf("embedding dim = %d", len(embs[id]))
		}
	}
}

func TestEndToEndFailureRecovery(t *testing.T) {
	ctx, err := psgraph.New(psgraph.Config{
		NumExecutors:  3,
		NumServers:    3,
		LeaseDuration: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	edges := psgraph.GenerateRMAT(psgraph.RMATConfig{Scale: 10, Edges: 8000, Seed: 4})
	rdd := psgraph.ParallelizeEdges(ctx, edges, 0)
	pairs := psgraph.ParallelizeEdges(ctx, edges[:2000], 0)

	model, err := psgraph.BuildNeighborModel(ctx, rdd, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer model.Close(ctx)
	if err := ctx.Agent.Checkpoint(model.Name); err != nil {
		t.Fatal(err)
	}

	ref, err := psgraph.CommonNeighbor(ctx, model, pairs, psgraph.CommonNeighborConfig{})
	if err != nil {
		t.Fatal(err)
	}
	refRows, _ := ref.Collect()
	var refSum int64
	for _, kv := range refRows {
		refSum += kv.V
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		ctx.PS.KillServer(ctx.PS.ServerAddrs()[0])
	}()
	scored, err := psgraph.CommonNeighbor(ctx, model, pairs, psgraph.CommonNeighborConfig{})
	if err != nil {
		t.Fatalf("job failed despite recovery: %v", err)
	}
	rows, _ := scored.Collect()
	var sum int64
	for _, kv := range rows {
		sum += kv.V
	}
	if sum != refSum {
		t.Fatalf("results diverged after recovery: %d vs %d", sum, refSum)
	}
}

func TestEndToEndDataFramePipeline(t *testing.T) {
	ctx := newCluster(t)
	edges := psgraph.GenerateRMAT(psgraph.RMATConfig{Scale: 9, Edges: 3000, Seed: 6})
	if err := psgraph.WriteEdges(ctx, "/df/e.txt", edges, false); err != nil {
		t.Fatal(err)
	}
	df := psgraph.LoadEdgeFrame(ctx, "/df/e.txt", 0)
	n, err := df.Count()
	if err != nil || n != 3000 {
		t.Fatalf("rows = %d, %v", n, err)
	}
	// Relational side: out-degree via group-by over the frame's rows.
	src, err := df.ColIndex("src")
	if err != nil {
		t.Fatal(err)
	}
	ones := dataflow.Map(df.RDD(), func(r psgraph.Row) dataflow.KV[int64, int64] {
		return dataflow.KV[int64, int64]{K: r.Int64(src), V: 1}
	})
	degs, err := dataflow.ReduceByKey(ones, func(a, b int64) int64 { return a + b }, 0).Collect()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, kv := range degs {
		total += kv.V
	}
	if total != 3000 {
		t.Fatalf("degree mass = %d", total)
	}
	// Graph side: frame → edges → PageRank → frame.
	rdd, err := psgraph.EdgesOfFrame(df)
	if err != nil {
		t.Fatal(err)
	}
	res, err := psgraph.PageRank(ctx, rdd, psgraph.PageRankConfig{MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	out, err := psgraph.VectorFrame(ctx, res.Ranks, "rank", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Save("/df/ranks", "\t"); err != nil {
		t.Fatal(err)
	}
	if len(ctx.FS.List("/df/ranks/")) == 0 {
		t.Fatal("no saved output")
	}
}

func TestEndToEndVertexCentricSSSP(t *testing.T) {
	ctx := newCluster(t)
	edges := []psgraph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}}
	inf := math.Inf(1)
	prog := psgraph.VertexProgram{
		Combiner: psgraph.CombineMin,
		Init: func(v int64, outDeg int) (float64, float64, bool) {
			if v == 0 {
				return 0, 1, true
			}
			return inf, 0, false
		},
		Compute: func(v int64, outDeg int, state, combined float64) (float64, float64, bool) {
			if combined < state {
				return combined, combined + 1, true
			}
			return state, 0, false
		},
	}
	res, err := psgraph.RunVertexCentric(ctx, psgraph.ParallelizeEdges(ctx, edges, 2), prog, psgraph.VertexCentricConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := res.States.PullAll()
	if d[0] != 0 || d[1] != 1 || d[2] != 1 {
		t.Fatalf("dists = %v", d)
	}
}

package core

import (
	"math"
	"testing"

	"psgraph/internal/gen"
	"psgraph/internal/ps"
)

func TestPageRankASPMatchesBSP(t *testing.T) {
	ctx := newTestContext(t)
	raw := gen.RMAT(gen.RMATConfig{Scale: 6, Edges: 300, Seed: 3})
	edges := make([]Edge, len(raw))
	for i, e := range raw {
		edges[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	cfg := PageRankConfig{MaxIterations: 60, Tolerance: 1e-10, DeltaThreshold: 1e-12}
	bsp, err := PageRank(ctx, edgesRDD(ctx, edges, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	asp, err := PageRankASP(ctx, edgesRDD(ctx, edges, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := bsp.Ranks.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	b, err := asp.Ranks.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if math.Abs(a[v]-b[v]) > 1e-4*(1+a[v]) {
			t.Fatalf("rank[%d]: BSP %v vs ASP %v", v, a[v], b[v])
		}
	}
}

func TestPageRankASPRingUniform(t *testing.T) {
	ctx := newTestContext(t)
	res, err := PageRankASP(ctx, edgesRDD(ctx, ringEdges(10), 2), PageRankConfig{
		MaxIterations: 60, Tolerance: 1e-10, DeltaThreshold: 1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := res.Ranks.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range ranks {
		if math.Abs(r-1.0) > 1e-3 {
			t.Fatalf("rank[%d] = %v", v, r)
		}
	}
}

func TestPageRankASPConservesMass(t *testing.T) {
	// Rank mass of damped delta PageRank over a graph with no dangling
	// vertices converges to N (each vertex's stationary value averages 1).
	ctx := newTestContext(t)
	res, err := PageRankASP(ctx, edgesRDD(ctx, ringEdges(16), 4), PageRankConfig{
		MaxIterations: 80, Tolerance: 1e-12, DeltaThreshold: 1e-13,
	})
	if err != nil {
		t.Fatal(err)
	}
	ranks, _ := res.Ranks.PullAll()
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	if math.Abs(sum-16) > 0.01 {
		t.Fatalf("total mass = %v, want 16", sum)
	}
}

// TestTakeVectorAfterSplit: a split gives partitions identities that are
// not their slots in the layout; takeVector still takes every index's own
// value and leaves the reset value behind.
func TestTakeVectorAfterSplit(t *testing.T) {
	ctx := newTestContext(t)
	const size = 100
	v, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: "take", Size: size, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, size)
	vals := make([]float64, size)
	for i := range ids {
		ids[i], vals[i] = int64(i), float64(i)+1
	}
	if err := v.SetAll(vals); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Agent.SplitPartition("take", 0, ""); err != nil {
		t.Fatal(err)
	}
	// A pull across the moved range refreshes the client's layout.
	if _, err := v.Pull(ids); err != nil {
		t.Fatal(err)
	}
	taken, err := takeVector(ctx, "take", ids, -1)
	if err != nil {
		t.Fatal(err)
	}
	left, err := v.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if taken[i] != vals[i] || left[i] != -1 {
			t.Fatalf("index %d: took %v and left %v, want %v and -1", i, taken[i], left[i], vals[i])
		}
	}
}

package core

import (
	"math/rand"
	"slices"
	"testing"

	"psgraph/internal/gen"
)

// gsFixture preprocesses an SBM graph of n vertices (16-wide features, the
// benchmark's degrees) with every edge of vertex 0 removed, and returns the
// undirected adjacency the PS was given.
func gsFixture(tb testing.TB, cfg Config, n int64, seed int64) (*Context, *GraphSageData, map[int64][]int64) {
	tb.Helper()
	ctx, err := NewContext(cfg)
	if err != nil {
		tb.Fatalf("NewContext: %v", err)
	}
	tb.Cleanup(ctx.Close)
	edges, labels := gen.SBM(gen.SBMConfig{Vertices: n, Classes: 3, IntraDeg: 6, InterDeg: 2.5, Seed: seed})
	edges = slices.DeleteFunc(edges, func(e gen.Edge) bool { return e.Src == 0 || e.Dst == 0 })
	adj := make(map[int64][]int64)
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		adj[e.Dst] = append(adj[e.Dst], e.Src)
	}
	for v, ns := range adj {
		slices.Sort(ns)
		adj[v] = slices.Compact(ns)
	}
	if err := gen.WriteEdgesText(ctx.FS, "/gs/edges.txt", edges, false); err != nil {
		tb.Fatal(err)
	}
	if err := gen.WriteFeaturesText(ctx.FS, "/gs/feats.txt", labels, gen.Features(labels, 3, 16, 1.0, seed+1)); err != nil {
		tb.Fatal(err)
	}
	data, err := GraphSagePreprocess(ctx, "/gs/edges.txt", "/gs/feats.txt", 0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { data.Close(ctx) })
	return ctx, data, adj
}

// TestGraphSageIsSeedDeterministic: one worker, one seed, two runs — the
// same losses and accuracies bit for bit. Hop-1 vertices used to reach the
// hop-2 sampler in Go map-iteration order, so no two runs drew the same
// neighbourhoods. (With two or more workers the PS still sums their
// gradient pushes in arrival order; that is the paper's model, not pinned
// here.)
func TestGraphSageIsSeedDeterministic(t *testing.T) {
	ctx, data, _ := gsFixture(t, Config{NumExecutors: 1, NumServers: 2}, 800, 5)
	run := func() *GraphSageResult {
		res, err := GraphSage(ctx, data, GraphSageConfig{
			Classes: 3, Epochs: 3, BatchSize: 128, LR: 0.02, Seed: 9, Parts: 1, Sync: "bsp",
		})
		if err != nil {
			t.Fatal(err)
		}
		cleanupModels(ctx, res.W1Name, res.W2Name)
		return res
	}
	a, b := run(), run()
	if !slices.Equal(a.Losses, b.Losses) {
		t.Errorf("losses differ between two runs of seed 9:\n%v\n%v", a.Losses, b.Losses)
	}
	if a.TrainAccuracy != b.TrainAccuracy || a.TestAccuracy != b.TestAccuracy {
		t.Errorf("accuracies differ: train %v vs %v, test %v vs %v", a.TrainAccuracy, b.TrainAccuracy, a.TestAccuracy, b.TestAccuracy)
	}
	if a.TestAccuracy < 0.8 {
		t.Errorf("test accuracy %.3f: the deterministic run no longer learns", a.TestAccuracy)
	}
}

// TestBatchBuilderInvariants builds batches on a random graph — one with a
// repeated target and the neighbourless vertex 0 — and checks the boundary
// form against the true adjacency and features.
func TestBatchBuilderInvariants(t *testing.T) {
	_, data, adj := gsFixture(t, Config{NumExecutors: 2, NumServers: 2}, 600, 3)
	feats, err := data.Feats.Pull(data.Vertices)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GraphSageConfig{FanOut1: 4, FanOut2: 3, Aggregator: "mean"}
	rng := rand.New(rand.NewSource(1))
	bb := &batchBuilder{data: data, cfg: cfg, rng: rng}
	for round := 0; round < 20; round++ {
		batch := make([]int64, 1+rng.Intn(40))
		for i := range batch {
			batch[i] = rng.Int63n(600)
		}
		if round == 0 {
			batch = []int64{7, 0, 7, 12, 0}
		}
		withLabels := round%2 == 0
		jb, err := bb.build(batch, withLabels)
		if err != nil {
			t.Fatal(err)
		}
		order := bb.order
		if jb.NumNodes != len(order) || len(jb.X) != jb.NumNodes*jb.Dim || jb.Dim != 16 {
			t.Fatalf("X holds %d values for %d nodes of width %d, %d rows ordered", len(jb.X), jb.NumNodes, jb.Dim, len(order))
		}
		seen := make(map[int64]bool)
		for r, v := range order {
			if seen[v] {
				t.Fatalf("vertex %d pulled twice", v)
			}
			seen[v] = true
			if !slices.Equal(jb.X[r*16:(r+1)*16], feats[v]) {
				t.Fatalf("row %d does not hold the features of vertex %d", r, v)
			}
		}
		// Batch rows first, in first-occurrence order.
		var distinct []int64
		for _, v := range batch {
			if !slices.Contains(distinct, v) {
				distinct = append(distinct, v)
			}
		}
		nBatch, nL1 := len(distinct), len(jb.Self1)
		if !slices.Equal(order[:nBatch], distinct) {
			t.Fatalf("first rows %v, want the batch %v", order[:nBatch], distinct)
		}
		if len(jb.Nbrs1) != nL1 || len(jb.Self2) != len(batch) || len(jb.Nbrs2) != len(batch) {
			t.Fatalf("shapes: %d/%d layer-1, %d/%d outputs for %d targets", nL1, len(jb.Nbrs1), len(jb.Self2), len(jb.Nbrs2), len(batch))
		}
		// segment checks one draw: at most fan of v's true neighbours,
		// all of them when v has no more, none twice, every row below bound.
		segment := func(what string, v int64, seg []int32, fan, bound int) {
			t.Helper()
			if want := min(fan, len(adj[v])); len(seg) != want {
				t.Fatalf("%s of vertex %d (degree %d) has %d samples, want %d", what, v, len(adj[v]), len(seg), want)
			}
			drawn := make(map[int32]bool)
			for _, r := range seg {
				if int(r) >= bound {
					t.Fatalf("%s of vertex %d indexes row %d of %d", what, v, r, bound)
				}
				if drawn[r] || !slices.Contains(adj[v], order[r]) {
					t.Fatalf("%s of vertex %d: row %d (vertex %d) repeated or not a neighbour", what, v, r, order[r])
				}
				drawn[r] = true
			}
		}
		inL1 := make([]bool, nL1)
		for i, v := range batch {
			if order[jb.Self2[i]] != v {
				t.Fatalf("Self2[%d] = row %d (vertex %d), want vertex %d", i, jb.Self2[i], order[jb.Self2[i]], v)
			}
			segment("Nbrs2", v, jb.Nbrs2[i], cfg.FanOut1, nL1)
			for _, r := range jb.Nbrs2[i] {
				inL1[r] = true
			}
		}
		for r := 0; r < nL1; r++ {
			if jb.Self1[r] != int32(r) {
				t.Fatalf("Self1[%d] = %d", r, jb.Self1[r])
			}
			fan := cfg.FanOut1
			if r >= nBatch {
				fan = cfg.FanOut2
				if !inL1[r] {
					t.Fatalf("layer-1 row %d (vertex %d) is neither a target nor a hop-1 sample", r, order[r])
				}
			}
			segment("Nbrs1", order[r], jb.Nbrs1[r], fan, jb.NumNodes)
		}
		if !withLabels && jb.Labels != nil {
			t.Fatal("labels on an inference batch")
		}
		if withLabels {
			for i, v := range batch {
				if jb.Labels[i] != data.Labels[v] {
					t.Fatalf("label of target %d (vertex %d) = %d, want %d", i, v, jb.Labels[i], data.Labels[v])
				}
			}
		}
	}
}

// gsStep returns one build + run of a full-size training batch (256
// targets, fan-outs 10 and 5) on a 12k-vertex graph, the benchmark's shape.
func gsStep(tb testing.TB) func() {
	ctx, data, _ := gsFixture(tb, Config{NumExecutors: 2, NumServers: 2}, 12_000, 1)
	cfg := GraphSageConfig{Classes: 3}
	if err := cfg.setDefaults(); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	model, err := newGSModel(ctx, data, cfg, rng)
	if err != nil {
		tb.Fatal(err)
	}
	weights, err := model.pull()
	if err != nil {
		tb.Fatal(err)
	}
	bb := &batchBuilder{data: data, cfg: cfg, rng: rng}
	perm := rng.Perm(len(data.Vertices))
	next := 0
	return func() {
		if next+cfg.BatchSize > len(perm) {
			next = 0
		}
		batch := make([]int64, cfg.BatchSize)
		for i := range batch {
			batch[i] = data.Vertices[perm[next+i]]
		}
		next += cfg.BatchSize
		jb, err := bb.build(batch, true)
		if err != nil {
			tb.Fatal(err)
		}
		if out := model.run(jb, weights); len(out.GradW1) == 0 {
			tb.Fatal("training step returned no gradient")
		}
	}
}

// TestGraphSageStepAllocationBudget: building and running one 256-target
// batch allocates a few hundred objects — the RPC plumbing of two neighbour
// pulls and a feature pull, a dozen tensors — not the 13,650 of a map per
// table, a slice per vertex and an index copy per tensor op. 239 (243 under
// -race) since the feature pull lands in the builder's own block, 267
// before; the budget is that plus 10%.
func TestGraphSageStepAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are measured without -short")
	}
	step := gsStep(t)
	step() // size the builder's buffers
	if n := testing.AllocsPerRun(10, step); n > 265 {
		t.Errorf("one GraphSage step of 256 targets makes %v allocations, budget 265", n)
	}
}

func BenchmarkGraphSageStep(b *testing.B) {
	step := gsStep(b)
	step()
	b.ReportAllocs()
	for b.Loop() {
		step()
	}
}

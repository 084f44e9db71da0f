package core

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"psgraph/internal/gen"
	"psgraph/internal/ps"
	"psgraph/internal/rpc"
)

// lineSeparation trains LINE with the given config on a 2-class SBM and
// returns mean intra-class minus mean inter-class cosine similarity.
func lineSeparation(t *testing.T, cfg LineConfig) float64 {
	t.Helper()
	ctx := newTestContext(t)
	sbmEdges, labels := gen.SBM(gen.SBMConfig{Vertices: 40, Classes: 2, IntraDeg: 8, InterDeg: 0.3, Seed: 13})
	es := make([]Edge, len(sbmEdges))
	for i, e := range sbmEdges {
		es[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	res, err := Line(ctx, edgesRDD(ctx, es, 2), cfg)
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
	return intra/float64(ni) - inter/float64(nx)
}

// TestLineSSPWithOverlapLearns: the full relaxed path — SSP k=1,
// prefetch pipeline and push coalescing — still separates the SBM
// communities. This is the convergence half of the SSP acceptance.
func TestLineSSPWithOverlapLearns(t *testing.T) {
	sep := lineSeparation(t, LineConfig{
		Dim: 16, Order: 2, Epochs: 12, BatchSize: 256, NegSamples: 4, LR: 0.06, Seed: 1,
		PullVectors: true,
		Sync:        "ssp", Staleness: 1, WindowBatches: 2,
		Prefetch: true, Coalesce: true,
	})
	if sep <= 0 {
		t.Fatalf("SSP+overlap LINE did not separate communities (margin %v)", sep)
	}
}

// TestLineBSPAliasRuns: Sync "bsp" is a staleness-0 ring and must train
// lock-step through the clock path.
func TestLineBSPAliasRuns(t *testing.T) {
	sep := lineSeparation(t, LineConfig{
		Dim: 16, Order: 2, Epochs: 12, BatchSize: 256, NegSamples: 4, LR: 0.06, Seed: 1,
		PullVectors: true,
		Sync:        "bsp",
	})
	if sep <= 0 {
		t.Fatalf("bsp-alias LINE did not separate communities (margin %v)", sep)
	}
}

// TestLineASPRuns: fully asynchronous training (no ring, never wait) also
// converges on the small graph.
func TestLineASPRuns(t *testing.T) {
	sep := lineSeparation(t, LineConfig{
		Dim: 16, Order: 2, Epochs: 12, BatchSize: 256, NegSamples: 4, LR: 0.06, Seed: 1,
		PullVectors: true,
		Sync:        "asp", Prefetch: true, Coalesce: true,
	})
	if sep <= 0 {
		t.Fatalf("ASP LINE did not separate communities (margin %v)", sep)
	}
}

// TestLineSSPRejectsBadSync: unknown Sync values fail fast.
func TestLineSSPRejectsBadSync(t *testing.T) {
	ctx := newTestContext(t)
	_, err := Line(ctx, edgesRDD(ctx, ringEdges(10), 2), LineConfig{
		Dim: 4, Epochs: 1, Seed: 1, Sync: "totally-async",
	})
	if err == nil {
		t.Fatal("bad Sync value accepted")
	}
}

// clockCounter is an rpc.Transport that counts the clock calls it carries.
type clockCounter struct {
	rpc.Transport
	n atomic.Int64
}

func (c *clockCounter) Call(addr, method string, body []byte) ([]byte, error) {
	if strings.HasPrefix(method, "Clock") {
		c.n.Add(1)
	}
	return c.Transport.Call(addr, method, body)
}

// TestDefaultSyncIsASPOnCallerPartitions: LINE and GraphSage with no Sync
// train as ASP — not one clock call — with one task per partition the
// caller asked for (5 edge partitions, 6 GraphSage parts, over 3
// executors), while "bsp" cuts the same edges to a 3-worker ring that does
// tick.
func TestDefaultSyncIsASPOnCallerPartitions(t *testing.T) {
	tr := &clockCounter{Transport: rpc.NewInProc()}
	ctx, err := NewContext(Config{NumExecutors: 3, NumServers: 2, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctx.Close)
	tasks := func() int64 { return ctx.Spark.Stats().TasksRun }

	edges := edgesRDD(ctx, ringEdges(60), 5)
	before := tasks()
	if _, err := newDegreeSampler(edges, ctx.Partitions()); err != nil {
		t.Fatal(err)
	}
	samplerTasks := tasks() - before
	for _, c := range []struct {
		sync   string
		tasks  int64 // training tasks past the sampler's
		clocks bool
	}{
		{"", 5, false},
		{"bsp", 5 + 3, true}, // Collect of the 5 partitions, then 3 ring workers
	} {
		before, clocks := tasks(), tr.n.Load()
		if _, err := Line(ctx, edges, LineConfig{Sync: c.sync}); err != nil {
			t.Fatal(err)
		}
		if got := tasks() - before - samplerTasks; got != c.tasks {
			t.Errorf("LINE sync %q ran %d training tasks, want %d", c.sync, got, c.tasks)
		}
		if got := tr.n.Load() - clocks; (got > 0) != c.clocks {
			t.Errorf("LINE sync %q made %d clock calls", c.sync, got)
		}
	}

	edgesPath, featsPath := writeSBMDataset(t, ctx, 300, 3, 22)
	data, err := GraphSagePreprocess(ctx, edgesPath, featsPath, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close(ctx)
	before, clocks := tasks(), tr.n.Load()
	if _, err := GraphSage(ctx, data, GraphSageConfig{Classes: 3}); err != nil {
		t.Fatal(err)
	}
	// Five epochs of one task per part, then train and test evaluation.
	parts := int64(ctx.Partitions())
	if got := tasks() - before; got != (5+2)*parts {
		t.Errorf("GraphSage ran %d tasks, want %d (one per part per epoch + 2 evaluations)", got, (5+2)*parts)
	}
	if got := tr.n.Load() - clocks; got != 0 {
		t.Errorf("GraphSage with no Sync made %d clock calls, want 0", got)
	}
}

// TestLineSSPRequiresPullVectorsForPrefetch: the PS-side-update variant
// (PullVectors=false) has no client rows to prefetch; Sync still works,
// prefetch/coalesce are simply inert.
func TestLineSSPWithoutPullVectors(t *testing.T) {
	sep := lineSeparation(t, LineConfig{
		Dim: 16, Order: 2, Epochs: 12, BatchSize: 256, NegSamples: 4, LR: 0.06, Seed: 1,
		Sync: "ssp", Staleness: 2, Prefetch: true, Coalesce: true,
	})
	if sep <= 0 {
		t.Fatalf("SSP PS-update LINE did not separate communities (margin %v)", sep)
	}
}

// TestGraphSageSSPLearns: GraphSage through the SSP clock with feature
// prefetch and gradient-window coalescing reaches the same accuracy bar
// as the BSP test.
func TestGraphSageSSPLearns(t *testing.T) {
	ctx := newTestContext(t)
	edgesPath, featsPath := writeSBMDataset(t, ctx, 600, 3, 22)
	data, err := GraphSagePreprocess(ctx, edgesPath, featsPath, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close(ctx)
	res, err := GraphSage(ctx, data, GraphSageConfig{
		Classes: 3, HiddenDim: 16, Epochs: 6, BatchSize: 128, LR: 0.02, Seed: 7,
		Sync: "ssp", Staleness: 1, WindowBatches: 2, Prefetch: true, Coalesce: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0.8 {
		t.Fatalf("SSP test accuracy = %v, want >= 0.8 (losses %v)", res.TestAccuracy, res.Losses)
	}
}

// TestLineRelaxedStepAllocationBudget: one relaxed LINE step — two batch
// pulls, lineGrads, two coalesced pushes, a flush every fourth — makes its
// update blocks once per worker, not twice per batch. lineGrads itself
// allocates nothing past its first call (the blocks were 5.4 GB of a
// line-rows-tcp run), and the whole step stays within a count that has no
// room for a block per row: 105 per step measured (110 under -race), the
// budget is that plus 10%.
func TestLineRelaxedStepAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are measured without -short")
	}
	ctx := newTestContext(t)
	edges := make([]Edge, 512)
	rng := rand.New(rand.NewSource(9))
	for i := range edges {
		edges[i] = Edge{Src: int64(i / 4), Dst: rng.Int63n(2000)}
	}
	sampler, err := newDegreeSampler(edgesRDD(ctx, edges, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	var handles [2]*ps.Emb
	for k, name := range []string{"budget.emb", "budget.ctx"} {
		if handles[k], err = ctx.Agent.CreateEmbedding(ps.EmbeddingSpec{Name: name, Dim: 32, ByColumn: true, InitScale: 0.01}); err != nil {
			t.Fatal(err)
		}
	}
	eh, oh := handles[0], handles[1]
	b := newLineBatch(edges, 5, sampler, rng)
	uCo, vCo := eh.Coalescer(4, false), oh.Coalescer(4, false)
	var upd [2][]float64
	step := func() {
		if err := lineStepRelaxed(eh, oh, b, uCo, vCo, 0.025, &upd); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		step() // size the update blocks and the coalescers' windows
	}
	if n := testing.AllocsPerRun(20, step); n > 121 {
		t.Errorf("one relaxed LINE step of %d pairs makes %v allocations, budget 121", len(b.us), n)
	}
	var u, v pulledRows
	if u.rows, u.pos, err = eh.PullBatch(b.us); err != nil {
		t.Fatal(err)
	}
	if v.rows, v.pos, err = oh.PullBatch(b.vs); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { lineGrads(b, u, v, 0.025, &upd) }); n > 0 {
		t.Errorf("lineGrads makes %v allocations past its first batch", n)
	}
	uUpd, vUpd := lineGrads(b, u, v, 0.025, &upd)
	if len(uUpd.Data) != len(u.rows.Data) || len(vUpd.Data) != len(v.rows.Data) || &uUpd.Data[0] != &upd[0][0] {
		t.Errorf("update batches of %d and %d values for pulls of %d and %d, in the worker's blocks: %v",
			len(uUpd.Data), len(vUpd.Data), len(u.rows.Data), len(v.rows.Data), &uUpd.Data[0] == &upd[0][0])
	}
}

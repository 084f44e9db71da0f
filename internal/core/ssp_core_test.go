package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"psgraph/internal/gen"
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

// TestGraphSageSSPLearns: GraphSage through the SSP clock reaches the same
// accuracy bar as the BSP test.
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
		Sync: "ssp", Staleness: 1, WindowBatches: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0.8 {
		t.Fatalf("SSP test accuracy = %v, want >= 0.8 (losses %v)", res.TestAccuracy, res.Losses)
	}
}

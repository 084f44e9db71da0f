package main

import (
	"fmt"
	"math/rand"

	"psgraph/internal/core"
	"psgraph/internal/gen"
	"psgraph/internal/gnn"
	"psgraph/internal/ps"
	"psgraph/internal/tensor"
)

const (
	gsClasses   = 3
	gsFeatDim   = 16
	gsHidden    = 16
	gsBatch     = 256
	gsFanOut1   = 10
	gsFanOut2   = 5
	gsFeatsPath = "/bench/feats.txt"
)

// graphsageWL: GraphSagePreprocess in set-up, then core.GraphSage (mean
// aggregator, lock-step clocks) on an SBM graph with 16-dim features.
// Item = target vertex × epoch.
type graphsageWL struct {
	base
	data *core.GraphSageData
	res  *core.GraphSageResult
}

func (w *graphsageWL) setup() error {
	var edges []gen.Edge
	var labels []int
	var feats [][]float64
	_ = w.timed("gen.generate_s", "gen", func() error {
		edges, labels = gen.SBM(gen.SBMConfig{
			Vertices: int64(sz.gsVertices), Classes: gsClasses, IntraDeg: 6, InterDeg: 2.5, Seed: w.seed,
		})
		feats = gen.Features(labels, gsClasses, gsFeatDim, 1.0, w.seed+1)
		return nil
	})
	if err := w.newContext(2, false); err != nil {
		return err
	}
	err := w.timed("dfs.write_s", "dfs", func() error {
		if err := gen.WriteEdgesText(w.ctx.FS, edgesPath, edges, false); err != nil {
			return err
		}
		return gen.WriteFeaturesText(w.ctx.FS, gsFeatsPath, labels, feats)
	})
	if err != nil {
		return err
	}
	w.setupM["dfs.write_bytes"] = float64(w.ctx.FS.BytesWritten())
	return w.timed("core.graphsage.preprocess_s", "core", func() (err error) {
		w.data, err = core.GraphSagePreprocess(w.ctx, edgesPath, gsFeatsPath, 0)
		return err
	})
}

func (w *graphsageWL) job() error {
	return w.call("core", "core.GraphSage", func() (err error) {
		w.res, err = core.GraphSage(w.ctx, w.data, core.GraphSageConfig{
			Classes: gsClasses, HiddenDim: gsHidden, FanOut1: gsFanOut1, FanOut2: gsFanOut2,
			Epochs: sz.gsEpochs, BatchSize: gsBatch, LR: 0.02, Seed: w.seed, Sync: "bsp",
		})
		return err
	})
}

// items counts the training targets only (TrainFrac 0.7, the default).
func (w *graphsageWL) items() int64 {
	return int64(float64(sz.gsVertices)*0.7) * int64(sz.gsEpochs)
}

func (w *graphsageWL) check() error {
	if w.res.TestAccuracy < sz.gsFloor {
		return fmt.Errorf("graphsage: test accuracy %.3f below the floor %.2f", w.res.TestAccuracy, sz.gsFloor)
	}
	return nil
}

func (w *graphsageWL) cleanup() error {
	return w.deleteModelsExcept(w.data.Adj.Name, w.data.FeatsName)
}

func (w *graphsageWL) probe(m map[string]float64) error {
	ids := w.data.Vertices[:min(2048, len(w.data.Vertices))]
	if err := w.probeEmb(m, w.ctx.Agent, ps.EmbeddingSpec{Name: "probe.emb", Dim: gsFeatDim}, ids); err != nil {
		return err
	}
	us, err := w.probeSelf("ps.client.nbr_pull_self_us_per_id", func() error {
		_, err := w.data.Adj.Nbr.Pull(ids)
		return err
	})
	if err != nil {
		return err
	}
	m["ps.client.nbr_pull_self_us_per_id"] = us / float64(len(ids))

	// gnn and tensor on a synthetic batch of the job's shape: gsBatch
	// targets, their hop-1 samples, and the hop-2 samples of those.
	rng := rand.New(rand.NewSource(w.seed))
	l1 := gsBatch * (1 + gsFanOut1)
	nodes := min(l1*(1+gsFanOut2), sz.gsVertices)
	b := gnn.Batch{
		X: make([]float64, nodes*gsFeatDim), NumNodes: nodes, Dim: gsFeatDim,
		Self1: make([]int32, l1), Nbrs1: make([][]int32, l1),
		Self2: make([]int32, gsBatch), Nbrs2: make([][]int32, gsBatch),
		Labels: make([]int32, gsBatch), Aggregator: "mean",
	}
	for i := range b.X {
		b.X[i] = rng.NormFloat64()
	}
	pick := func(n, bound int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(rng.Intn(bound))
		}
		return out
	}
	for i := range b.Self1 {
		b.Self1[i] = int32(rng.Intn(nodes))
		fan := gsFanOut2
		if i < gsBatch {
			fan = gsFanOut1
		}
		b.Nbrs1[i] = pick(fan, nodes)
	}
	for i := range b.Self2 {
		b.Self2[i] = int32(i)
		b.Nbrs2[i] = pick(gsFanOut1, l1)
		b.Labels[i] = int32(rng.Intn(gsClasses))
	}
	w1 := gnn.XavierFlat(2*gsFeatDim, gsHidden, rng)
	w2 := gnn.XavierFlat(2*gsHidden, gsClasses, rng)
	m["gnn.run_ms_per_batch"] = timeIt(probeRounds, func() { gnn.Run(b, w1, w2, gsHidden, gsClasses) })
	adam := gnn.NewAdam(0.02, len(w1))
	grad := make([]float64, len(w1))
	// 1000 steps per timing, so the milliseconds read as µs per step.
	m["gnn.adam_us_per_step"] = timeIt(probeRounds, func() {
		for i := 0; i < 1000; i++ {
			adam.Step(w1, grad)
		}
	})
	x := tensor.FromData(l1, 2*gsFeatDim, make([]float64, l1*2*gsFeatDim))
	wt := tensor.FromData(2*gsFeatDim, gsHidden, w1)
	m["tensor.matmul_ms"] = timeIt(probeRounds, func() { x.MatMul(wt) })
	return nil
}

package main

import (
	"fmt"
	"math"
	"math/rand"

	"psgraph/internal/core"
	"psgraph/internal/gen"
	"psgraph/internal/ps"
)

const lineDim = 32

// lineWL is both LINE workloads: the same graph, seed and algorithm over
// opposite layers. rows=false trains through the psFunc path in-proc
// (line-psfunc); rows=true pulls and pushes whole rows over TCP under SSP
// with prefetch and coalescing (line-rows-tcp). Item = positive edge
// sample.
type lineWL struct {
	base
	rows  bool
	edges []gen.Edge
	res   *core.LineResult
}

func (w *lineWL) setup() (err error) {
	w.edges, err = w.loadGraph(sz.lineScale, sz.lineEdges, w.rows)
	return err
}

func (w *lineWL) config() core.LineConfig {
	if w.rows {
		return core.LineConfig{
			Dim: lineDim, Order: 2, Epochs: sz.lineRows, Seed: w.seed,
			PullVectors: true, Sync: "ssp", Staleness: 1, Prefetch: true, Coalesce: true,
		}
	}
	return core.LineConfig{Dim: lineDim, Order: 2, Epochs: sz.linePSFuncEpochs, Seed: w.seed, Sync: "bsp"}
}

func (w *lineWL) job() error {
	return w.call("core", "core.Line", func() (err error) {
		edges := core.LoadEdges(w.ctx, edgesPath, 0)
		w.res, err = core.Line(w.ctx, edges, w.config())
		return err
	})
}

func (w *lineWL) items() int64 { return int64(len(w.edges)) * int64(w.config().Epochs) }

// check: every sampled embedding is a finite Dim-32 vector, and the
// skip-gram objective LINE minimises — one sampled edge against NegSamples
// noise pairs, noise drawn by degree like the trainer's — is at least 4%
// below its value for an untrained model (the harness checks applied ==
// sent). On an R-MAT graph edges are independent given the degrees, so the
// trained scores of edges and of noise pairs both settle near -ln(k) and
// comparing their means would test nothing.
func (w *lineWL) check() error {
	rng := rand.New(rand.NewSource(w.seed))
	const samples, negSamples = 1024, 5
	us := make([]int64, samples)
	vs := make([]int64, samples)
	negs := make([]int64, samples)
	for i := range us {
		e := w.edges[rng.Intn(len(w.edges))]
		us[i], vs[i] = e.Src, e.Dst
		negs[i] = w.edges[rng.Intn(len(w.edges))].Dst
	}
	ctxEmb, err := w.ctx.Agent.Embedding(w.res.CtxName)
	if w.op(err) != nil {
		return err
	}
	uVecs, err := w.res.Emb.Pull(us)
	if w.op(err) != nil {
		return err
	}
	vVecs, err := ctxEmb.Pull(append(append([]int64(nil), vs...), negs...))
	if w.op(err) != nil {
		return err
	}
	softplus := func(x float64) float64 { return math.Log1p(math.Exp(x)) }
	var loss float64
	for i := range us {
		u := uVecs[us[i]]
		p, n := dot(u, vVecs[vs[i]]), dot(u, vVecs[negs[i]])
		if len(u) != lineDim || math.IsNaN(p+n) || math.IsInf(p+n, 0) {
			return fmt.Errorf("line: embedding of %d is not a finite %d-vector", us[i], lineDim)
		}
		loss += softplus(-p) + negSamples*softplus(n)
	}
	loss /= samples
	if untrained := (1 + negSamples) * math.Ln2; !(loss < sz.lineLoss*untrained) {
		return fmt.Errorf("line: skip-gram loss %.3f is not below %.2f of the untrained %.3f", loss, sz.lineLoss, untrained)
	}
	return nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func (w *lineWL) probe(m map[string]float64) error {
	if err := w.probeLoad(m); err != nil {
		return err
	}
	// One training batch worth of rows, as the rows path pulls them.
	ids := make([]int64, 0, 1024)
	for _, e := range w.edges[:512] {
		ids = append(ids, e.Src, e.Dst)
	}
	return w.probeEmb(m, w.ctx.Agent, ps.EmbeddingSpec{Name: "probe.emb", Dim: lineDim, ByColumn: true, InitScale: 0.5 / lineDim}, ids)
}

package main

import (
	"fmt"
	"time"

	"psgraph/internal/core"
	"psgraph/internal/gen"
	"psgraph/internal/ps"
)

// sizes are the committed workload constants. The full set is what the
// benchmark measures; the short set only makes the smoke test quick.
type sizes struct {
	prScale, prEdges, prIters int

	lineScale, lineEdges       int
	linePSFuncEpochs, lineRows int // epochs of each LINE workload
	// lineLoss is the share of the untrained skip-gram loss a trained model
	// must get below.
	lineLoss float64

	gsVertices, gsEpochs int
	gsFloor              float64

	serveRows, serveLookups int
}

var fullSizes = sizes{
	prScale: 17, prEdges: 2_000_000, prIters: 24,
	lineScale: 14, lineEdges: 200_000, linePSFuncEpochs: 5, lineRows: 1, lineLoss: 0.96,
	gsVertices: 12_000, gsEpochs: 6, gsFloor: 0.9,
	serveRows: 65_536, serveLookups: 2_000,
}

var shortSizes = sizes{
	prScale: 12, prEdges: 40_000, prIters: 3,
	lineScale: 10, lineEdges: 8_000, linePSFuncEpochs: 8, lineRows: 4, lineLoss: 0.95,
	gsVertices: 1_500, gsEpochs: 2, gsFloor: 0.5,
	serveRows: 4_096, serveLookups: 200,
}

var sz = fullSizes

const edgesPath = "/bench/edges.txt"

func newWorkload(name string, seed int64, rec *recorder) (workload, error) {
	b := base{seed: seed, rec: rec, setupM: map[string]float64{}}
	switch name {
	case "pagerank-df":
		return &pagerankWL{base: b}, nil
	case "line-psfunc":
		return &lineWL{base: b}, nil
	case "line-rows-tcp":
		return &lineWL{base: b, rows: true}, nil
	case "graphsage-nbr":
		return &graphsageWL{base: b}, nil
	case "serve-mixed-tcp":
		return &serveWL{base: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// loadGraph is the set-up shared by the three edge-list workloads: R-MAT
// edges from the seed, a cluster, the edge list as DFS text.
func (b *base) loadGraph(scale, edges int, tcp bool) ([]gen.Edge, error) {
	var out []gen.Edge
	_ = b.timed("gen.generate_s", "gen", func() error {
		out = gen.RMAT(gen.RMATConfig{Scale: scale, Edges: int64(edges), Seed: b.seed})
		return nil
	})
	if err := b.newContext(2, tcp); err != nil {
		return nil, err
	}
	err := b.timed("dfs.write_s", "dfs", func() error {
		return gen.WriteEdgesText(b.ctx.FS, edgesPath, out, false)
	})
	b.setupM["dfs.write_bytes"] = float64(b.ctx.FS.BytesWritten())
	return out, err
}

// probeLoad times LoadEdges plus a first action on the workload's own edge
// file: the dataflow parse path alone.
func (b *base) probeLoad(m map[string]float64) error {
	t0 := time.Now()
	err := b.call("dataflow", "probe.LoadEdges", func() error {
		_, err := core.LoadEdges(b.ctx, edgesPath, 0).Count()
		return err
	})
	m["dataflow.load_s"] = time.Since(t0).Seconds()
	return err
}

func init() {
	ps.RegisterFunc("bench.noop", func(*ps.Store, string, int, []byte) ([]byte, error) { return nil, nil })
}

// probeRounds is how often each client probe repeats its call.
const probeRounds = 20

// probeEmb measures the client's own cost of the three data-path calls on
// a scratch model of the job's shape: span of the call minus the rpc spans
// inside it, i.e. routing, bucketing, encode and decode.
func (b *base) probeEmb(m map[string]float64, agent *ps.Client, spec ps.EmbeddingSpec, ids []int64) error {
	emb, err := agent.CreateEmbedding(spec)
	if b.op(err) != nil {
		return err
	}
	defer func() { _ = b.op(agent.DeleteModel(spec.Name)) }()
	zeros := make(map[int64][]float64, len(ids))
	for _, id := range ids {
		zeros[id] = make([]float64, spec.Dim)
	}
	arg := make([]byte, 48<<10) // about one LINE batch of pair ids
	probes := []struct {
		metric string
		per    float64
		fn     func() error
	}{
		{"ps.client.pull_self_us_per_row", float64(len(ids)), func() error { _, err := emb.Pull(ids); return err }},
		{"ps.client.push_self_us_per_row", float64(len(zeros)), func() error { return emb.PushAdd(zeros) }},
		{"ps.client.func_self_us_per_call", 1, func() error {
			_, err := agent.CallFunc(spec.Name, "bench.noop", func(ps.Partition) []byte { return arg })
			return err
		}},
	}
	for _, p := range probes {
		us, err := b.probeSelf(p.metric, p.fn)
		if err != nil {
			return err
		}
		m[p.metric] = us / p.per
	}
	return nil
}

// probeSelf calls fn probeRounds times as a ps.client span and returns the
// median microseconds of the span's self time: the call minus the rpc spans
// inside it.
func (b *base) probeSelf(name string, fn func() error) (float64, error) {
	var self []float64
	for i := 0; i < probeRounds; i++ {
		mark := b.rec.mark()
		if err := b.call("ps.client", "probe."+name, fn); err != nil {
			return 0, err
		}
		spans := b.rec.since(mark)
		self = append(self, float64(selfTime(topSpans(spans)[0], clientSpans(spans)))/1e3)
	}
	return median(self), nil
}

// timeIt returns the median milliseconds of rounds calls of fn.
func timeIt(rounds int, fn func()) float64 {
	ms := make([]float64, rounds)
	for i := range ms {
		t0 := time.Now()
		fn()
		ms[i] = float64(time.Since(t0)) / 1e6
	}
	return median(ms)
}

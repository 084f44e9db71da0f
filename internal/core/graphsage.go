package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"psgraph/internal/dataflow"
	"psgraph/internal/gnn"
	"psgraph/internal/ps"
)

// GraphSageConfig tunes the GNN trainer of Sec. IV-E.
type GraphSageConfig struct {
	// HiddenDim is the layer-1 output width. Defaults to 16.
	HiddenDim int
	// Classes is the number of output classes (required).
	Classes int
	// FanOut1/FanOut2 are the neighbor sample sizes of the two hops
	// ("samples a fixed-size of K-hop neighbors", k=2). Default 10 and 5.
	FanOut1, FanOut2 int
	// Epochs over the training set. Defaults to 5.
	Epochs int
	// BatchSize of target vertices per step. Defaults to 256.
	BatchSize int
	// LR is the server-side Adam learning rate. Defaults to 0.01.
	LR float64
	// Aggregator is "mean" (default) or "pool".
	Aggregator string
	// Parts overrides the RDD partition count.
	Parts int
	// Seed drives sampling and initialization.
	Seed int64

	// Sync selects how the partition tasks of an epoch, which tick a clock
	// once per window of batches, wait for each other. "" and "asp" never
	// wait and send no clock traffic (ASP; the action boundary is the epoch
	// barrier), one task per partition; "bsp" is lock-step (a staleness-0
	// clock ring) and "ssp" bounds the spread at Staleness windows, both on
	// min(Parts, executors) workers, since every member of a waiting ring
	// must be running.
	Sync string
	// Staleness is the SSP bound k (Sync "ssp" only).
	Staleness int
	// WindowBatches is the number of batches per clock window, which is
	// also the feature window: its batches pull each feature row once,
	// into one block they share. Defaults to 2.
	WindowBatches int
}

// gsTrainFrac is the share of the vertices GraphSage trains on; the rest
// is the test set.
const gsTrainFrac = 0.7

func (c *GraphSageConfig) setDefaults() error {
	if c.Classes <= 1 {
		return fmt.Errorf("core: GraphSage requires Classes >= 2")
	}
	c.HiddenDim = cmp.Or(c.HiddenDim, 16)
	c.FanOut1 = cmp.Or(c.FanOut1, 10)
	c.FanOut2 = cmp.Or(c.FanOut2, 5)
	c.Epochs = cmp.Or(c.Epochs, 5)
	c.BatchSize = cmp.Or(c.BatchSize, 256)
	c.LR = cmp.Or(c.LR, 0.01)
	c.Aggregator = cmp.Or(c.Aggregator, "mean")
	if c.Aggregator != "mean" && c.Aggregator != "pool" && c.Aggregator != "lstm" {
		return fmt.Errorf("core: unknown aggregator %q", c.Aggregator)
	}
	if c.WindowBatches <= 0 {
		c.WindowBatches = 2
	}
	return nil
}

// GraphSageData is the preprocessed state: adjacency and features
// resident on the parameter server, labels on the driver.
type GraphSageData struct {
	Adj       *NeighborModel
	Feats     *ps.Emb
	FeatsName string
	Labels    map[int64]int32
	InputDim  int
	Vertices  []int64
	// PreprocessTime is the wall time of the Spark preprocessing pipeline
	// (Table I column 1).
	PreprocessTime time.Duration
}

// Close removes the PS models.
func (d *GraphSageData) Close(ctx *Context) {
	d.Adj.Close(ctx)
	cleanupModels(ctx, d.FeatsName)
}

// GraphSagePreprocess runs the paper's preprocessing inside the Spark
// pipeline (Table I credits PSGraph's 40× preprocessing advantage to
// this): edges and features are loaded in parallel from the DFS,
// converted to vertex partitioning with groupBy, and pushed straight to
// the parameter server — no intermediate disk materialization between
// stages, unlike Euler's sequential jobs.
func GraphSagePreprocess(ctx *Context, edgesPath, featsPath string, parts int) (*GraphSageData, error) {
	parts = ctx.parts(parts)
	start := time.Now()

	edges := LoadEdges(ctx, edgesPath, parts)
	adj, err := BuildNeighborModel(ctx, edges, true, parts)
	if err != nil {
		return nil, err
	}

	featsName := ctx.ModelName("gs.x")
	type parsedFeat struct {
		ID    int64
		Label int32
		Dim   int
	}
	var feats *ps.Emb
	var featsOnce sync.Once
	var createErr error
	lines := dataflow.TextFile(ctx.Spark, featsPath, parts)
	metaRDD := dataflow.MapPartitions(lines, func(part int, in []string) ([]parsedFeat, error) {
		out := make([]parsedFeat, 0, len(in))
		batch := make(map[int64][]float64, len(in))
		dim := 0
		for _, line := range in {
			if line == "" {
				continue
			}
			id, label, vec, err := parseFeatureLine(line)
			if err != nil {
				return nil, err
			}
			dim = len(vec)
			batch[id] = vec
			out = append(out, parsedFeat{ID: id, Label: label, Dim: dim})
		}
		if len(batch) == 0 {
			return out, nil
		}
		// The embedding model is created lazily once the dimension is
		// known from the data.
		featsOnce.Do(func() {
			feats, createErr = ctx.Agent.CreateEmbedding(ps.EmbeddingSpec{Name: featsName, Dim: dim})
		})
		if createErr != nil {
			return nil, createErr
		}
		if err := feats.PushSet(batch); err != nil {
			return nil, err
		}
		return out, nil
	})
	metas, err := metaRDD.Collect()
	if err != nil {
		return nil, err
	}
	if len(metas) == 0 {
		return nil, fmt.Errorf("core: no feature rows in %s", featsPath)
	}
	data := &GraphSageData{
		Adj:       adj,
		Feats:     feats,
		FeatsName: featsName,
		Labels:    make(map[int64]int32, len(metas)),
		InputDim:  metas[0].Dim,
	}
	for _, m := range metas {
		data.Labels[m.ID] = m.Label
		data.Vertices = append(data.Vertices, m.ID)
	}
	data.PreprocessTime = time.Since(start)
	return data, nil
}

func parseFeatureLine(line string) (int64, int32, []float64, error) {
	fields := strings.Split(line, "\t")
	if len(fields) != 3 {
		return 0, 0, nil, fmt.Errorf("core: malformed feature line %q", line)
	}
	id, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return 0, 0, nil, err
	}
	label, err := strconv.ParseInt(fields[1], 10, 32)
	if err != nil {
		return 0, 0, nil, err
	}
	parts := strings.Split(fields[2], ",")
	vec := make([]float64, len(parts))
	for i, p := range parts {
		vec[i], err = strconv.ParseFloat(p, 64)
		if err != nil {
			return 0, 0, nil, err
		}
	}
	return id, int32(label), vec, nil
}

// GraphSageResult reports training outcomes for Table I.
type GraphSageResult struct {
	TrainAccuracy float64
	TestAccuracy  float64
	// EpochTimes are the wall-clock training times per epoch.
	EpochTimes []time.Duration
	// Losses are the mean training losses per epoch.
	Losses []float64
	// W1Name / W2Name are the PS weight models.
	W1Name, W2Name string
}

// GraphSage trains the 2-layer GraphSage classifier with the weight
// matrices on the parameter server (Fig. 5): the driver initializes the
// model and pushes it to the PS; each executor step pulls the current
// weights, samples a 2-hop neighborhood of its batch from the PS-resident
// adjacency, fetches the features of the sampled vertices, crosses the
// JNI boundary for forward/backward, and pushes the gradients back, where
// server-side Adam applies them.
func GraphSage(ctx *Context, data *GraphSageData, cfg GraphSageConfig) (*GraphSageResult, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	k, err := syncK(cfg.Sync, cfg.Staleness)
	if err != nil {
		return nil, err
	}
	parts := ctx.parts(cfg.Parts)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	// Driver: create and push the initial model (Fig. 5 steps 1-2),
	// including the LSTM aggregator parameters when that architecture is
	// selected.
	model, err := newGSModel(ctx, data, cfg, rng)
	if err != nil {
		return nil, err
	}

	perm := rng.Perm(len(data.Vertices))
	shuffled := make([]int64, len(perm))
	for i, p := range perm {
		shuffled[i] = data.Vertices[p]
	}
	nTrain := int(float64(len(perm)) * gsTrainFrac)
	train, test := shuffled[:nTrain], shuffled[nTrain:]

	res := &GraphSageResult{W1Name: model.w1.Meta.Name, W2Name: model.w2.Meta.Name}
	// A ring that waits needs every participant actually running: the
	// engine schedules one concurrent task per executor, so for k >= 0 the
	// train set is spread over min(parts, executors) workers (see
	// lineTrain). ASP trains on parts.
	workers := parts
	if k >= 0 {
		workers = max(min(workers, ctx.cfg.NumExecutors), 1)
	}
	// One builder per worker slot: a task takes one, resets it and gives it
	// back, so its buffers outlive the task; at most NumExecutors run at once.
	builders := make(chan *batchBuilder, ctx.cfg.NumExecutors)
	for range cap(builders) {
		builders <- &batchBuilder{rng: rand.New(rand.NewSource(0))}
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		trainRDD := dataflow.Parallelize(ctx.Spark, train, workers)
		var lossSum, lossN float64
		var mu sync.Mutex
		epochSeed := cfg.Seed + int64(epoch)*7919
		err := trainRDD.ForeachPartition(func(part int, ids []int64) error {
			bb := (<-builders).reset(data, cfg, epochSeed+int64(part))
			defer func() { builders <- bb }()
			// One ring per epoch; workers retire on completion so a finished
			// partition never stalls stragglers.
			clock := ctx.Agent.SSPClock(fmt.Sprintf("%s/ssp/%d", res.W1Name, epoch), part, workers, k)
			if d := ctx.cfg.LeaseDuration; d > 0 {
				clock.SetLease(d)
			}
			for start := 0; start < len(ids); start += cfg.BatchSize {
				jb, err := bb.build(ids[start:min(start+cfg.BatchSize, len(ids))], true)
				if err != nil {
					return err
				}
				weights, err := model.pull()
				if err != nil {
					return err
				}
				out := model.run(jb, weights)
				if err := model.pushGrads(out); err != nil {
					return err
				}
				mu.Lock()
				lossSum += out.Loss
				lossN++
				mu.Unlock()
				if bb.builds%int32(cfg.WindowBatches) == 0 { // the builder's window is the clock's
					if err := clock.Tick(); err != nil {
						return err
					}
				}
			}
			return clock.Retire()
		})
		if err != nil {
			return nil, err
		}
		res.EpochTimes = append(res.EpochTimes, time.Since(epochStart))
		res.Losses = append(res.Losses, lossSum/max(lossN, 1))
	}

	if res.TrainAccuracy, err = graphSageEvaluate(ctx, data, train, model, cfg, parts, builders); err != nil {
		return nil, err
	}
	if res.TestAccuracy, err = graphSageEvaluate(ctx, data, test, model, cfg, parts, builders); err != nil {
		return nil, err
	}
	return res, nil
}

// graphSageEvaluate computes classification accuracy over ids, a task per
// partition on a builder of the job's: forward passes only (a batch without
// labels is inference on the runtime's side), scored against the driver's
// labels here.
func graphSageEvaluate(ctx *Context, data *GraphSageData, ids []int64, model *gsModel, cfg GraphSageConfig, parts int, builders chan *batchBuilder) (float64, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	weights, err := model.pull()
	if err != nil {
		return 0, err
	}
	rdd := dataflow.Parallelize(ctx.Spark, ids, parts)
	var correct atomic.Int64
	err = rdd.ForeachPartition(func(part int, batchIDs []int64) error {
		bb := (<-builders).reset(data, cfg, cfg.Seed+31*int64(part))
		defer func() { builders <- bb }()
		for start := 0; start < len(batchIDs); start += cfg.BatchSize {
			batch := batchIDs[start:min(start+cfg.BatchSize, len(batchIDs))]
			jb, err := bb.build(batch, false)
			if err != nil {
				return err
			}
			for i, p := range model.run(jb, weights).Preds {
				if p == data.Labels[batch[i]] {
					correct.Add(1)
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(correct.Load()) / float64(len(ids)), nil
}

// batchBuilder assembles the mini-batches of one partition task in
// boundary form (gnn.Batch), flat arrays throughout, in two index spaces.
// X is the window block: the WindowBatches builds of a window share it and
// one id → row table, and each pulls into its tail only the vertices the
// window has not seen — features never change during training, so a window
// reads each row once. Self1 and Nbrs1 are block rows. The layer-1 set
// (batch ∪ hop-1) is numbered in first-occurrence order, distinct batch
// vertices first: Self2 and Nbrs2 are layer-1 indices, and an index below
// the number of distinct batch vertices is a batch vertex. A job keeps one
// builder per worker slot, so the buffers are reused from batch to batch
// and task to task (reset); a built batch is valid until the next build.
type batchBuilder struct {
	data *GraphSageData
	cfg  GraphSageConfig
	rng  *rand.Rand

	win    idTable   // block row of every vertex of the window; order: vertex of every row
	block  []float64 // the window's features, row r = win.order[r]
	builds int32     // batches built; windows are counted in them
	// mark[r] is block row r's layer-1 index in the build that last
	// numbered it; entries of older builds are stale.
	mark  []struct{ build, at int32 }
	order []int64 // vertex of every layer-1 index
	rows  []int32 // block row of every layer-1 index
	samp  []int64 // one vertex's sample, before it becomes rows
	// Sampled neighbourhoods as block rows, one segment per draw: the hop-1
	// draws by batch position, then the hop-2 draws by layer-1 index; nbrs2
	// is the hop-1 draws as layer-1 indices, cut by the same offsets.
	idx, nbrs2, off []int32
	first           []int32   // batch position that introduced each batch vertex
	self2           []int32   // layer-1 index of every batch position
	segs            [][]int32 // Nbrs1, views of idx, then Nbrs2, views of nbrs2
	labels          []int32
}

// reset readies the builder for a task: a fresh rng stream, and no build
// yet, so its first build opens a window and no mark of an earlier task
// matches a build of this one. Its buffers stay.
func (b *batchBuilder) reset(data *GraphSageData, cfg GraphSageConfig, seed int64) *batchBuilder {
	b.rng.Seed(seed)
	b.data, b.cfg, b.builds, b.mark = data, cfg, 0, b.mark[:0]
	return b
}

// index returns the layer-1 index of v, numbering v in the batch, and in the
// window, on first sight.
func (b *batchBuilder) index(v int64) int32 {
	r := b.win.add(v)
	for int(r) >= len(b.mark) {
		b.mark = append(b.mark, struct{ build, at int32 }{})
	}
	if m := &b.mark[r]; m.build != b.builds {
		m.build, m.at = b.builds, int32(len(b.order))
		b.order, b.rows = append(b.order, v), append(b.rows, r)
	}
	return b.mark[r].at
}

// sample draws up to k of ns and appends their block rows as one segment,
// and their layer-1 indices to nbrs2 at hop 1.
func (b *batchBuilder) sample(ns []int64, k int, hop1 bool) {
	b.samp = gnn.SampleK(b.samp[:0], ns, k, b.rng)
	for _, u := range b.samp {
		if hop1 {
			i := b.index(u)
			b.nbrs2, b.idx = append(b.nbrs2, i), append(b.idx, b.rows[i])
		} else {
			b.idx = append(b.idx, b.win.add(u))
		}
	}
	b.off = append(b.off, int32(len(b.idx)))
}

// build samples the 2-hop neighborhood of batch from the PS, pulls the
// features of the vertices that are new to the window, and assembles the
// flat gnn.Batch.
func (b *batchBuilder) build(batch []int64, withLabels bool) (gnn.Batch, error) {
	cfg, nbr := b.cfg, b.data.Adj.Nbr
	if b.builds%int32(cfg.WindowBatches) == 0 {
		b.win.reset(len(batch) * (1 + cfg.FanOut1*(1+cfg.FanOut2)))
	}
	b.builds++
	b.order, b.rows, b.idx, b.nbrs2, b.off = b.order[:0], b.rows[:0], b.idx[:0], b.nbrs2[:0], append(b.off[:0], 0)
	b.first, b.self2, b.segs = b.first[:0], b.self2[:0], b.segs[:0]
	n := len(b.win.order)
	for i, v := range batch {
		j := b.index(v)
		if int(j) == len(b.first) {
			b.first = append(b.first, int32(i))
		}
		b.self2 = append(b.self2, j)
	}
	nBatch := len(b.order)

	// Hop 1: FanOut1 neighbors per batch position.
	adj, err := nbr.PullBatch(batch)
	if err != nil {
		return gnn.Batch{}, err
	}
	for i := range batch {
		b.sample(adj.Nbrs(i), cfg.FanOut1, true)
	}
	nL1 := len(b.order)

	// Hop 2: FanOut2 neighbors per hop-1 vertex that is not itself in the
	// batch (those aggregate their hop-1 draw at layer 1).
	adj, err = nbr.PullBatch(b.order[nBatch:nL1])
	if err != nil {
		return gnn.Batch{}, err
	}
	for i := 0; i < nL1-nBatch; i++ {
		b.sample(adj.Nbrs(i), cfg.FanOut2, false)
	}

	// The window's new vertices took the next block rows, distinct by
	// construction: one positional pull into the block's tail.
	dim, m := b.data.InputDim, len(b.win.order)
	b.block = slices.Grow(b.block[:n*dim], (m-n)*dim)[:m*dim]
	if err := b.data.Feats.PullInto(b.win.order[n:], b.block[n*dim:]); err != nil {
		return gnn.Batch{}, err
	}

	for _, i := range b.first {
		b.segs = append(b.segs, b.idx[b.off[i]:b.off[i+1]])
	}
	for s := len(batch); s < len(b.off)-1; s++ {
		b.segs = append(b.segs, b.idx[b.off[s]:b.off[s+1]])
	}
	for i := range batch {
		b.segs = append(b.segs, b.nbrs2[b.off[i]:b.off[i+1]])
	}
	jb := gnn.Batch{
		X: b.block, NumNodes: m, Dim: dim,
		Self1: b.rows, Nbrs1: b.segs[:nL1],
		Self2: b.self2, Nbrs2: b.segs[nL1:],
		Aggregator: cfg.Aggregator,
	}
	if withLabels {
		b.labels = b.labels[:0]
		for _, v := range batch {
			b.labels = append(b.labels, b.data.Labels[v])
		}
		jb.Labels = b.labels
	}
	return jb, nil
}

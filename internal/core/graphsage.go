package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
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
	// TrainFrac is the train/test split fraction. Defaults to 0.7.
	TrainFrac float64
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
	// WindowBatches is the number of batches per clock window (and per
	// coalesced gradient flush). Defaults to 2.
	WindowBatches int
	// Prefetch routes feature pulls through the client-side row cache.
	// Features are immutable during training, so cached rows are never
	// invalidated — repeat visits to a vertex skip the wire entirely.
	Prefetch bool
	// Coalesce sums weight gradients locally across each window and pushes
	// them once per window instead of once per batch.
	Coalesce bool
}

func (c *GraphSageConfig) setDefaults() error {
	if c.Classes <= 1 {
		return fmt.Errorf("core: GraphSage requires Classes >= 2")
	}
	if c.HiddenDim == 0 {
		c.HiddenDim = 16
	}
	if c.FanOut1 == 0 {
		c.FanOut1 = 10
	}
	if c.FanOut2 == 0 {
		c.FanOut2 = 5
	}
	if c.Epochs == 0 {
		c.Epochs = 5
	}
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.TrainFrac == 0 {
		c.TrainFrac = 0.7
	}
	if c.Aggregator == "" {
		c.Aggregator = "mean"
	}
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
	if parts <= 0 {
		parts = ctx.Partitions()
	}
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
	parts := cfg.Parts
	if parts <= 0 {
		parts = ctx.Partitions()
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	// Driver: create and push the initial model (Fig. 5 steps 1-2),
	// including the LSTM aggregator parameters when that architecture is
	// selected.
	model, err := newGSModel(ctx, data, cfg, rng)
	if err != nil {
		return nil, err
	}

	// Train/test split.
	perm := rng.Perm(len(data.Vertices))
	nTrain := int(float64(len(perm)) * cfg.TrainFrac)
	train := make([]int64, nTrain)
	test := make([]int64, len(perm)-nTrain)
	for i, p := range perm {
		if i < nTrain {
			train[i] = data.Vertices[p]
		} else {
			test[i-nTrain] = data.Vertices[p]
		}
	}

	res := &GraphSageResult{W1Name: model.w1.Meta.Name, W2Name: model.w2.Meta.Name}
	// A ring that waits needs every participant actually running: the
	// engine schedules one concurrent task per executor, so for k >= 0 the
	// train set is spread over min(parts, executors) workers (see
	// lineTrain). ASP trains on parts.
	workers := parts
	if k >= 0 {
		workers = max(min(workers, ctx.cfg.NumExecutors), 1)
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		trainRDD := dataflow.Parallelize(ctx.Spark, train, workers)
		var lossSum, lossN float64
		var mu sync.Mutex
		epochSeed := cfg.Seed + int64(epoch)*7919
		err := trainRDD.ForeachPartition(func(part int, ids []int64) error {
			bb := &batchBuilder{data: data, cfg: cfg, rng: rand.New(rand.NewSource(epochSeed + int64(part)))}
			// One ring per epoch; workers retire on completion so a finished
			// partition never stalls stragglers.
			clock := ctx.Agent.SSPClock(fmt.Sprintf("%s/ssp/%d", res.W1Name, epoch), part, workers, k)
			if d := ctx.cfg.LeaseDuration; d > 0 {
				clock.SetLease(d)
			}
			var accum *gsGradAccum
			if cfg.Coalesce {
				accum = &gsGradAccum{}
			}
			sinceTick := 0
			for start := 0; start < len(ids); start += cfg.BatchSize {
				end := min(start+cfg.BatchSize, len(ids))
				batch := ids[start:end]
				jb, err := bb.build(batch, true)
				if err != nil {
					return err
				}
				weights, err := model.pull()
				if err != nil {
					return err
				}
				out := model.run(jb, weights)
				if accum != nil {
					accum.add(out, cfg.Aggregator == "lstm")
				} else if err := model.pushGrads(out); err != nil {
					return err
				}
				mu.Lock()
				lossSum += out.Loss
				lossN++
				mu.Unlock()
				if sinceTick++; sinceTick >= cfg.WindowBatches {
					if accum != nil {
						if err := model.pushAccum(accum); err != nil {
							return err
						}
					}
					if err := clock.Tick(); err != nil {
						return err
					}
					sinceTick = 0
				}
			}
			if accum != nil {
				if err := model.pushAccum(accum); err != nil {
					return err
				}
			}
			return clock.Retire()
		})
		if err != nil {
			return nil, err
		}
		res.EpochTimes = append(res.EpochTimes, time.Since(epochStart))
		if lossN > 0 {
			res.Losses = append(res.Losses, lossSum/lossN)
		} else {
			res.Losses = append(res.Losses, 0)
		}
	}

	trainAcc, err := graphSageEvaluate(ctx, data, train, model, cfg, parts)
	if err != nil {
		return nil, err
	}
	testAcc, err := graphSageEvaluate(ctx, data, test, model, cfg, parts)
	if err != nil {
		return nil, err
	}
	res.TrainAccuracy = trainAcc
	res.TestAccuracy = testAcc
	return res, nil
}

// graphSageEvaluate computes classification accuracy over ids: forward
// passes only (a batch without labels is inference on the runtime's side),
// scored against the driver's labels here.
func graphSageEvaluate(ctx *Context, data *GraphSageData, ids []int64, model *gsModel, cfg GraphSageConfig, parts int) (float64, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	weights, err := model.pull()
	if err != nil {
		return 0, err
	}
	rdd := dataflow.Parallelize(ctx.Spark, ids, parts)
	var correct, total int
	var mu sync.Mutex
	err = rdd.ForeachPartition(func(part int, batchIDs []int64) error {
		bb := &batchBuilder{data: data, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed + 31*int64(part)))}
		for start := 0; start < len(batchIDs); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(batchIDs))
			batch := batchIDs[start:end]
			jb, err := bb.build(batch, false)
			if err != nil {
				return err
			}
			hit := 0
			for i, p := range model.run(jb, weights).Preds {
				if p == data.Labels[batch[i]] {
					hit++
				}
			}
			mu.Lock()
			correct += hit
			total += len(batch)
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(correct) / float64(total), nil
}

// batchBuilder assembles the mini-batches of one partition task in
// boundary form (torch.go): two neighbour pulls, one feature pull, flat
// arrays throughout. Rows of the feature matrix are handed out in
// first-occurrence order — the distinct batch vertices, then the distinct
// new hop-1 samples, then the distinct new hop-2 samples — so the layer-1
// set (batch ∪ hop-1) is exactly the first rows: a layer-1 vertex's
// feature row is its layer-1 index, and a row below the number of distinct
// batch vertices is a batch vertex. The builder's tables and buffers are
// reused from batch to batch and die with the task; a built batch is valid
// until the next build.
type batchBuilder struct {
	data *GraphSageData
	cfg  GraphSageConfig
	rng  *rand.Rand

	// Open-addressed id → row table of the batch under construction, a
	// power of two wide; rows are stored +1, so a cleared table is empty.
	keys  []int64
	rows  []int32
	shift uint

	order []int64   // vertex of every feature row
	feats []float64 // block the features are pulled into, row i = order[i]
	samp  []int64   // one vertex's sample, before it becomes rows
	// Sampled neighbourhoods as feature rows, one segment per draw: the
	// hop-1 draws by batch position, then the hop-2 draws by layer-1 row.
	idx, off []int32
	first    []int32   // batch position that introduced each batch row
	self2    []int32   // row of every batch position
	ident    []int32   // 0, 1, 2, …
	segs     [][]int32 // Nbrs1 then Nbrs2, views of idx
	labels   []int32
}

// reset empties the builder for a batch that touches at most maxIDs
// vertices, keeping the table at most half full.
func (b *batchBuilder) reset(maxIDs int) {
	if lg := bits.Len(uint(2*maxIDs - 1)); 1<<lg > len(b.rows) {
		b.keys, b.rows, b.shift = make([]int64, 1<<lg), make([]int32, 1<<lg), uint(64-lg)
	} else {
		clear(b.rows)
	}
	b.order, b.idx, b.off = b.order[:0], b.idx[:0], append(b.off[:0], 0)
	b.first, b.self2, b.segs = b.first[:0], b.self2[:0], b.segs[:0]
}

// row returns the feature row of v, giving it the next one on first sight.
func (b *batchBuilder) row(v int64) int32 {
	mask := uint64(len(b.rows) - 1)
	i := (uint64(v) * 0x9e3779b97f4a7c15) >> b.shift
	for ; b.rows[i] != 0; i = (i + 1) & mask {
		if b.keys[i] == v {
			return b.rows[i] - 1
		}
	}
	b.order = append(b.order, v)
	b.keys[i], b.rows[i] = v, int32(len(b.order))
	return int32(len(b.order) - 1)
}

// sample draws up to k of ns and appends their rows as one segment.
func (b *batchBuilder) sample(ns []int64, k int) {
	b.samp = gnn.SampleK(b.samp[:0], ns, k, b.rng)
	for _, u := range b.samp {
		b.idx = append(b.idx, b.row(u))
	}
	b.off = append(b.off, int32(len(b.idx)))
}

// seg returns the s-th drawn segment.
func (b *batchBuilder) seg(s int) []int32 { return b.idx[b.off[s]:b.off[s+1]] }

// build samples the 2-hop neighborhood of batch from the PS, pulls the
// features of every touched vertex once, and assembles the flat jniBatch.
func (b *batchBuilder) build(batch []int64, withLabels bool) (jniBatch, error) {
	cfg, nbr := b.cfg, b.data.Adj.Nbr
	b.reset(len(batch) * (1 + cfg.FanOut1*(1+cfg.FanOut2)))
	for i, v := range batch {
		n := len(b.order)
		r := b.row(v)
		if int(r) == n {
			b.first = append(b.first, int32(i))
		}
		b.self2 = append(b.self2, r)
	}
	nBatch := len(b.order)

	// Hop 1: FanOut1 neighbors per batch position.
	adj, err := nbr.PullBatch(batch)
	if err != nil {
		return jniBatch{}, err
	}
	for i := range batch {
		b.sample(adj.Nbrs(i), cfg.FanOut1)
	}
	nL1 := len(b.order)

	// Hop 2: FanOut2 neighbors per hop-1 vertex that is not itself in the
	// batch (those aggregate their hop-1 draw at layer 1).
	adj, err = nbr.PullBatch(b.order[nBatch:nL1])
	if err != nil {
		return jniBatch{}, err
	}
	for i := 0; i < nL1-nBatch; i++ {
		b.sample(adj.Nbrs(i), cfg.FanOut2)
	}

	// Features never change during training, so the prefetch cache needs
	// no invalidation: a vertex sampled twice costs one wire pull total.
	// order holds distinct ids, so the pulled block — row i = order[i] — is
	// the feature matrix as it stands: pulled positionally, into the
	// builder's own block unless the row cache hands one out.
	dim := b.data.InputDim
	var x []float64
	if cfg.Prefetch {
		var feats ps.RowBatch
		feats, _, err = b.data.Feats.PrefetchRows(b.order).Batch()
		if err == nil && (feats.Dim != dim || len(feats.IDs) != len(b.order)) {
			err = fmt.Errorf("core: pulled %d feature rows of width %d for %d vertices of width %d",
				len(feats.IDs), feats.Dim, len(b.order), dim)
		}
		x = feats.Data
	} else {
		b.feats = slices.Grow(b.feats[:0], len(b.order)*dim)[:len(b.order)*dim]
		x = b.feats
		err = b.data.Feats.PullInto(b.order, x)
	}
	if err != nil {
		return jniBatch{}, err
	}

	for len(b.ident) < nL1 {
		b.ident = append(b.ident, int32(len(b.ident)))
	}
	for _, i := range b.first {
		b.segs = append(b.segs, b.seg(int(i)))
	}
	for s := len(batch); s < len(b.off)-1; s++ {
		b.segs = append(b.segs, b.seg(s))
	}
	for i := range batch {
		b.segs = append(b.segs, b.seg(i))
	}
	jb := jniBatch{
		X: x, NumNodes: len(b.order), Dim: dim,
		Self1: b.ident[:nL1], Nbrs1: b.segs[:nL1],
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

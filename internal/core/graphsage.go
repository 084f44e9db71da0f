package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"psgraph/internal/dataflow"
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

	// Sync selects the synchronization mode: "" keeps the legacy loop
	// (partition tasks unsynchronized within an epoch, the action boundary
	// as the epoch barrier); "ssp" adds a bounded-staleness clock per
	// window of batches; "asp" ticks the clock without ever waiting. "bsp"
	// normalizes to "ssp" with Staleness 0.
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
	if c.Sync == "bsp" {
		c.Sync = "ssp"
		c.Staleness = 0
	}
	if c.Sync != "" && c.Sync != "ssp" && c.Sync != "asp" {
		return fmt.Errorf("core: GraphSage sync must be \"\", \"bsp\", \"ssp\" or \"asp\", got %q", c.Sync)
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
	// The relaxed modes need every clock participant actually running: the
	// engine schedules one concurrent task per executor, so the train set
	// is spread over min(parts, executors) workers (see lineTrainRelaxed).
	relaxed := cfg.Sync != ""
	workers := parts
	if relaxed {
		if e := ctx.cfg.NumExecutors; workers > e {
			workers = e
		}
		if workers < 1 {
			workers = 1
		}
	}
	k := cfg.Staleness
	if cfg.Sync == "asp" {
		k = -1
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		trainRDD := dataflow.Parallelize(ctx.Spark, train, workers)
		var lossSum, lossN float64
		var mu sync.Mutex
		epochSeed := cfg.Seed + int64(epoch)*7919
		err := trainRDD.ForeachPartition(func(part int, ids []int64) error {
			prng := rand.New(rand.NewSource(epochSeed + int64(part)))
			var clock *ps.SSPClock
			if relaxed {
				// One ring per epoch; workers retire on completion so a
				// finished partition never stalls stragglers.
				clock = ctx.Agent.SSPClock(fmt.Sprintf("%s/ssp/%d", res.W1Name, epoch), part, workers, k)
				if d := ctx.cfg.LeaseDuration; d > 0 {
					clock.SetLease(d)
				}
			}
			var accum *gsGradAccum
			if cfg.Coalesce {
				accum = &gsGradAccum{}
			}
			sinceTick := 0
			for start := 0; start < len(ids); start += cfg.BatchSize {
				end := min(start+cfg.BatchSize, len(ids))
				batch := ids[start:end]
				jb, err := buildBatch(ctx, data, batch, cfg, prng, true)
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
					if clock != nil {
						if err := clock.Tick(); err != nil {
							return err
						}
					}
					sinceTick = 0
				}
			}
			if accum != nil {
				if err := model.pushAccum(accum); err != nil {
					return err
				}
			}
			if clock != nil {
				return clock.Retire()
			}
			return nil
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

// graphSageEvaluate computes classification accuracy over ids.
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
		prng := rand.New(rand.NewSource(cfg.Seed + 31*int64(part)))
		for start := 0; start < len(batchIDs); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(batchIDs))
			batch := batchIDs[start:end]
			jb, err := buildBatch(ctx, data, batch, cfg, prng, true)
			if err != nil {
				return err
			}
			out := model.run(jb, weights)
			mu.Lock()
			correct += out.Correct
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

// buildBatch samples the 2-hop neighborhood of batch from the PS, pulls
// the features of every touched vertex, and assembles the flat jniBatch.
func buildBatch(ctx *Context, data *GraphSageData, batch []int64, cfg GraphSageConfig, rng *rand.Rand, withLabels bool) (jniBatch, error) {
	// Hop 1: sample FanOut1 neighbors per batch vertex.
	adj1, err := data.Adj.Nbr.Pull(batch)
	if err != nil {
		return jniBatch{}, err
	}
	samples1 := make([][]int64, len(batch))
	s1Set := make(map[int64]bool)
	for i, v := range batch {
		samples1[i] = sampleK(adj1[v], cfg.FanOut1, rng)
		for _, u := range samples1[i] {
			s1Set[u] = true
		}
	}
	s1 := make([]int64, 0, len(s1Set))
	for u := range s1Set {
		s1 = append(s1, u)
	}
	// Hop 2: sample FanOut2 neighbors per hop-1 vertex.
	adj2, err := data.Adj.Nbr.Pull(s1)
	if err != nil {
		return jniBatch{}, err
	}
	samples2 := make(map[int64][]int64, len(s1))
	for _, u := range s1 {
		samples2[u] = sampleK(adj2[u], cfg.FanOut2, rng)
	}

	// Feature rows for every vertex touched.
	rowOf := make(map[int64]int32)
	var order []int64
	touch := func(v int64) {
		if _, ok := rowOf[v]; !ok {
			rowOf[v] = int32(len(order))
			order = append(order, v)
		}
	}
	for _, v := range batch {
		touch(v)
	}
	for _, u := range s1 {
		touch(u)
		for _, w := range samples2[u] {
			touch(w)
		}
	}
	for i := range batch {
		for _, u := range samples1[i] {
			touch(u)
		}
	}
	// Features never change during training, so the prefetch cache needs
	// no invalidation: a vertex sampled twice costs one wire pull total.
	// order holds distinct ids, so the pulled block — row i = order[i] — is
	// the feature matrix as it stands.
	var feats ps.RowBatch
	if cfg.Prefetch {
		feats, _, err = data.Feats.PrefetchRows(order).Batch()
	} else {
		feats, _, err = data.Feats.PullBatch(order)
	}
	if err != nil {
		return jniBatch{}, err
	}
	dim := data.InputDim
	if feats.Dim != dim || len(feats.IDs) != len(order) {
		return jniBatch{}, fmt.Errorf("core: pulled %d feature rows of width %d for %d vertices of width %d",
			len(feats.IDs), feats.Dim, len(order), dim)
	}
	x := feats.Data

	// Layer-1 set: batch ∪ s1, each aggregating raw features of its
	// sampled neighbors.
	h1RowOf := make(map[int64]int32)
	var l1Order []int64
	touchL1 := func(v int64) {
		if _, ok := h1RowOf[v]; !ok {
			h1RowOf[v] = int32(len(l1Order))
			l1Order = append(l1Order, v)
		}
	}
	for _, v := range batch {
		touchL1(v)
	}
	for _, u := range s1 {
		touchL1(u)
	}
	self1 := make([]int32, len(l1Order))
	nbrs1 := make([][]int32, len(l1Order))
	for i, v := range l1Order {
		self1[i] = rowOf[v]
		var ns []int64
		if bi := indexOf(batch, v); bi >= 0 {
			ns = samples1[bi]
		} else {
			ns = samples2[v]
		}
		rows := make([]int32, len(ns))
		for j, u := range ns {
			rows[j] = rowOf[u]
		}
		nbrs1[i] = rows
	}

	// Layer-2 set: the batch, aggregating h1 of its hop-1 samples.
	self2 := make([]int32, len(batch))
	nbrs2 := make([][]int32, len(batch))
	for i, v := range batch {
		self2[i] = h1RowOf[v]
		rows := make([]int32, len(samples1[i]))
		for j, u := range samples1[i] {
			rows[j] = h1RowOf[u]
		}
		nbrs2[i] = rows
	}

	jb := jniBatch{
		X: x, NumNodes: len(order), Dim: dim,
		Self1: self1, Nbrs1: nbrs1,
		Self2: self2, Nbrs2: nbrs2,
		Aggregator: cfg.Aggregator,
	}
	if withLabels {
		labels := make([]int32, len(batch))
		for i, v := range batch {
			labels[i] = data.Labels[v]
		}
		jb.Labels = labels
	}
	return jb, nil
}

// indexOf returns the position of v in xs or -1. Batches are small, so a
// linear scan beats a map here.
func indexOf(xs []int64, v int64) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// sampleK draws min(k, len(ns)) distinct neighbors uniformly.
func sampleK(ns []int64, k int, rng *rand.Rand) []int64 {
	if len(ns) <= k {
		out := make([]int64, len(ns))
		copy(out, ns)
		return out
	}
	cp := make([]int64, len(ns))
	copy(cp, ns)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(cp)-i)
		cp[i], cp[j] = cp[j], cp[i]
	}
	return cp[:k]
}

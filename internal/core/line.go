package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"psgraph/internal/dataflow"
	"psgraph/internal/ps"
)

// LineConfig tunes the LINE graph-embedding trainer of Sec. IV-D.
type LineConfig struct {
	// Dim is the embedding dimension. Defaults to 32 (the paper uses 128
	// for the DS1 run).
	Dim int
	// Order selects first-order (1) or second-order (2) proximity.
	// Defaults to 2.
	Order int
	// Epochs over the edge set. Defaults to 1.
	Epochs int
	// BatchSize is the number of edges per training step. Defaults to 512.
	BatchSize int
	// NegSamples is the number of negative samples per edge. Defaults to 5.
	NegSamples int
	// LR is the SGD learning rate. Defaults to 0.025.
	LR float64
	// Parts overrides the RDD partition count.
	Parts int
	// Seed makes negative sampling reproducible.
	Seed int64
	// PullVectors disables the psFunc dot-product optimization: executors
	// pull whole embedding vectors, compute gradients locally and push
	// updates back. This is the unoptimized strawman of Sec. IV-D, kept
	// for the ablation benchmark.
	PullVectors bool

	// Sync selects how the workers of the one training loop — every epoch
	// inside one dataflow action, a clock tick per window of mini-batches —
	// wait for each other. "" and "asp" never wait and send no clock
	// traffic (ASP), on the caller's partitions; "bsp" is lock-step (a
	// staleness-0 clock ring) and "ssp" bounds the spread at Staleness
	// windows, both on min(Parts, executors) workers, since every member of
	// a waiting ring must be running.
	Sync string
	// Staleness is the SSP bound k: the fastest worker may run at most k
	// clock windows ahead of the slowest. Only meaningful with Sync "ssp".
	Staleness int
	// WindowBatches is the number of mini-batches per clock window.
	// Defaults to 4.
	WindowBatches int
	// Prefetch pipelines the next batch's row pulls under the current
	// batch's gradient math, through a versioned client-side row cache that
	// is invalidated on every clock advance (PullVectors path only; the
	// psFunc path moves no rows to prefetch).
	Prefetch bool
	// Coalesce merges adjacent row pushes locally (sum-combine) and sends
	// one wire message per partition per CoalesceWindow batches
	// (PullVectors path only).
	Coalesce bool
	// CoalesceWindow is the number of pushes merged per flush. Defaults to
	// WindowBatches; the coalescer always flushes before a clock advance.
	CoalesceWindow int
}

func (c *LineConfig) setDefaults() {
	c.Dim = cmp.Or(c.Dim, 32)
	c.Order = cmp.Or(c.Order, 2)
	c.Epochs = cmp.Or(c.Epochs, 1)
	c.BatchSize = cmp.Or(c.BatchSize, 512)
	c.NegSamples = cmp.Or(c.NegSamples, 5)
	c.LR = cmp.Or(c.LR, 0.025)
	if c.WindowBatches <= 0 {
		c.WindowBatches = 4
	}
	if c.CoalesceWindow <= 0 {
		c.CoalesceWindow = c.WindowBatches
	}
}

// LineResult exposes the trained embeddings.
type LineResult struct {
	// Emb is the PS-resident embedding model (column-partitioned).
	Emb *ps.Emb
	// EmbName / CtxName are the model names (CtxName empty for order 1).
	EmbName, CtxName string
	// Epochs actually run.
	Epochs int
}

// Embedding pulls the final embedding vectors of the given vertices.
func (r *LineResult) Embedding(ids []int64) (map[int64][]float64, error) {
	return r.Emb.Pull(ids)
}

// Line trains LINE embeddings with both models column-partitioned on the
// parameter server so that the same dimensions of the embedding and
// context vectors are co-located (Fig. 4, right). Each training step:
//
//  1. the executor assembles a batch of positive edges plus NegSamples
//     degree^0.75-distributed negatives per edge,
//  2. partial dot products are computed *on the servers* via the
//     core.lineDot psFunc and merged on the executor,
//  3. the executor computes the logistic-loss coefficients and sends them
//     back via core.lineUpdate, which applies the SGD update server-side.
//
// Only pair ids and one float per pair cross the network, instead of
// 2·Dim floats per pair — the communication optimization the paper
// introduces psFunc for.
func Line(ctx *Context, edges *dataflow.RDD[Edge], cfg LineConfig) (*LineResult, error) {
	cfg.setDefaults()
	if cfg.Order != 1 && cfg.Order != 2 {
		return nil, fmt.Errorf("core: LINE order must be 1 or 2, got %d", cfg.Order)
	}
	k, err := syncK(cfg.Sync, cfg.Staleness)
	if err != nil {
		return nil, err
	}
	parts := ctx.parts(cfg.Parts)

	embName := ctx.ModelName("line.emb")
	initScale := 0.5 / float64(cfg.Dim)
	emb, err := ctx.Agent.CreateEmbedding(ps.EmbeddingSpec{
		Name: embName, Dim: cfg.Dim, ByColumn: true, InitScale: initScale,
	})
	if err != nil {
		return nil, err
	}
	otherName := embName
	ctxName := ""
	if cfg.Order == 2 {
		ctxName = ctx.ModelName("line.ctx")
		otherName = ctxName
		if _, err := ctx.Agent.CreateEmbedding(ps.EmbeddingSpec{
			Name: ctxName, Dim: cfg.Dim, ByColumn: true, InitScale: initScale,
		}); err != nil {
			return nil, err
		}
	}

	sampler, err := newDegreeSampler(edges, parts)
	if err != nil {
		return nil, err
	}

	if err := lineTrain(ctx, edges, cfg, k, embName, otherName, sampler, parts); err != nil {
		return nil, err
	}
	return &LineResult{Emb: emb, EmbName: embName, CtxName: ctxName, Epochs: cfg.Epochs}, nil
}

// lineBatch is one prepared mini-batch: the pairs as two id columns
// (us[i], vs[i]) with their labels — the shape the psFunc argument, the
// row pulls and lineGrads all take — plus, when prefetching, the row pulls
// already in flight underneath the previous batch's gradient math.
type lineBatch struct {
	us, vs     []int64
	labels     []float64
	uPre, vPre *ps.Prefetch
}

// newLineBatch expands edges into training pairs: each positive pair is
// followed by its negatives, which share its U — so the columns hold
// runs of 1 + negSamples equal U ids (fewer where a draw hit the positive
// and was dropped). The servers' row lookup resolves emb[U] once per run.
func newLineBatch(edges []Edge, negSamples int, sampler *degreeSampler, rng *rand.Rand) *lineBatch {
	n := len(edges) * (1 + negSamples)
	b := &lineBatch{us: make([]int64, 0, n), vs: make([]int64, 0, n), labels: make([]float64, 0, n)}
	for _, e := range edges {
		b.add(e.Src, e.Dst, 1)
		for k := 0; k < negSamples; k++ {
			if neg := sampler.sample(rng); neg != e.Dst {
				b.add(e.Src, neg, 0)
			}
		}
	}
	return b
}

func (b *lineBatch) add(u, v int64, label float64) {
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.labels = append(b.labels, label)
}

// lineTrain runs every epoch inside ONE dataflow action with a clock tick
// per window of mini-batches: k = 0 is lock-step BSP, k > 0 bounded
// staleness, k < 0 ASP (no ring, no clock traffic).
//
// A ring that waits needs every participant actually running, and the
// dataflow engine schedules one concurrent task per executor, so for
// k >= 0 the edge set is repartitioned to min(parts, executors) workers —
// otherwise a queued task's frozen clock would stall the ring forever. ASP
// trains on the caller's partitions as given.
//
// Overlap machinery, both PullVectors-path only (the psFunc path moves no
// rows for the client to prefetch or coalesce):
//
//   - Prefetch issues the NEXT batch's row pulls under the current
//     batch's gradient math, through the versioned client row cache. The
//     pipeline never crosses a clock advance — rows pulled in window c
//     must not serve window c+1 — and the caches are invalidated from the
//     clock's OnAdvance hook.
//   - Coalesce buffers row updates locally (sum-combine) and flushes one
//     wire message per partition per CoalesceWindow batches, always
//     flushing before a clock advance so peers observe the window's
//     updates once their own clock admits them.
func lineTrain(ctx *Context, edges *dataflow.RDD[Edge], cfg LineConfig, k int, embName, otherName string, sampler *degreeSampler, parts int) error {
	if k >= 0 {
		all, err := edges.Collect()
		if err != nil {
			return err
		}
		edges = dataflow.Parallelize(ctx.Spark, all, max(min(ctx.cfg.NumExecutors, parts), 1))
	}
	workers := edges.NumPartitions()
	tag := embName + "/ssp"
	overlap := cfg.Prefetch && cfg.PullVectors
	return edges.ForeachPartition(func(worker int, in []Edge) error {
		eh, oh, err := lineHandles(ctx, embName, otherName)
		if err != nil {
			return err
		}
		clock := ctx.Agent.SSPClock(tag, worker, workers, k)
		if d := ctx.cfg.LeaseDuration; d > 0 {
			clock.SetLease(d)
		}
		if overlap {
			clock.OnAdvance(eh.InvalidateRows)
			if oh != eh {
				clock.OnAdvance(oh.InvalidateRows)
			}
		}
		var uCo, vCo *ps.Coalescer
		if cfg.Coalesce && cfg.PullVectors {
			uCo = eh.Coalescer(cfg.CoalesceWindow, false)
			vCo = oh.Coalescer(cfg.CoalesceWindow, false)
		}
		tick := func() error {
			if uCo != nil {
				if err := uCo.Flush(); err != nil {
					return err
				}
				if err := vCo.Flush(); err != nil {
					return err
				}
			}
			return clock.Tick()
		}
		prepare := func(batch []Edge, rng *rand.Rand, prefetch bool) *lineBatch {
			b := newLineBatch(batch, cfg.NegSamples, sampler, rng)
			if prefetch {
				b.uPre = eh.PrefetchRows(b.us)
				b.vPre = oh.PrefetchRows(b.vs)
			}
			return b
		}
		sinceTick := 0
		var next *lineBatch
		var upd [2][]float64 // lineGrads' update blocks, reused batch after batch
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(epoch)*1000003 + int64(worker)))
			for start := 0; start < len(in); start += cfg.BatchSize {
				end := min(start+cfg.BatchSize, len(in))
				cur := next
				next = nil
				if cur == nil {
					cur = prepare(in[start:end], rng, overlap)
				}
				// Issue the next batch's pulls before computing this one, but
				// never across the upcoming clock advance.
				if overlap && sinceTick+1 < cfg.WindowBatches {
					if nstart := start + cfg.BatchSize; nstart < len(in) {
						next = prepare(in[nstart:min(nstart+cfg.BatchSize, len(in))], rng, true)
					}
				}
				if cfg.PullVectors {
					err = lineStepRelaxed(eh, oh, cur, uCo, vCo, cfg.LR, &upd)
				} else {
					err = lineStepPSFunc(ctx, embName, otherName, cur, cfg.LR)
				}
				if err != nil {
					return err
				}
				if sinceTick++; sinceTick >= cfg.WindowBatches {
					if err := tick(); err != nil {
						return err
					}
					sinceTick = 0
				}
			}
			// Epoch boundaries are always window edges.
			if sinceTick > 0 {
				if err := tick(); err != nil {
					return err
				}
				sinceTick = 0
			}
		}
		// Completed workers leave the ring so stragglers never wait on them.
		return clock.Retire()
	})
}

// lineStepRelaxed is the unoptimized step — pull every needed vector,
// compute locally, push updates (2·Dim floats per pair each way) — fed
// from the pipeline: rows come from the in-flight prefetch when one was
// issued, and updates go through the coalescers when coalescing is on.
func lineStepRelaxed(eh, oh *ps.Emb, b *lineBatch, uCo, vCo *ps.Coalescer, lr float64, upd *[2][]float64) error {
	var u, v pulledRows
	var err error
	if b.uPre != nil {
		// The blocks go back to their handles when the step returns: by then
		// the pushes, whose batches alias the pulled ids, have kept nothing.
		defer b.uPre.Release()
		defer b.vPre.Release()
		if u.rows, u.pos, err = b.uPre.Batch(); err != nil {
			return err
		}
		if v.rows, v.pos, err = b.vPre.Batch(); err != nil {
			return err
		}
	} else {
		if u.rows, u.pos, err = eh.PullBatch(b.us); err != nil {
			return err
		}
		if v.rows, v.pos, err = oh.PullBatch(b.vs); err != nil {
			return err
		}
	}
	uUpd, vUpd := lineGrads(b, u, v, lr, upd)
	if uCo != nil {
		if err := uCo.PushBatch(uUpd); err != nil {
			return err
		}
		return vCo.PushBatch(vUpd)
	}
	if err := eh.PushAddBatch(uUpd); err != nil {
		return err
	}
	return oh.PushAddBatch(vUpd)
}

// lineStepPSFunc runs one SGD step with server-side dot products and
// updates. The pair columns are encoded once: the update argument is the
// dot argument plus the coefficients.
func lineStepPSFunc(ctx *Context, embName, otherName string, b *lineBatch, lr float64) error {
	n := len(b.us)
	// Room for the coefficient block, so the update append stays in place.
	arg := appendLinePairs(make([]byte, 0, 32+len(otherName)+14*n), otherName, b.us, b.vs)
	outs, err := ctx.Agent.CallFunc(embName, "core.lineDot", func(ps.Partition) []byte { return arg })
	if err != nil {
		return err
	}
	g := make([]float64, n) // summed dots, then coefficients
	var partial []float64
	for pi, o := range outs {
		r := ps.NewArgReader(o)
		partial = r.F64sInto(partial)
		if err := r.Close(); err != nil {
			return err
		}
		if len(partial) != n {
			return fmt.Errorf("core: lineDot on partition %d of %s returned %d dots for %d pairs", pi, embName, len(partial), n)
		}
		for i, d := range partial {
			g[i] += d
		}
	}
	for i, dot := range g {
		g[i] = lr * (b.labels[i] - sigmoid(dot))
	}
	upd := ps.AppendArgF64s(arg, g)
	_, err = ctx.Agent.CallFunc(embName, "core.lineUpdate", func(ps.Partition) []byte { return upd })
	return err
}

// lineHandles resolves the embedding model and the other model (the same
// handle under first-order proximity).
func lineHandles(ctx *Context, embName, otherName string) (eh, oh *ps.Emb, err error) {
	if eh, err = ctx.Agent.Embedding(embName); err != nil || otherName == embName {
		return eh, eh, err
	}
	oh, err = ctx.Agent.Embedding(otherName)
	return eh, oh, err
}

// pulledRows is one id column of a batch as the PS returned it: the
// distinct rows, and for pair i the row pos[i] that holds its id.
type pulledRows struct {
	rows ps.RowBatch
	pos  []int32
}

// lineGrads computes the logistic-loss row updates for a batch from
// pulled embedding (u) and context (v) rows. The updates are batches
// parallel to the pulled ones — one zero-initialised row per distinct id
// — so a pair finds its rows and its update rows by position, not by id.
// Their blocks are upd's, zeroed and grown as needed: a push keeps nothing
// of the batch it is given (DESIGN.md §11), so the next step may overwrite
// them.
func lineGrads(b *lineBatch, u, v pulledRows, lr float64, upd *[2][]float64) (uUpd, vUpd ps.RowBatch) {
	for k, n := range [2]int{len(u.rows.Data), len(v.rows.Data)} {
		upd[k] = slices.Grow(upd[k][:0], n)[:n]
		clear(upd[k])
	}
	uUpd = ps.RowBatch{IDs: u.rows.IDs, Dim: u.rows.Dim, Data: upd[0]}
	vUpd = ps.RowBatch{IDs: v.rows.IDs, Dim: v.rows.Dim, Data: upd[1]}
	for i := range b.us {
		ui, vi := int(u.pos[i]), int(v.pos[i])
		urow, vrow := u.rows.Row(ui), v.rows.Row(vi)
		vrow = vrow[:len(urow)]
		var dot float64
		for j := range urow {
			dot += urow[j] * vrow[j]
		}
		g := lr * (b.labels[i] - sigmoid(dot))
		du, dv := uUpd.Row(ui), vUpd.Row(vi)
		for j := range urow {
			du[j] += g * vrow[j]
			dv[j] += g * urow[j]
		}
	}
	return uUpd, vUpd
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// degreeSampler draws negative samples from the unigram^0.75 distribution
// over destination vertices, the noise distribution of LINE/word2vec. It
// uses Walker's alias method (Vose's construction), so each draw costs
// O(1) — two uniforms and two array reads — instead of a binary search
// over a cumulative-sum table. With NegSamples draws per edge this is the
// single hottest loop on the executor side of LINE training.
type degreeSampler struct {
	ids   []int64
	prob  []float64 // acceptance threshold for column i
	alias []int32   // fallback column when the coin flip rejects
}

func newDegreeSampler(edges *dataflow.RDD[Edge], parts int) (*degreeSampler, error) {
	degs := dataflow.ReduceByKey(
		dataflow.Map(edges, func(e Edge) dataflow.KV[int64, int64] {
			return dataflow.KV[int64, int64]{K: e.Dst, V: 1}
		}),
		func(a, b int64) int64 { return a + b }, parts)
	all, err := degs.Collect()
	if err != nil {
		return nil, err
	}
	sort.Slice(all, func(i, j int) bool { return all[i].K < all[j].K })
	ids := make([]int64, len(all))
	weights := make([]float64, len(all))
	for i, kv := range all {
		ids[i] = kv.K
		weights[i] = math.Pow(float64(kv.V), 0.75)
	}
	return newAliasSampler(ids, weights), nil
}

// newAliasSampler builds the alias table with Vose's O(n) construction:
// scale weights to mean 1, then repeatedly pair an underfull column with
// an overfull one so every column ends up holding exactly one unit —
// partly its own mass, the rest pointing at its alias.
func newAliasSampler(ids []int64, weights []float64) *degreeSampler {
	n := len(ids)
	s := &degreeSampler{ids: ids, prob: make([]float64, n), alias: make([]int32, n)}
	var total float64
	for _, w := range weights {
		total += w
	}
	if n == 0 || total <= 0 {
		for i := range s.prob {
			s.prob[i] = 1
			s.alias[i] = int32(i)
		}
		return s
	}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		s.prob[l] = scaled[l]
		s.alias[l] = g
		scaled[g] -= 1 - scaled[l]
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	// Leftovers are exactly 1 up to rounding error; accept them outright.
	for _, i := range large {
		s.prob[i] = 1
		s.alias[i] = i
	}
	for _, i := range small {
		s.prob[i] = 1
		s.alias[i] = i
	}
	return s
}

func (s *degreeSampler) sample(rng *rand.Rand) int64 {
	if len(s.ids) == 0 {
		return 0
	}
	i := rng.Intn(len(s.ids))
	if rng.Float64() < s.prob[i] {
		return s.ids[i]
	}
	return s.ids[s.alias[i]]
}

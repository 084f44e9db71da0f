package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
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
	// Prefetch pulls each model's rows for a whole clock window in one pull
	// of the window's distinct ids, before its first batch, instead of one
	// pull per batch (PullVectors path only; the psFunc path moves no rows).
	Prefetch bool
	// Coalesce sums a clock window's row updates on the worker and sends
	// them in one push per model after its last batch, instead of one push
	// per batch (PullVectors path only).
	Coalesce bool
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
	parts := ctx.Partitions()
	res, err := lineModels(ctx, "line", cfg.Dim, cfg.Order == 2, cfg.Epochs)
	if err != nil {
		return nil, err
	}
	sampler, err := newDegreeSampler(edges, parts)
	if err != nil {
		return nil, err
	}
	otherName := cmp.Or(res.CtxName, res.EmbName)
	if err := lineTrain(ctx, edges, cfg, k, res.EmbName, otherName, sampler, parts); err != nil {
		return nil, err
	}
	return res, nil
}

// lineModels creates the column-partitioned embedding model of a LINE or
// DeepWalk run named after prefix and, for second order, its context
// model: the same dimensions of both are co-located.
func lineModels(ctx *Context, prefix string, dim int, second bool, epochs int) (*LineResult, error) {
	spec := ps.EmbeddingSpec{Name: ctx.ModelName(prefix + ".emb"), Dim: dim, ByColumn: true, InitScale: 0.5 / float64(dim)}
	emb, err := ctx.Agent.CreateEmbedding(spec)
	res := &LineResult{Emb: emb, EmbName: spec.Name, Epochs: epochs}
	if err == nil && second {
		spec.Name = ctx.ModelName(prefix + ".ctx")
		res.CtxName = spec.Name
		_, err = ctx.Agent.CreateEmbedding(spec)
	}
	return res, err
}

// lineBatch is a clock window's prepared mini-batches: the pairs of all of
// them as two id columns (us[i], vs[i]) with their labels — the shape the
// psFunc argument, the row pulls and lineGrads all take — and where each
// batch's pairs end. The worker refills it window after window.
type lineBatch struct {
	us, vs []int64
	labels []float64
	ends   []int
}

// addBatch appends a batch of edges as training pairs: each positive pair
// is followed by its negatives, which share its U — so the columns hold
// runs of 1 + negSamples equal U ids (fewer where a draw hit the positive
// and was dropped). The servers' row lookup resolves emb[U] once per run.
func (b *lineBatch) addBatch(edges []Edge, negSamples int, sampler *degreeSampler, rng *rand.Rand) {
	for _, e := range edges {
		b.add(e.Src, e.Dst, 1)
		for k := 0; k < negSamples; k++ {
			if neg := sampler.sample(rng); neg != e.Dst {
				b.add(e.Src, neg, 0)
			}
		}
	}
	b.ends = append(b.ends, len(b.us))
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
// A window's batches are drawn before any trains, with the same draws as one
// batch at a time; the PullVectors path then trains them in lineRows.window.
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
	span := cfg.WindowBatches * cfg.BatchSize
	return edges.ForeachPartition(func(worker int, in []Edge) error {
		eh, err := ctx.Agent.Embedding(embName)
		oh := eh // the same model under first-order proximity
		if err == nil && otherName != embName {
			oh, err = ctx.Agent.Embedding(otherName)
		}
		if err != nil {
			return err
		}
		clock := ctx.Agent.SSPClock(tag, worker, workers, k)
		if d := ctx.cfg.LeaseDuration; d > 0 {
			clock.SetLease(d)
		}
		rows := &lineRows{side: [2]lineSide{{e: eh}, {e: oh}}, lr: cfg.LR}
		if cfg.Prefetch {
			rows.read = perWindow
		}
		if cfg.Coalesce {
			rows.write = perWindow
		}
		var win lineBatch
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(epoch)*1000003 + int64(worker)))
			// Epoch boundaries are always window edges.
			for start := 0; start < len(in); start += span {
				win.us, win.vs, win.labels, win.ends = win.us[:0], win.vs[:0], win.labels[:0], win.ends[:0]
				for lo := start; lo < min(start+span, len(in)); lo += cfg.BatchSize {
					win.addBatch(in[lo:min(lo+cfg.BatchSize, len(in))], cfg.NegSamples, sampler, rng)
				}
				if cfg.PullVectors {
					err = rows.window(&win)
				} else {
					for lo, j := 0, 0; j < len(win.ends) && err == nil; lo, j = win.ends[j], j+1 {
						b := lineBatch{us: win.us[lo:win.ends[j]], vs: win.vs[lo:win.ends[j]], labels: win.labels[lo:win.ends[j]]}
						err = lineStepPSFunc(ctx, embName, otherName, b, cfg.LR)
					}
				}
				if err != nil {
					return err
				}
				if err := clock.Tick(); err != nil {
					return err
				}
			}
		}
		// Completed workers leave the ring so stragglers never wait on them.
		return clock.Retire()
	})
}

// lineRows is the unoptimized path of Sec. IV-D — pull every needed vector,
// compute locally, push updates (2·Dim floats per pair each way) — and the
// memory a worker keeps for it from window to window: per model (the
// embedding, then the other one) its ids numbered at a batch's and at the
// window's granularity, the rows pulled and the updates summed.
type lineRows struct {
	side        [2]lineSide
	read, write int // granularity of the pulls and of the pushes: perBatch or perWindow
	lr          float64
}

const (
	perBatch = iota
	perWindow
)

// lineSide is one model's column, by granularity: ids numbers the distinct
// ids, pos[g][i] is the row of pair i.
type lineSide struct {
	e         *ps.Emb
	ids       [2]idTable
	pos       [2][]int32
	rows, upd []float64
}

// window trains on one clock window's pairs. Prefetch pulls each model's
// rows for the whole window once, before the first batch, Coalesce pushes
// each model's summed updates once, after the last; otherwise every batch
// pulls or pushes its own. A window thus reads one version of each row,
// pulled after the clock admitted it, and never its own updates. With both
// knobs off this is the per-batch strawman, pull for pull and push for push.
func (w *lineRows) window(b *lineBatch) error {
	lo := 0
	for j, hi := range b.ends {
		spans := [2][2]int{{lo, hi}, {0, len(b.us)}} // by granularity
		for g, sp := range spans {
			if (w.read == g || w.write == g) && (g == perBatch || j == 0) {
				if err := w.begin(g, b.us[sp[0]:sp[1]], b.vs[sp[0]:sp[1]]); err != nil {
					return err
				}
			}
		}
		var cols [2]lineCol
		for k := range w.side {
			s := &w.side[k]
			r, u := lo-spans[w.read][0], lo-spans[w.write][0]
			cols[k] = lineCol{rpos: s.pos[w.read][r : r+hi-lo], wpos: s.pos[w.write][u : u+hi-lo], rows: s.rows, upd: s.upd}
		}
		lineGrads(b.labels[lo:hi], cols[0], cols[1], w.side[0].e.Meta.Dim, w.lr)
		if w.write == perBatch || j == len(b.ends)-1 {
			for k := range w.side {
				s := &w.side[k]
				// A push keeps nothing of its batch (DESIGN.md §11): the block is free again.
				if err := s.e.PushAddBatch(ps.RowBatch{IDs: s.ids[w.write].order, Dim: s.e.Meta.Dim, Data: s.upd}); err != nil {
					return err
				}
			}
		}
		lo = hi
	}
	return nil
}

// begin numbers the ids of granularity g's pairs, pulls their rows when the
// reads are at g and zeroes their updates when the writes are. The blocks
// are the worker's, made once and grown as needed.
func (w *lineRows) begin(g int, us, vs []int64) error {
	for k, col := range [2][]int64{us, vs} {
		s := &w.side[k]
		ids := &s.ids[g]
		s.pos[g] = ids.dedupIDs(col, s.pos[g])
		n := len(ids.order) * s.e.Meta.Dim
		if w.read == g {
			s.rows = slices.Grow(s.rows[:0], n)[:n]
			if err := s.e.PullInto(ids.order, s.rows); err != nil {
				return err
			}
		}
		if w.write == g {
			s.upd = slices.Grow(s.upd[:0], n)[:n]
			clear(s.upd)
		}
	}
	return nil
}

// lineStepPSFunc runs one SGD step with server-side dot products and
// updates. The pair columns are encoded once: the update argument is the
// dot argument plus the coefficients.
func lineStepPSFunc(ctx *Context, embName, otherName string, b lineBatch, lr float64) error {
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

// lineCol is one id column of a batch as lineGrads sees it: pair i reads
// its row rpos[i] of rows and adds its update into row wpos[i] of upd.
type lineCol struct {
	rpos, wpos []int32
	rows, upd  []float64
}

// lineGrads computes the logistic-loss updates of a batch's pairs from the
// pulled embedding (u) and context (v) rows and adds them into the update
// blocks, dim values a row. It allocates nothing.
func lineGrads(labels []float64, u, v lineCol, dim int, lr float64) {
	for i, label := range labels {
		ur, vr := int(u.rpos[i])*dim, int(v.rpos[i])*dim
		urow := u.rows[ur : ur+dim]
		vrow := v.rows[vr : vr+dim][:len(urow)]
		var dot float64
		for j := range urow {
			dot += urow[j] * vrow[j]
		}
		g := lr * (label - sigmoid(dot))
		uw, vw := int(u.wpos[i])*dim, int(v.wpos[i])*dim
		du, dv := u.upd[uw : uw+dim][:len(urow)], v.upd[vw : vw+dim][:len(urow)]
		for j := range urow {
			du[j] += g * vrow[j]
			dv[j] += g * urow[j]
		}
	}
}

// idTable numbers ids by first sight: an open-addressed id → row table, a
// power of two wide, rows stored +1 so a cleared table is empty; order
// lists the ids by row. Its users reset it and keep its memory.
type idTable struct {
	keys  []int64
	rows  []int32
	shift uint
	order []int64
}

// reset empties the table for at most maxIDs ids, keeping it at most half
// full.
func (t *idTable) reset(maxIDs int) {
	if lg := bits.Len(uint(2*maxIDs - 1)); 1<<lg > len(t.rows) {
		t.keys, t.rows, t.shift = make([]int64, 1<<lg), make([]int32, 1<<lg), uint(64-lg)
	} else {
		clear(t.rows)
	}
	t.order = t.order[:0]
}

// dedupIDs numbers ids afresh and returns, in pos, every id's row. Runs of
// equal ids (LINE's U column) skip the table.
func (t *idTable) dedupIDs(ids []int64, pos []int32) []int32 {
	t.reset(len(ids))
	pos = pos[:0]
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			pos = append(pos, pos[i-1])
		} else {
			pos = append(pos, t.row(id))
		}
	}
	return pos
}

// row returns the row of v, giving it the next one on first sight.
func (t *idTable) row(v int64) int32 {
	mask := uint64(len(t.rows) - 1)
	i := (uint64(v) * 0x9e3779b97f4a7c15) >> t.shift
	for ; t.rows[i] != 0; i = (i + 1) & mask {
		if t.keys[i] == v {
			return t.rows[i] - 1
		}
	}
	t.order = append(t.order, v)
	t.keys[i], t.rows[i] = v, int32(len(t.order))
	return int32(len(t.order) - 1)
}

// add is row for a table with no bound on its ids: a half-full table first
// doubles, keeping every id's row (row stays small enough to inline).
func (t *idTable) add(v int64) int32 {
	if order := t.order; 2*len(order) >= len(t.rows) {
		t.reset(len(t.rows))
		for _, u := range order {
			t.row(u)
		}
	}
	return t.row(v)
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

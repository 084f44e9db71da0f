package core

import (
	"fmt"
	"math"

	"psgraph/internal/dataflow"
	"psgraph/internal/ps"
)

// This file implements the ASP (asynchronous parallel) execution of delta
// PageRank. The PS supports both synchronization protocols (Sec. III-A);
// the BSP variant in pagerank.go commits Δ-vectors at a global barrier
// every iteration, while here every executor sweeps its partition at its
// own pace with no barriers at all: it atomically *takes* (reads and
// zeroes) the pending increments of its vertices and immediately pushes
// the resulting contributions into both the rank vector and the pending
// vector. Delta PageRank tolerates this reordering because rank mass is
// only ever moved, never recomputed — the fixpoint is the same.

func init() {
	ps.RegisterFunc("core.takeIndices", takeIndicesFunc)
}

// takeIndicesFunc atomically reads and resets the given indices of a
// DenseVector partition. Its argument is the index column and the value
// taken slots are set to (zero for sum-combined vectors, the combiner
// identity for min/max).
func takeIndicesFunc(s *ps.Store, model string, part int, arg []byte) ([]byte, error) {
	r := ps.NewArgReader(arg)
	indices, reset := r.I64sInto(nil), r.F64()
	if err := r.Close(); err != nil {
		return nil, err
	}
	view, err := s.Partition(model, part)
	if err != nil {
		return nil, err
	}
	data, lo, unlock, err := view.VecLock()
	if err != nil {
		return nil, err
	}
	defer unlock()
	out := make([]float64, len(indices))
	for i, idx := range indices {
		j := idx - lo
		if j < 0 || j >= int64(len(data)) {
			continue
		}
		out[i] = data[j]
		data[j] = reset
	}
	return ps.AppendArgF64s(nil, out), nil
}

// takeVector atomically takes (reads and resets) the given indices of a
// dense vector, fanning one psFunc call per owning partition. The ids are
// grouped by partition identity, the numbering CallFunc hands argFor; its
// outputs come back by slot of the layout both read.
func takeVector(ctx *Context, name string, indices []int64, reset float64) ([]float64, error) {
	meta, err := ctx.Agent.GetModel(name)
	if err != nil {
		return nil, err
	}
	byPart := make(map[int][]int64)
	pos := make(map[int][]int)
	for i, idx := range indices {
		p := meta.Parts[meta.PartitionFor(idx)].Index
		byPart[p] = append(byPart[p], idx)
		pos[p] = append(pos[p], i)
	}
	out := make([]float64, len(indices))
	outs, err := ctx.Agent.CallFunc(name, "core.takeIndices", func(p ps.Partition) []byte {
		return ps.AppendArgF64(ps.AppendArgI64s(nil, byPart[p.Index]), reset)
	})
	if err != nil {
		return nil, err
	}
	if len(outs) != len(meta.Parts) {
		return nil, fmt.Errorf("core: takeIndices answered by %d partitions of %d", len(outs), len(meta.Parts))
	}
	for slot, raw := range outs {
		pi := meta.Parts[slot].Index
		if len(byPart[pi]) == 0 {
			continue
		}
		r := ps.NewArgReader(raw)
		vals := r.F64sInto(nil)
		if err := r.Close(); err != nil {
			return nil, err
		}
		if len(vals) != len(pos[pi]) {
			return nil, fmt.Errorf("core: takeIndices partition %d returned %d values for %d indices", pi, len(vals), len(pos[pi]))
		}
		for j, orig := range pos[pi] {
			out[orig] = vals[j]
		}
	}
	return out, nil
}

// PageRankASP runs delta PageRank without any synchronization barrier:
// each executor partition loops locally, taking its vertices' pending
// increments and pushing contributions, until its partition has been
// quiescent for a few consecutive sweeps. Compare with PageRank (BSP).
func PageRankASP(ctx *Context, edges *dataflow.RDD[Edge], cfg PageRankConfig) (*PageRankResult, error) {
	cfg.setDefaults()
	parts := ctx.parts(cfg.Parts)
	blocks := csrBlocks(edges, parts).Cache()
	defer blocks.Unpersist()
	n, err := vectorSize(blocks, func(b *csrBlock) int64 { return b.maxID })
	if err != nil {
		return nil, err
	}

	_, vecs, err := deltaVectors(ctx, n, cfg.Damping, "prasp.ranks", "prasp.delta")
	if err != nil {
		return nil, err
	}
	ranks, delta := vecs[0], vecs[1]

	// Within a pass, every partition sweeps several times with no
	// coordination whatsoever: it takes whatever increments have arrived,
	// pushes contributions onward, and immediately sweeps again —
	// partitions overlap arbitrarily. The driver only peeks at the global
	// pending mass *between* passes to decide termination (an ASP system
	// still needs a termination detector; this is the usual choice).
	const sweepsPerPass = 4
	var pending []float64
	for pass := 0; pass < cfg.MaxIterations; pass++ {
		err = blocks.ForeachPartition(func(part int, in []*csrBlock) error {
			for _, b := range in {
				if err := sweepASP(ctx, b, ranks, delta, cfg, sweepsPerPass); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if pending, err = delta.PullAll(); err != nil {
			return nil, err
		}
		var mass float64
		for _, d := range pending {
			mass += math.Abs(d)
		}
		if mass < cfg.Tolerance*float64(n) {
			break
		}
	}

	// Drain any mass left pending for vertices without out-edges (they
	// receive increments but never appear as a table source): what the
	// last pass read, as nothing has moved since.
	var idx []int64
	var vals []float64
	for v, d := range pending {
		if d != 0 {
			idx = append(idx, int64(v))
			vals = append(vals, d)
		}
	}
	if len(idx) > 0 {
		if err := ranks.PushAdd(idx, vals); err != nil {
			return nil, err
		}
	}
	return &PageRankResult{Ranks: ranks, NumVertices: n, Iterations: cfg.MaxIterations}, nil
}

// sweepASP sweeps one block up to sweeps times: take the pending
// increments of its sources, make them permanent rank mass, and scatter
// their shares back into the pending vector. It stops early once a sweep
// finds nothing above the threshold.
func sweepASP(ctx *Context, b *csrBlock, ranks, delta *ps.Vector, cfg PageRankConfig, sweeps int) error {
	for sweep := 0; sweep < sweeps; sweep++ {
		taken, err := takeVector(ctx, delta.Meta.Name, b.srcs, 0)
		if err != nil {
			return err
		}
		// Takes and the sums they scatter to are sparse: both are pushed
		// compacted. Taken increments become permanent rank mass at once.
		acc := b.scatter(taken, cfg.Damping, cfg.DeltaThreshold)
		if rankIdx, rankVal := nonZero(b.srcs, taken); len(rankIdx) > 0 {
			if err := ranks.PushAdd(rankIdx, rankVal); err != nil {
				return err
			}
		}
		idx, vals := nonZero(b.dstIDs, acc)
		if len(idx) == 0 {
			return nil
		}
		if err := delta.PushAdd(idx, vals); err != nil {
			return err
		}
	}
	return nil
}

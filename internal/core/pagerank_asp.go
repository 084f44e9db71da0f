package core

import (
	"fmt"

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
	indices, reset := r.I64s(), r.F64()
	if err := r.Close(); err != nil {
		return nil, err
	}
	view, err := s.Partition(model, part)
	if err != nil {
		return nil, err
	}
	data, lo, unlock := view.VecLock()
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
// dense vector, fanning one psFunc call per owning partition.
func takeVector(ctx *Context, name string, meta ps.ModelMeta, indices []int64, reset float64) ([]float64, error) {
	byPart := make(map[int][]int64)
	pos := make(map[int][]int)
	for i, idx := range indices {
		p := meta.PartitionFor(idx)
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
	for pi, raw := range outs {
		if len(byPart[pi]) == 0 {
			continue
		}
		r := ps.NewArgReader(raw)
		vals := r.F64s()
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
	parts := cfg.Parts
	if parts <= 0 {
		parts = ctx.Partitions()
	}
	blocks := csrBlocks(edges, parts).Cache()
	defer blocks.Unpersist()
	n, err := numVertices(blocks)
	if err != nil {
		return nil, err
	}

	ranksName := ctx.ModelName("prasp.ranks")
	deltaName := ctx.ModelName("prasp.delta")
	ranks, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: ranksName, Size: n, ConsistentRecovery: true})
	if err != nil {
		return nil, err
	}
	delta, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: deltaName, Size: n, ConsistentRecovery: true})
	if err != nil {
		return nil, err
	}
	if err := delta.Fill(1 - cfg.Damping); err != nil {
		return nil, err
	}

	// Within a pass, every partition sweeps several times with no
	// coordination whatsoever: it takes whatever increments have arrived,
	// pushes contributions onward, and immediately sweeps again —
	// partitions overlap arbitrarily. The driver only peeks at the global
	// pending mass *between* passes to decide termination (an ASP system
	// still needs a termination detector; this is the usual choice).
	const sweepsPerPass = 4
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
		pending, err := delta.PullAll()
		if err != nil {
			return nil, err
		}
		var mass float64
		for _, d := range pending {
			if d < 0 {
				mass -= d
			} else {
				mass += d
			}
		}
		if mass < cfg.Tolerance*float64(n) {
			break
		}
	}

	// Drain any mass left pending for vertices without out-edges (they
	// receive increments but never appear as a table source).
	remaining, err := delta.PullAll()
	if err != nil {
		return nil, err
	}
	var idx []int64
	var vals []float64
	for v, d := range remaining {
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
		taken, err := takeVector(ctx, delta.Meta.Name, delta.Meta, b.srcs, 0)
		if err != nil {
			return err
		}
		rankIdx := make([]int64, 0, len(b.srcs))
		rankVal := make([]float64, 0, len(b.srcs))
		for i, d := range taken {
			if d != 0 {
				rankIdx = append(rankIdx, b.srcs[i])
				rankVal = append(rankVal, d)
			}
		}
		// Taken increments become permanent rank mass immediately.
		if len(rankIdx) > 0 {
			if err := ranks.PushAdd(rankIdx, rankVal); err != nil {
				return err
			}
		}
		idx, vals := b.scatter(taken, cfg.Damping, cfg.DeltaThreshold)
		if len(idx) == 0 {
			return nil
		}
		if err := delta.PushAdd(idx, vals); err != nil {
			return err
		}
	}
	return nil
}

package core

import (
	"fmt"
	"os"
	"time"

	"psgraph/internal/dataflow"
	"psgraph/internal/ps"
)

var prTrace = os.Getenv("PSG_TRACE") != ""

func trace(format string, args ...any) {
	if prTrace {
		fmt.Fprintf(os.Stderr, "[%d] "+format+"\n", append([]any{time.Now().UnixMicro()}, args...)...)
	}
}

// PageRankConfig tunes the Δ-rank PageRank of Sec. IV-A.
type PageRankConfig struct {
	// Damping is the damping factor d. Defaults to 0.85.
	Damping float64
	// MaxIterations bounds the outer loop. Defaults to 20.
	MaxIterations int
	// Tolerance stops iteration when the total L1 mass of pending rank
	// increments falls below Tolerance × numVertices. Defaults to 1e-6.
	Tolerance float64
	// DeltaThreshold skips propagating increments smaller than this —
	// the sparsity optimization that "reduces the communication cost by
	// transferring the increments of ranks". Defaults to 1e-9. Setting it
	// to a negative value disables the optimization (full propagation),
	// which the ablation benchmark uses.
	DeltaThreshold float64
	// Parts overrides the RDD partition count.
	Parts int
	// CheckpointEvery checkpoints the three PS vectors every k
	// iterations (0 disables). Needed for the Table II failure runs.
	CheckpointEvery int
}

func (c *PageRankConfig) setDefaults() {
	if c.Damping == 0 {
		c.Damping = 0.85
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 20
	}
	if c.Tolerance == 0 {
		c.Tolerance = 1e-6
	}
	if c.DeltaThreshold == 0 {
		c.DeltaThreshold = 1e-9
	}
}

// PageRankResult reports the converged ranks.
type PageRankResult struct {
	// Ranks is the PS-resident rank vector (model handle).
	Ranks *ps.Vector
	// NumVertices is the dense vector size (max id + 1).
	NumVertices int64
	// Iterations actually executed.
	Iterations int
}

// PageRank runs delta PageRank with the rank and Δ-rank vectors on the
// parameter server (Fig. 4). Per iteration, every executor:
//
//  1. pulls the Δranks of its local source vertices from the PS,
//  2. computes destination updates d·Δ/outdeg, skipping sources whose
//     pending increment is below the sparsity threshold,
//  3. pushes the updates into the Δnext vector.
//
// The driver then executes the commit psFunc on the servers (ranks += Δ;
// Δ ← Δnext; Δnext ← 0), which also returns the residual mass used for
// the convergence test. The rank model uses consistent recovery: a server
// failure rolls every partition back to the same checkpoint (Sec. III-B).
func PageRank(ctx *Context, edges *dataflow.RDD[Edge], cfg PageRankConfig) (*PageRankResult, error) {
	cfg.setDefaults()
	parts := cfg.Parts
	if parts <= 0 {
		parts = ctx.Partitions()
	}
	// One CSR block per partition stays cached for the whole job; sizing
	// the vectors from it is the action that builds it, so the edge file
	// is read and parsed once.
	blocks := csrBlocks(edges, parts).Cache()
	defer blocks.Unpersist()
	n, err := numVertices(blocks)
	if err != nil {
		return nil, err
	}

	ranksName := ctx.ModelName("pr.ranks")
	curName := ctx.ModelName("pr.dcur")
	nextName := ctx.ModelName("pr.dnext")
	ranks, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: ranksName, Size: n, ConsistentRecovery: true})
	if err != nil {
		return nil, err
	}
	cur, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: curName, Size: n, ConsistentRecovery: true})
	if err != nil {
		return nil, err
	}
	if _, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: nextName, Size: n, ConsistentRecovery: true}); err != nil {
		return nil, err
	}
	// Δ⁰ = (1-d): ranks accumulate (1-d)·Σ (dM)^k·1, the damped PageRank.
	if err := cur.Fill(1 - cfg.Damping); err != nil {
		return nil, err
	}
	next, err := ctx.Agent.Vector(nextName)
	if err != nil {
		return nil, err
	}

	models := []string{ranksName, curName, nextName}
	// The three vectors are one consistent unit: they are checkpointed
	// through the master's fenced multi-model snapshot so a server
	// recovery can never interleave with the writes and publish a mixed
	// set (which the rollback below would then trust).
	// RestoreModels restores the set as one unit and, when the latest
	// snapshot generation turns out corrupt (torn write, bit rot), falls
	// back to the previous fence's snapshot for every partition.
	rollbackAll := func() error {
		return ctx.Agent.RestoreModels(models)
	}
	if cfg.CheckpointEvery > 0 {
		// Checkpoint the initial state so a failure before the first
		// periodic checkpoint restores iteration 0, not an empty model.
		// Retry while a server recovery is in flight: there must be a
		// published iteration-0 set before any rollback can target it.
		for {
			raced, err := ctx.Agent.CheckpointModels(models, -1)
			if err != nil {
				return nil, err
			}
			if !raced {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	it := 0
	for ; it < cfg.MaxIterations; it++ {
		recoveriesBefore := int64(-1)
		if cfg.CheckpointEvery > 0 {
			if recoveriesBefore, err = ctx.Agent.RecoveryCount(); err != nil {
				return nil, err
			}
		}
		trace("iter %d start recoveriesBefore=%d", it, recoveriesBefore)
		err := blocks.ForeachPartition(func(part int, in []*csrBlock) error {
			for _, b := range in {
				deltas, err := cur.Pull(b.srcs)
				if err != nil {
					return err
				}
				idx, vals := b.scatter(deltas, cfg.Damping, cfg.DeltaThreshold)
				if len(idx) == 0 {
					continue
				}
				if err := next.PushAdd(idx, vals); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Commit on the servers and read back the residual mass.
		residual, err := commitDelta(ctx, curName, ranksName, nextName)
		if err != nil {
			return nil, err
		}
		if cfg.CheckpointEvery > 0 {
			// A server recovery during this iteration restored its
			// partitions mid-stream, so this iteration's pushes and commit
			// are mixed with older state. Roll every model back to the
			// last consistent checkpoint and redo from there (Sec. III-B:
			// "the master asks all the servers to restore the checkpoint
			// partitions ... such that model consistency is ensured for
			// algorithms such as PageRank").
			recoveriesAfter, err := ctx.Agent.RecoveryCount()
			if err != nil {
				return nil, err
			}
			trace("iter %d end residual=%g recoveriesAfter=%d", it, residual, recoveriesAfter)
			if recoveriesAfter != recoveriesBefore {
				trace("iter %d ROLLBACK", it)
				if err := rollbackAll(); err != nil {
					return nil, err
				}
				trace("iter %d rollback done", it)
				continue
			}
			if (it+1)%cfg.CheckpointEvery == 0 {
				trace("iter %d checkpointAll start", it)
				// Fence on the recovery count read above: if a recovery
				// slipped in after that read (or a server dies while the
				// snapshot is being taken), nothing is published and the
				// iteration is rolled back and redone, exactly as if the
				// recovery had been detected in-iteration.
				raced, err := ctx.Agent.CheckpointModels(models, recoveriesAfter)
				if err != nil {
					return nil, err
				}
				if raced {
					trace("iter %d checkpoint RACED, rolling back", it)
					if err := rollbackAll(); err != nil {
						return nil, err
					}
					continue
				}
				trace("iter %d checkpointAll done", it)
			}
		}
		if residual < cfg.Tolerance*float64(n) {
			it++
			break
		}
	}
	return &PageRankResult{Ranks: ranks, NumVertices: n, Iterations: it}, nil
}

// PageRankEdgePartitioned runs the same Δ-rank algorithm but directly on
// the edge-partitioned RDD, without the groupBy conversion to vertex
// partitioning. Because a high-degree vertex's out-edges are spread over
// many partitions, several executors pull the same Δrank and the same
// destination receives updates from many executors — the communication
// overhead the paper's step 1 removes ("edge partitioning yields a high
// communication overhead", Sec. IV-A). Kept as the ablation baseline.
func PageRankEdgePartitioned(ctx *Context, edges *dataflow.RDD[Edge], cfg PageRankConfig) (*PageRankResult, error) {
	cfg.setDefaults()
	parts := cfg.Parts
	if parts <= 0 {
		parts = ctx.Partitions()
	}
	n, err := NumVertices(edges)
	if err != nil {
		return nil, err
	}
	cached := dataflow.Map(edges, func(e Edge) Edge { return e }).Cache()
	defer cached.Unpersist()

	// Out-degrees on the PS, computed once.
	degName := ctx.ModelName("pr.deg")
	deg, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: degName, Size: n})
	if err != nil {
		return nil, err
	}
	defer cleanupModels(ctx, degName)
	degRDD := dataflow.ReduceByKey(
		dataflow.Map(cached, func(e Edge) dataflow.KV[int64, int64] {
			return dataflow.KV[int64, int64]{K: e.Src, V: 1}
		}),
		func(a, b int64) int64 { return a + b }, parts)
	err = degRDD.ForeachPartition(func(part int, in []dataflow.KV[int64, int64]) error {
		idx := make([]int64, len(in))
		vals := make([]float64, len(in))
		for i, kv := range in {
			idx[i] = kv.K
			vals[i] = float64(kv.V)
		}
		return deg.PushSet(idx, vals)
	})
	if err != nil {
		return nil, err
	}

	ranksName := ctx.ModelName("pr.ranks")
	curName := ctx.ModelName("pr.dcur")
	nextName := ctx.ModelName("pr.dnext")
	ranks, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: ranksName, Size: n, ConsistentRecovery: true})
	if err != nil {
		return nil, err
	}
	cur, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: curName, Size: n, ConsistentRecovery: true})
	if err != nil {
		return nil, err
	}
	if _, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: nextName, Size: n, ConsistentRecovery: true}); err != nil {
		return nil, err
	}
	if err := cur.Fill(1 - cfg.Damping); err != nil {
		return nil, err
	}
	next, err := ctx.Agent.Vector(nextName)
	if err != nil {
		return nil, err
	}

	it := 0
	for ; it < cfg.MaxIterations; it++ {
		err := cached.ForeachPartition(func(part int, in []Edge) error {
			if len(in) == 0 {
				return nil
			}
			srcSet := make(map[int64]bool)
			for _, e := range in {
				srcSet[e.Src] = true
			}
			srcs := make([]int64, 0, len(srcSet))
			for s := range srcSet {
				srcs = append(srcs, s)
			}
			deltas, err := cur.Pull(srcs)
			if err != nil {
				return err
			}
			degs, err := deg.Pull(srcs)
			if err != nil {
				return err
			}
			deltaOf := make(map[int64]float64, len(srcs))
			for i, s := range srcs {
				if degs[i] > 0 {
					deltaOf[s] = cfg.Damping * deltas[i] / degs[i]
				}
			}
			updates := make(map[int64]float64)
			for _, e := range in {
				d := deltaOf[e.Src]
				if d > cfg.DeltaThreshold || d < -cfg.DeltaThreshold {
					updates[e.Dst] += d
				}
			}
			if len(updates) == 0 {
				return nil
			}
			idx := make([]int64, 0, len(updates))
			vals := make([]float64, 0, len(updates))
			for k, v := range updates {
				idx = append(idx, k)
				vals = append(vals, v)
			}
			return next.PushAdd(idx, vals)
		})
		if err != nil {
			return nil, err
		}
		residual, err := commitDelta(ctx, curName, ranksName, nextName)
		if err != nil {
			return nil, err
		}
		if residual < cfg.Tolerance*float64(n) {
			it++
			break
		}
	}
	return &PageRankResult{Ranks: ranks, NumVertices: n, Iterations: it}, nil
}

// cleanupModels best-effort deletes scratch models.
func cleanupModels(ctx *Context, names ...string) {
	for _, n := range names {
		_ = ctx.Agent.DeleteModel(n)
	}
}

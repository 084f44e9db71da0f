package core

import (
	"sync/atomic"

	"psgraph/internal/dataflow"
	"psgraph/internal/ps"
)

// KCoreConfig tunes the iterative k-core peeling.
type KCoreConfig struct {
	// K is the core order to extract.
	K int64
	// MaxRounds bounds peeling rounds. Defaults to 100.
	MaxRounds int
	// Parts overrides the RDD partition count.
	Parts int
}

// KCoreResult reports the k-core of the graph.
type KCoreResult struct {
	// Survivors is the number of vertices in the k-core.
	Survivors int64
	// Members are the vertex ids in the k-core.
	Members []int64
	// Rounds is the number of peeling rounds executed.
	Rounds int
}

// KCore extracts the k-core with the PageRank-style PS pattern
// (footnote 2): the degree vector lives on the parameter server, and each
// round every executor pulls the degrees of its local vertices, removes
// those that fell below k (marking them with degree −1) and pushes −1
// decrements to their neighbors' degrees. The loop stops when a round
// removes nothing.
func KCore(ctx *Context, edges *dataflow.RDD[Edge], cfg KCoreConfig) (*KCoreResult, error) {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 100
	}
	parts := cfg.Parts
	if parts <= 0 {
		parts = ctx.Partitions()
	}
	nbrs := ToUndirectedNeighborTables(edges, parts).Cache()
	defer nbrs.Unpersist()
	n, err := tablesNumVertices(nbrs)
	if err != nil {
		return nil, err
	}

	degName := ctx.ModelName("kcore.deg")
	deg, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: degName, Size: n})
	if err != nil {
		return nil, err
	}
	defer cleanupModels(ctx, degName)

	// Initialize degrees from the local neighbor tables. Vertices absent
	// from every table keep degree 0 (they are never in a k-core for k>0).
	err = nbrs.ForeachPartition(func(part int, tables []dataflow.KV[int64, []int64]) error {
		idx := make([]int64, len(tables))
		vals := make([]float64, len(tables))
		for i, t := range tables {
			idx[i] = t.K
			vals[i] = float64(len(t.V))
		}
		return deg.PushSet(idx, vals)
	})
	if err != nil {
		return nil, err
	}

	rounds := 0
	for ; rounds < cfg.MaxRounds; rounds++ {
		var removed atomic.Int64
		err := nbrs.ForeachPartition(func(part int, tables []dataflow.KV[int64, []int64]) error {
			if len(tables) == 0 {
				return nil
			}
			srcs := make([]int64, len(tables))
			for i, t := range tables {
				srcs[i] = t.K
			}
			degs, err := deg.Pull(srcs)
			if err != nil {
				return err
			}
			dead := make([]int64, 0)
			deadVals := make([]float64, 0)
			dec := make(map[int64]float64)
			for i, t := range tables {
				d := degs[i]
				if d < 0 || d >= float64(cfg.K) {
					continue
				}
				// Below k and still alive: peel it.
				dead = append(dead, t.K)
				deadVals = append(deadVals, -1)
				for _, u := range t.V {
					dec[u]--
				}
			}
			if len(dead) == 0 {
				return nil
			}
			removed.Add(int64(len(dead)))
			if err := deg.PushSet(dead, deadVals); err != nil {
				return err
			}
			idx := make([]int64, 0, len(dec))
			vals := make([]float64, 0, len(dec))
			for k, v := range dec {
				idx = append(idx, k)
				vals = append(vals, v)
			}
			return deg.PushAdd(idx, vals)
		})
		if err != nil {
			return nil, err
		}
		if removed.Load() == 0 {
			break
		}
	}

	final, err := deg.PullAll()
	if err != nil {
		return nil, err
	}
	res := &KCoreResult{Rounds: rounds}
	for v, d := range final {
		if d >= float64(cfg.K) {
			res.Survivors++
			res.Members = append(res.Members, int64(v))
		}
	}
	return res, nil
}

// KCoreDecomposeResult reports the full coreness decomposition.
type KCoreDecomposeResult struct {
	// Coreness[v] is the largest k such that v belongs to the k-core
	// (vertices absent from the graph have coreness 0).
	Coreness []int64
	// MaxCore is the degeneracy of the graph.
	MaxCore int64
	// Rounds is the total number of peeling rounds across all k.
	Rounds int
}

// KCoreDecompose computes the coreness of every vertex (the k-core
// decomposition of Batagelj–Zaversnik, the paper's reference [6]) with
// the same PageRank-style pattern as KCore: the degree vector and the
// coreness vector live on the parameter server, and peeling proceeds
// k = 1, 2, … until the graph is exhausted. A vertex peeled while
// processing k has coreness k-1.
func KCoreDecompose(ctx *Context, edges *dataflow.RDD[Edge], cfg KCoreConfig) (*KCoreDecomposeResult, error) {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 10000
	}
	parts := cfg.Parts
	if parts <= 0 {
		parts = ctx.Partitions()
	}
	nbrs := ToUndirectedNeighborTables(edges, parts).Cache()
	defer nbrs.Unpersist()
	n, err := tablesNumVertices(nbrs)
	if err != nil {
		return nil, err
	}

	degName := ctx.ModelName("coreness.deg")
	coreName := ctx.ModelName("coreness.core")
	deg, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: degName, Size: n})
	if err != nil {
		return nil, err
	}
	core, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: coreName, Size: n})
	if err != nil {
		return nil, err
	}
	defer cleanupModels(ctx, degName, coreName)

	var present atomic.Int64
	err = nbrs.ForeachPartition(func(part int, tables []dataflow.KV[int64, []int64]) error {
		idx := make([]int64, len(tables))
		vals := make([]float64, len(tables))
		for i, t := range tables {
			idx[i] = t.K
			vals[i] = float64(len(t.V))
		}
		present.Add(int64(len(tables)))
		return deg.PushSet(idx, vals)
	})
	if err != nil {
		return nil, err
	}

	alive := present.Load()
	rounds := 0
	for k := int64(1); alive > 0 && rounds < cfg.MaxRounds; k++ {
		for rounds < cfg.MaxRounds {
			rounds++
			var removed atomic.Int64
			err := nbrs.ForeachPartition(func(part int, tables []dataflow.KV[int64, []int64]) error {
				if len(tables) == 0 {
					return nil
				}
				srcs := make([]int64, len(tables))
				for i, t := range tables {
					srcs[i] = t.K
				}
				degs, err := deg.Pull(srcs)
				if err != nil {
					return err
				}
				var dead, coreIdx []int64
				var deadVals, coreVals []float64
				dec := make(map[int64]float64)
				for i, t := range tables {
					d := degs[i]
					if d < 0 || d >= float64(k) {
						continue
					}
					// Below k and still alive: peel it. The degree marker
					// goes far negative so later neighbor decrements can
					// never resurrect it; the coreness is recorded in its
					// own vector.
					dead = append(dead, t.K)
					deadVals = append(deadVals, -1e18)
					coreIdx = append(coreIdx, t.K)
					coreVals = append(coreVals, float64(k-1))
					for _, u := range t.V {
						dec[u]--
					}
				}
				if len(dead) == 0 {
					return nil
				}
				removed.Add(int64(len(dead)))
				if err := deg.PushSet(dead, deadVals); err != nil {
					return err
				}
				if err := core.PushSet(coreIdx, coreVals); err != nil {
					return err
				}
				idx := make([]int64, 0, len(dec))
				vals := make([]float64, 0, len(dec))
				for key, v := range dec {
					idx = append(idx, key)
					vals = append(vals, v)
				}
				return deg.PushAdd(idx, vals)
			})
			if err != nil {
				return nil, err
			}
			if removed.Load() == 0 {
				break
			}
			alive -= removed.Load()
		}
	}

	coreVals, err := core.PullAll()
	if err != nil {
		return nil, err
	}
	res := &KCoreDecomposeResult{Coreness: make([]int64, n), Rounds: rounds}
	for v, c := range coreVals {
		res.Coreness[v] = int64(c)
		if int64(c) > res.MaxCore {
			res.MaxCore = int64(c)
		}
	}
	return res, nil
}

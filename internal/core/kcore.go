package core

import (
	"slices"
	"sync/atomic"

	"psgraph/internal/dataflow"
	"psgraph/internal/ps"
)

// KCoreConfig tunes the iterative k-core peeling.
type KCoreConfig struct {
	// K is the core order to extract.
	K int64
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
// (footnote 2): the degree vector lives on the parameter server, and
// peeling rounds at order K run until one removes nothing. They need no
// cap: a round either peels a live vertex or is the last, and a peeled
// vertex never comes back.
func KCore(ctx *Context, edges *dataflow.RDD[Edge], cfg KCoreConfig) (*KCoreResult, error) {
	p, err := startPeeling(ctx, edges, "kcore.deg")
	if err != nil {
		return nil, err
	}
	defer p.close()

	rounds := 0
	for ; ; rounds++ {
		peeled, err := p.round(cfg.K)
		if err != nil {
			return nil, err
		}
		if len(peeled) == 0 {
			break
		}
	}

	final, err := p.deg.PullAll()
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
// KCore's rounds: peeling proceeds k = 1, 2, … until the graph is
// exhausted, and a vertex peeled while processing k has coreness k-1.
func KCoreDecompose(ctx *Context, edges *dataflow.RDD[Edge], cfg KCoreConfig) (*KCoreDecomposeResult, error) {
	p, err := startPeeling(ctx, edges, "coreness.deg")
	if err != nil {
		return nil, err
	}
	defer p.close()

	res := &KCoreDecomposeResult{Coreness: make([]int64, p.n)}
	alive := p.vertices
	for k := int64(1); alive > 0; k++ {
		for {
			res.Rounds++
			peeled, err := p.round(k)
			if err != nil {
				return nil, err
			}
			if len(peeled) == 0 {
				break
			}
			alive -= int64(len(peeled))
			for _, v := range peeled {
				res.Coreness[v] = k - 1
			}
			res.MaxCore = k - 1
		}
	}
	return res, nil
}

// peeling is what both k-core algorithms peel: the cached undirected
// neighbour tables and the degree vector on the PS.
type peeling struct {
	nbrs     *dataflow.RDD[dataflow.KV[int64, []int64]]
	deg      *ps.Vector
	n        int64 // the degree vector's size: the largest vertex id + 1
	vertices int64 // the vertices with a table
	close    func()
}

// startPeeling builds the tables and a degree vector holding every
// vertex's degree. Vertices absent from every table keep degree 0 and are
// never peeled (they are in no k-core for k > 0).
func startPeeling(ctx *Context, edges *dataflow.RDD[Edge], model string) (*peeling, error) {
	nbrs := ToUndirectedNeighborTables(edges, ctx.Partitions()).Cache()
	n, err := tablesNumVertices(nbrs)
	if err != nil {
		nbrs.Unpersist()
		return nil, err
	}
	name := ctx.ModelName(model)
	deg, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: name, Size: n})
	if err != nil {
		nbrs.Unpersist()
		return nil, err
	}
	p := &peeling{nbrs: nbrs, deg: deg, n: n, close: func() {
		cleanupModels(ctx, name)
		nbrs.Unpersist()
	}}
	var vertices atomic.Int64
	err = nbrs.ForeachPartition(func(part int, tables []dataflow.KV[int64, []int64]) error {
		idx := make([]int64, len(tables))
		vals := make([]float64, len(tables))
		for i, t := range tables {
			idx[i] = t.K
			vals[i] = float64(len(t.V))
		}
		vertices.Add(int64(len(tables)))
		return deg.PushSet(idx, vals)
	})
	if err != nil {
		p.close()
		return nil, err
	}
	p.vertices = vertices.Load()
	return p, nil
}

// round is one peeling round at order k: every partition pulls its
// vertices' degrees, marks those still alive below k dead and decrements
// their neighbours' degrees. The dead marker is far negative, so later
// decrements can never resurrect a vertex. It returns the vertices
// peeled.
func (p *peeling) round(k int64) ([]int64, error) {
	const dead = -1e18
	peeled := make([][]int64, p.nbrs.NumPartitions())
	err := p.nbrs.ForeachPartition(func(part int, tables []dataflow.KV[int64, []int64]) error {
		if len(tables) == 0 {
			return nil
		}
		srcs := make([]int64, len(tables))
		for i, t := range tables {
			srcs[i] = t.K
		}
		degs, err := p.deg.Pull(srcs)
		if err != nil {
			return err
		}
		var out, nbrs []int64
		for i, t := range tables {
			if d := degs[i]; d >= 0 && d < float64(k) {
				out = append(out, t.K)
				nbrs = append(nbrs, t.V...)
			}
		}
		if len(out) == 0 {
			return nil
		}
		peeled[part] = out
		if err := p.deg.PushSet(out, slices.Repeat([]float64{dead}, len(out))); err != nil {
			return err
		}
		// One decrement per peeled neighbour, summed per vertex.
		return p.deg.PushAdd(combine(nbrs, slices.Repeat([]float64{-1}, len(nbrs)), CombineSum))
	})
	return slices.Concat(peeled...), err
}

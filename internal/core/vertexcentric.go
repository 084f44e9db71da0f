package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"psgraph/internal/dataflow"
	"psgraph/internal/ps"
)

// This file provides the vertex-centric programming model of Sec. II-C on
// top of the parameter server: a vertex program runs on every vertex,
// receives the combined messages of its in-neighbors, updates its state,
// and broadcasts a message along its out-edges, superstep after
// superstep, until no messages flow. State and message vectors live on
// the PS; executors sweep their neighbor-table partitions, one round of
// gather, compute and combine per superstep (DESIGN.md §8.3).

// Combiner selects how concurrent messages to one vertex merge.
type Combiner int

const (
	// CombineSum adds messages (PageRank-style mass flows).
	CombineSum Combiner = iota
	// CombineMin keeps the minimum (shortest-path-style programs).
	CombineMin
	// CombineMax keeps the maximum (max-id propagation).
	CombineMax
)

// VertexProgram defines one vertex-centric computation over float64
// state and messages.
type VertexProgram struct {
	// Init returns the initial state of vertex v and, when send is true,
	// the first message broadcast along its out-edges (superstep 0).
	Init func(v int64, outDeg int) (state, msg float64, send bool)
	// Compute runs on every vertex that received messages: it sees the
	// combined message and returns the new state and, when send is true,
	// the next broadcast message.
	Compute func(v int64, outDeg int, state, combined float64) (newState, msg float64, send bool)
	// Combiner merges concurrent messages. Defaults to CombineSum.
	Combiner Combiner
}

// VertexCentricConfig bounds a vertex-centric run.
type VertexCentricConfig struct {
	// MaxSupersteps bounds the iteration count. Defaults to 30.
	MaxSupersteps int
}

// VertexCentricResult reports the converged states.
type VertexCentricResult struct {
	// States is the PS-resident state vector.
	States *ps.Vector
	// NumVertices is the vector size.
	NumVertices int64
	// Supersteps actually executed (including superstep 0).
	Supersteps int
}

// RunVertexCentric executes prog over the graph until no vertex sends a
// message or the superstep bound is hit. Halted vertices (those that
// receive no messages) are skipped, as in Pregel.
//
// Messages are double-buffered in two dense vectors: superstep s reads
// the ones sent in superstep s-1 from one and sends into the other, so a
// message is read in the superstep after it was sent and never earlier,
// whatever the executor count. After the barrier the vector just read is
// refilled with the combiner's identity, the value of a slot without
// messages.
func RunVertexCentric(ctx *Context, edges *dataflow.RDD[Edge], prog VertexProgram, cfg VertexCentricConfig) (*VertexCentricResult, error) {
	type table = dataflow.KV[int64, []int64]
	if prog.Init == nil || prog.Compute == nil || uint(prog.Combiner) >= uint(len(combiners)) {
		return nil, fmt.Errorf("core: VertexProgram needs Init, Compute and a known Combiner")
	}
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = 30
	}
	nbrs := vertexTables(edges, ctx.Partitions()).Cache()
	defer nbrs.Unpersist()
	n, err := tablesNumVertices(nbrs)
	if err != nil {
		return nil, err
	}

	state, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: ctx.ModelName("vc.state"), Size: n})
	if err != nil {
		return nil, err
	}
	combiner := combiners[prog.Combiner]
	identity := combiner.identity
	var msgs [2]*ps.Vector
	for i := range msgs {
		name := ctx.ModelName("vc.msg")
		if msgs[i], err = ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: name, Size: n}); err != nil {
			return nil, err
		}
		defer cleanupModels(ctx, name)
	}

	steps := 0
	for sent := int64(1); sent > 0 && steps < cfg.MaxSupersteps; steps++ {
		// out is the vector the previous superstep read, refilled now that
		// its barrier has passed.
		in, out := msgs[steps%2], msgs[(steps+1)%2]
		if err := out.Fill(identity); err != nil {
			return nil, err
		}
		var sending atomic.Int64
		err := nbrs.ForeachPartition(func(_ int, tables []table) error {
			// Superstep 0 runs Init on every vertex; a later one runs
			// Compute on the vertices whose slot of in differs from the
			// identity. (Under the sum combiner, messages summing to
			// exactly 0 are indistinguishable from none; they are also a
			// no-op for every sum-based program.)
			var combined, states []float64
			if steps > 0 {
				ids := make([]int64, len(tables))
				for i, t := range tables {
					ids[i] = t.K
				}
				var err error
				if combined, err = in.Pull(ids); err != nil {
					return err
				}
				active := ids[:0]
				for i, m := range combined {
					if m != identity {
						active = append(active, ids[i])
					}
				}
				if states, err = state.Pull(active); err != nil {
					return err
				}
			}
			var sIdx, dsts []int64
			var sVals, ms []float64
			for i, t := range tables {
				var st, m float64
				var send bool
				switch {
				case steps == 0:
					st, m, send = prog.Init(t.K, len(t.V))
				case combined[i] != identity:
					// The active vertices' states, in table order.
					st, m, send = prog.Compute(t.K, len(t.V), states[len(sIdx)], combined[i])
				default:
					continue
				}
				sIdx, sVals = append(sIdx, t.K), append(sVals, st)
				if send {
					sending.Add(1)
					dsts = append(dsts, t.V...)
					for range t.V {
						ms = append(ms, m)
					}
				}
			}
			if err := state.PushSet(sIdx, sVals); err != nil {
				return err
			}
			if len(dsts) == 0 {
				return nil
			}
			idx, vals := combine(dsts, ms, prog.Combiner)
			return combiner.push(out, idx, vals)
		})
		if err != nil {
			return nil, err
		}
		sent = sending.Load()
	}
	return &VertexCentricResult{States: state, NumVertices: n, Supersteps: steps}, nil
}

// combiners holds, per Combiner, the value no message folds to (the slot
// of a vertex nothing was sent to), the fold, and the server-side push.
var combiners = [...]struct {
	identity float64
	fold     func(a, m float64) float64
	push     func(v *ps.Vector, idx []int64, vals []float64) error
}{
	CombineSum: {0, func(a, m float64) float64 { return a + m }, (*ps.Vector).PushAdd},
	CombineMin: {math.Inf(1), func(a, m float64) float64 { return min(a, m) }, (*ps.Vector).PushMin},
	CombineMax: {math.Inf(-1), func(a, m float64) float64 { return max(a, m) }, (*ps.Vector).PushMax},
}

// vertexTables builds out-neighbor tables in vertex order that include
// sink vertices (in-edges only) with empty adjacency, so the vertex
// program runs on every vertex of the graph: every destination also pairs
// with a marker that sorts before every id and is cut off its table.
func vertexTables(edges *dataflow.RDD[Edge], parts int) *dataflow.RDD[dataflow.KV[int64, []int64]] {
	const sink = -1
	pairs := dataflow.FlatMap(edges, func(e Edge) []idPair {
		return []idPair{{K: e.Src, V: e.Dst}, {K: e.Dst, V: sink}}
	})
	return dataflow.Map(neighborTables(pairs, parts), func(t dataflow.KV[int64, []int64]) dataflow.KV[int64, []int64] {
		if len(t.V) > 0 && t.V[0] == sink {
			t.V = t.V[1:]
		}
		return t
	})
}

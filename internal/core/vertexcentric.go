package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"psgraph/internal/dataflow"
	"psgraph/internal/ps"
)

// This file provides the vertex-centric programming model of Sec. II-C on
// top of the parameter server: a vertex program runs on every vertex,
// receives the combined messages of its in-neighbors, updates its state,
// and broadcasts a message along its out-edges, superstep after
// superstep, until no messages flow. State and message vectors live on
// the PS; executors sweep their neighbor-table partitions.

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
	// Parts overrides the RDD partition count.
	Parts int
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
func RunVertexCentric(ctx *Context, edges *dataflow.RDD[Edge], prog VertexProgram, cfg VertexCentricConfig) (*VertexCentricResult, error) {
	if prog.Init == nil || prog.Compute == nil {
		return nil, fmt.Errorf("core: VertexProgram needs Init and Compute")
	}
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = 30
	}
	parts := ctx.parts(cfg.Parts)
	nbrs := toVertexTables(edges, parts).Cache()
	defer nbrs.Unpersist()
	n, err := tablesNumVertices(nbrs)
	if err != nil {
		return nil, err
	}

	stateName := ctx.ModelName("vc.state")
	msgName := ctx.ModelName("vc.msg")
	state, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: stateName, Size: n})
	if err != nil {
		return nil, err
	}
	msg, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: msgName, Size: n})
	if err != nil {
		return nil, err
	}
	defer cleanupModels(ctx, msgName)
	msgMeta := msg.Meta

	// Min/max combiners need an identity for "no message yet" slots.
	identity := 0.0
	switch prog.Combiner {
	case CombineMin:
		identity = math.Inf(1)
	case CombineMax:
		identity = math.Inf(-1)
	}
	if identity != 0 {
		if err := msg.Fill(identity); err != nil {
			return nil, err
		}
	}

	deliver := func(out map[int64]float64) error {
		if len(out) == 0 {
			return nil
		}
		idx := make([]int64, 0, len(out))
		vals := make([]float64, 0, len(out))
		for k, v := range out {
			idx = append(idx, k)
			vals = append(vals, v)
		}
		switch prog.Combiner {
		case CombineMin:
			return msg.PushMin(idx, vals)
		case CombineMax:
			return msg.PushMax(idx, vals)
		default:
			return msg.PushAdd(idx, vals)
		}
	}

	// Superstep 0: initialize states and send first messages.
	var sent atomic.Int64
	err = nbrs.ForeachPartition(func(part int, tables []dataflow.KV[int64, []int64]) error {
		sIdx := make([]int64, len(tables))
		sVals := make([]float64, len(tables))
		out := make(map[int64]float64)
		for i, t := range tables {
			st, m, send := prog.Init(t.K, len(t.V))
			sIdx[i] = t.K
			sVals[i] = st
			if send {
				sent.Add(1)
				for _, dst := range t.V {
					combineInto(out, dst, m, prog.Combiner)
				}
			}
		}
		if err := state.PushSet(sIdx, sVals); err != nil {
			return err
		}
		return deliver(out)
	})
	if err != nil {
		return nil, err
	}

	steps := 1
	for ; steps < cfg.MaxSupersteps && sent.Load() > 0; steps++ {
		sent.Store(0)
		err := nbrs.ForeachPartition(func(part int, tables []dataflow.KV[int64, []int64]) error {
			if len(tables) == 0 {
				return nil
			}
			ids := make([]int64, len(tables))
			for i, t := range tables {
				ids[i] = t.K
			}
			// Atomically take the pending messages. A vertex is active
			// exactly when its taken slot differs from the combiner
			// identity — one atomic operation, so a message can never be
			// consumed without being processed. (Under the sum combiner, a
			// message summing to exactly 0 is indistinguishable from no
			// message; it is also a no-op for every sum-based program.)
			combined, err := takeVector(ctx, msgName, msgMeta, ids, identity)
			if err != nil {
				return err
			}
			var active []int64
			for i, t := range tables {
				if combined[i] != identity {
					active = append(active, t.K)
				}
			}
			if len(active) == 0 {
				return nil
			}
			states, err := state.Pull(active)
			if err != nil {
				return err
			}
			stateOf := make(map[int64]float64, len(active))
			for i, v := range active {
				stateOf[v] = states[i]
			}
			sIdx := make([]int64, 0, len(active))
			sVals := make([]float64, 0, len(active))
			out := make(map[int64]float64)
			for i, t := range tables {
				if combined[i] == identity {
					continue
				}
				newState, m, send := prog.Compute(t.K, len(t.V), stateOf[t.K], combined[i])
				sIdx = append(sIdx, t.K)
				sVals = append(sVals, newState)
				if send {
					sent.Add(1)
					for _, dst := range t.V {
						combineInto(out, dst, m, prog.Combiner)
					}
				}
			}
			if err := state.PushSet(sIdx, sVals); err != nil {
				return err
			}
			return deliver(out)
		})
		if err != nil {
			return nil, err
		}
	}
	return &VertexCentricResult{States: state, NumVertices: n, Supersteps: steps}, nil
}

// combineInto merges a message into the executor-local outbox.
func combineInto(out map[int64]float64, dst int64, m float64, c Combiner) {
	cur, ok := out[dst]
	if !ok {
		out[dst] = m
		return
	}
	switch c {
	case CombineMin:
		if m < cur {
			out[dst] = m
		}
	case CombineMax:
		if m > cur {
			out[dst] = m
		}
	default:
		out[dst] = cur + m
	}
}

// toVertexTables builds out-neighbor tables that include sink vertices
// (in-edges only) with empty adjacency, so the vertex program runs on
// every vertex of the graph.
func toVertexTables(edges *dataflow.RDD[Edge], parts int) *dataflow.RDD[dataflow.KV[int64, []int64]] {
	const sentinel = int64(-1) << 62
	pairs := dataflow.FlatMap(edges, func(e Edge) []dataflow.KV[int64, int64] {
		return []dataflow.KV[int64, int64]{{K: e.Src, V: e.Dst}, {K: e.Dst, V: sentinel}}
	})
	grouped := dataflow.GroupByKey(pairs, parts)
	return dataflow.Map(grouped, func(kv dataflow.KV[int64, []int64]) dataflow.KV[int64, []int64] {
		kept := kv.V[:0]
		for _, d := range kv.V {
			if d != sentinel {
				kept = append(kept, d)
			}
		}
		slices.Sort(kept)
		return dataflow.KV[int64, []int64]{K: kv.K, V: slices.Compact(kept)}
	})
}

package core

import (
	"math"
	"sync/atomic"

	"psgraph/internal/dataflow"
)

// FastUnfoldingConfig tunes the Louvain community detection of Sec. IV-C.
type FastUnfoldingConfig struct {
	// Passes is the number of modularity-optimization + community-
	// aggregation passes. Defaults to 2.
	Passes int
	// Iterations bounds the modularity-optimization sweeps per pass.
	// Defaults to 10. Each sweep only moves vertices of one id parity
	// (see modularityPass), so a full update takes two sweeps.
	Iterations int
	// Parts overrides the RDD partition count.
	Parts int
}

// FastUnfoldingResult reports the detected communities.
type FastUnfoldingResult struct {
	// Assignment maps every vertex to its final community id.
	Assignment map[int64]int64
	// Communities is the number of distinct communities.
	Communities int
	// Modularity of the assignment on the input graph.
	Modularity float64
	// Moves per pass (diagnostic).
	Moves []int64
}

// FastUnfolding implements the paper's fast unfolding: the two frequently
// accessed models — vertex2com and com2weight — live on the parameter
// server as sparse vectors. Each pass runs modularity-optimization sweeps
// (executors pull the current community assignment of their vertices and
// neighbors plus the community weight totals, reassign vertices greedily
// by modularity gain, and push the changes), then aggregates communities
// into a condensed graph for the next pass.
func FastUnfolding(ctx *Context, edges *dataflow.RDD[Edge], cfg FastUnfoldingConfig) (*FastUnfoldingResult, error) {
	if cfg.Passes <= 0 {
		cfg.Passes = 2
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 10
	}
	parts := cfg.Parts
	if parts <= 0 {
		parts = ctx.Partitions()
	}

	current := edges
	// composed maps original vertex -> community after all passes so far.
	var composed map[int64]int64
	res := &FastUnfoldingResult{}

	for pass := 0; pass < cfg.Passes; pass++ {
		assign, moves, err := modularityPass(ctx, current, cfg.Iterations, parts)
		if err != nil {
			return nil, err
		}
		res.Moves = append(res.Moves, moves)
		if composed == nil {
			composed = assign
		} else {
			for v, c := range composed {
				if next, ok := assign[c]; ok {
					composed[v] = next
				}
			}
		}
		if pass == cfg.Passes-1 {
			break
		}
		// Community aggregation: build the condensed graph whose vertices
		// are the communities found in this pass (phase 2 of the paper).
		condensed := dataflow.MapPartitions(current, func(part int, in []Edge) ([]dataflow.KV[[2]int64, float64], error) {
			out := make([]dataflow.KV[[2]int64, float64], 0, len(in))
			for _, e := range in {
				w := e.W
				if w == 0 {
					w = 1
				}
				cu, cv := assign[e.Src], assign[e.Dst]
				out = append(out, dataflow.KV[[2]int64, float64]{K: [2]int64{cu, cv}, V: w})
			}
			return out, nil
		})
		merged := dataflow.ReduceByKey(condensed, func(a, b float64) float64 { return a + b }, parts)
		current = dataflow.Map(merged, func(kv dataflow.KV[[2]int64, float64]) Edge {
			return Edge{Src: kv.K[0], Dst: kv.K[1], W: kv.V}
		})
		if moves == 0 {
			break
		}
	}

	res.Assignment = composed
	seen := make(map[int64]bool)
	for _, c := range composed {
		seen[c] = true
	}
	res.Communities = len(seen)
	q, err := modularityOf(edges, composed)
	if err != nil {
		return nil, err
	}
	res.Modularity = q
	return res, nil
}

// modularityPass runs greedy modularity-optimization sweeps over one
// graph and returns the final vertex→community map and the number of
// moves performed.
func modularityPass(ctx *Context, edges *dataflow.RDD[Edge], iters, parts int) (map[int64]int64, int64, error) {
	wnbrs := ToWeightedNeighborTables(edges, parts).Cache()
	defer wnbrs.Unpersist()

	v2cName := ctx.ModelName("fu.v2c")
	c2wName := ctx.ModelName("fu.c2w")
	v2c, err := ctx.Agent.CreateSparseVector(v2cName)
	if err != nil {
		return nil, 0, err
	}
	c2w, err := ctx.Agent.CreateSparseVector(c2wName)
	if err != nil {
		return nil, 0, err
	}
	defer cleanupModels(ctx, v2cName, c2wName)

	// Initialize: each vertex its own community (step 3 of Sec. IV-C);
	// com2weight starts as the vertex strengths. Also compute 2m.
	var twoMBits atomic.Uint64
	addTwoM := func(x float64) {
		for {
			old := twoMBits.Load()
			nw := math.Float64frombits(old) + x
			if twoMBits.CompareAndSwap(old, math.Float64bits(nw)) {
				return
			}
		}
	}
	err = wnbrs.ForeachPartition(func(part int, tables []dataflow.KV[int64, []WeightedNeighbor]) error {
		initCom := make(map[int64]float64, len(tables))
		initW := make(map[int64]float64, len(tables))
		var local float64
		for _, t := range tables {
			var ki float64
			for _, nb := range t.V {
				ki += nb.W
			}
			initCom[t.K] = float64(t.K)
			initW[t.K] = ki
			local += ki
		}
		addTwoM(local)
		if err := v2c.PushSet(initCom); err != nil {
			return err
		}
		return c2w.PushAdd(initW)
	})
	if err != nil {
		return nil, 0, err
	}
	twoM := math.Float64frombits(twoMBits.Load())

	var totalMoves int64
	for it := 0; it < iters; it++ {
		// Parity gating: with every vertex deciding on the same snapshot,
		// two adjacent vertices can swap communities forever (the classic
		// oscillation of synchronous parallel Louvain). Letting only one
		// id parity move per sweep breaks every 2-cycle while staying
		// deterministic.
		parity := int64(it % 2)
		var moves atomic.Int64
		err := wnbrs.ForeachPartition(func(part int, tables []dataflow.KV[int64, []WeightedNeighbor]) error {
			if len(tables) == 0 {
				return nil
			}
			// Pull the communities of local vertices and all neighbors.
			idSet := make(map[int64]bool)
			for _, t := range tables {
				idSet[t.K] = true
				for _, nb := range t.V {
					idSet[nb.Dst] = true
				}
			}
			ids := make([]int64, 0, len(idSet))
			for id := range idSet {
				ids = append(ids, id)
			}
			coms, err := v2c.Pull(ids)
			if err != nil {
				return err
			}
			// Pull Σ_tot for every candidate community.
			comSet := make(map[int64]bool)
			for _, c := range coms {
				comSet[int64(c)] = true
			}
			comIDs := make([]int64, 0, len(comSet))
			for c := range comSet {
				comIDs = append(comIDs, c)
			}
			tots, err := c2w.Pull(comIDs)
			if err != nil {
				return err
			}

			v2cUpd := make(map[int64]float64)
			c2wUpd := make(map[int64]float64)
			for _, t := range tables {
				v := t.K
				if ((v%2)+2)%2 != parity {
					continue
				}
				own := int64(coms[v])
				var ki float64
				kin := make(map[int64]float64) // candidate community -> k_{i,in}
				for _, nb := range t.V {
					ki += nb.W
					c := int64(coms[nb.Dst])
					if nb.Dst != v {
						kin[c] += nb.W
					}
				}
				// Gain of moving v into community C (v removed from its own
				// community first): ΔQ ∝ k_{i,in}(C) − Σ_tot'(C)·k_i/2m.
				best := own
				bestGain := kin[own] - (tots[own]-ki)*ki/twoM
				for c, kc := range kin {
					if c == own {
						continue
					}
					gain := kc - tots[c]*ki/twoM
					// Strictly better wins; equal gains break toward the
					// smaller community id so the sweep is deterministic
					// (map iteration order is not).
					if gain > bestGain+1e-12 || (gain > bestGain-1e-12 && c < best) {
						best = c
						bestGain = gain
					}
				}
				if best != own {
					v2cUpd[v] = float64(best)
					c2wUpd[own] -= ki
					c2wUpd[best] += ki
					moves.Add(1)
				}
			}
			if len(v2cUpd) == 0 {
				return nil
			}
			if err := v2c.PushSet(v2cUpd); err != nil {
				return err
			}
			return c2w.PushAdd(c2wUpd)
		})
		if err != nil {
			return nil, 0, err
		}
		totalMoves += moves.Load()
		if moves.Load() == 0 {
			break
		}
	}

	final, err := v2c.PullAll()
	if err != nil {
		return nil, 0, err
	}
	assign := make(map[int64]int64, len(final))
	for v, c := range final {
		assign[v] = int64(c)
	}
	return assign, totalMoves, nil
}

// modularityOf computes Q of an assignment over the original edge set.
func modularityOf(edges *dataflow.RDD[Edge], assign map[int64]int64) (float64, error) {
	all, err := edges.Collect()
	if err != nil {
		return 0, err
	}
	var twoM, in float64
	tot := make(map[int64]float64)
	for _, e := range all {
		w := e.W
		if w == 0 {
			w = 1
		}
		twoM += 2 * w
		cu, cv := assign[e.Src], assign[e.Dst]
		if cu == cv {
			in += 2 * w
		}
		tot[cu] += w
		tot[cv] += w
	}
	if twoM == 0 {
		return 0, nil
	}
	q := in / twoM
	for _, t := range tot {
		q -= (t / twoM) * (t / twoM)
	}
	return q, nil
}

package core

import (
	"cmp"
	"maps"
	"slices"

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
// of voteRounds (executors pull the current community assignment of their
// vertices and neighbors plus the community weight totals, reassign
// vertices greedily by modularity gain against that snapshot, and the
// moves are pushed once every partition has voted), then aggregates
// communities into a condensed graph for the next pass.
func FastUnfolding(ctx *Context, edges *dataflow.RDD[Edge], cfg FastUnfoldingConfig) (*FastUnfoldingResult, error) {
	cfg.Passes, cfg.Iterations = cmp.Or(max(cfg.Passes, 0), 2), cmp.Or(max(cfg.Iterations, 0), 10)
	parts := ctx.Partitions()

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
				w := cmp.Or(e.W, 1)
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

// colours is the number of colour classes that gate fast unfolding's
// moves: a round moves only the vertices v with v mod colours equal to its
// class. The vertices of a round decide against one snapshot, and the
// more of them decide together, the further the result falls from
// sequential Louvain's: on an R-MAT graph of 2^11 vertices, two classes
// (id parity) reach Q 0.113, six 0.171 (DESIGN.md §8.3). A round pulls
// only its class, so more classes cost no more per sweep.
const colours = 6

// modularityPass runs greedy modularity-optimization sweeps over one
// graph and returns the final vertex→community map and the number of
// moves performed. Each sweep is colours/2 voteRounds of one colour class
// each, so a full update — every class once — takes two sweeps, and the
// pass stops after a full update without a move.
func modularityPass(ctx *Context, edges *dataflow.RDD[Edge], iters, parts int) (map[int64]int64, int64, error) {
	type table = dataflow.KV[int64, []WeightedNeighbor]
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
	// com2weight starts as the vertex strengths, and 2m is their sum,
	// added per partition in vertex order, then in partition order.
	strength := make([]float64, wnbrs.NumPartitions())
	err = wnbrs.ForeachPartition(func(part int, tables []table) error {
		ids := make([]int64, len(tables))
		coms := make([]float64, len(tables))
		ks := make([]float64, len(tables))
		for i, t := range tables {
			ids[i], coms[i] = t.K, float64(t.K)
			for _, nb := range t.V {
				ks[i] += nb.W
			}
			strength[part] += ks[i]
		}
		if err := v2c.PushSet(ids, coms); err != nil {
			return err
		}
		return c2w.PushAdd(ids, ks)
	})
	if err != nil {
		return nil, 0, err
	}
	var twoM float64
	for _, s := range strength {
		twoM += s
	}

	var class int64 // the colour class the current round moves
	moving := func(v int64) bool { return (v%colours+colours)%colours == class }
	reads := func(tables []table) []int64 {
		var ids []int64
		for _, t := range tables {
			if moving(t.K) {
				ids = append(ids, t.K)
				for _, nb := range t.V {
					ids = append(ids, nb.Dst)
				}
			}
		}
		return ids
	}
	// The Σ_tot changes of each partition's moves: community, delta.
	dCom := make([][]int64, len(strength))
	dTot := make([][]float64, len(strength))
	decide := func(part int, tables []table, coms []float64) ([]int64, []float64, error) {
		// Σ_tot of every candidate community: those of the pulled vertices,
		// numbered so that cands[at[r]] is the community of read r.
		comIDs := make([]int64, len(coms))
		for r, c := range coms {
			comIDs[r] = int64(c)
		}
		cands, at := distinct(comIDs)
		tots, err := c2w.Pull(cands)
		if err != nil {
			return nil, nil, err
		}
		var moved []int64
		var to []float64
		// k_{i,in} per candidate, reset after each vertex; weights are
		// positive, so a zero marks a candidate not yet in touched.
		kin := make([]float64, len(cands))
		var touched []int
		r := 0
		for _, t := range tables {
			v := t.K
			if !moving(v) {
				continue
			}
			own := at[r]
			r++
			var ki float64
			for _, nb := range t.V {
				c := at[r]
				r++
				ki += nb.W
				if nb.Dst != v {
					if kin[c] == 0 {
						touched = append(touched, c)
					}
					kin[c] += nb.W
				}
			}
			// Gain of moving v into community C (v removed from its own
			// community first): ΔQ ∝ k_{i,in}(C) − Σ_tot'(C)·k_i/2m.
			// Candidates are tried in ascending community id.
			slices.Sort(touched)
			best := own
			bestGain := kin[own] - (tots[own]-ki)*ki/twoM
			for _, c := range touched {
				if c == own {
					continue
				}
				gain := kin[c] - tots[c]*ki/twoM
				// Strictly better wins; equal gains break toward the
				// smaller community id.
				if gain > bestGain+1e-12 || (gain > bestGain-1e-12 && c < best) {
					best = c
					bestGain = gain
				}
			}
			for _, c := range touched {
				kin[c] = 0
			}
			touched = touched[:0]
			if best != own {
				moved, to = append(moved, v), append(to, float64(cands[best]))
				dCom[part] = append(dCom[part], cands[own], cands[best])
				dTot[part] = append(dTot[part], -ki, ki)
			}
		}
		return moved, to, nil
	}

	var totalMoves int64
	for r, idle := 0, 0; r < iters*colours/2 && idle < colours; r++ {
		// Sweep r/(colours/2) moves one id parity, as the two-class gate
		// did, one class of it per round.
		class = int64(r/(colours/2)%2 + 2*(r%(colours/2)))
		clear(dCom)
		clear(dTot)
		moved, to, err := voteRound(wnbrs, v2c, reads, decide)
		if err != nil {
			return nil, 0, err
		}
		if len(moved) == 0 {
			idle++
			continue
		}
		idle = 0
		totalMoves += int64(len(moved))
		if err := v2c.PushSet(moved, to); err != nil {
			return nil, 0, err
		}
		// The round's Σ_tot changes, summed per community in partition
		// order, are pushed once.
		if err := c2w.PushAdd(combine(slices.Concat(dCom...), slices.Concat(dTot...), CombineSum)); err != nil {
			return nil, 0, err
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

// modularityOf computes Q of an assignment over the original edge set,
// adding the communities' Σ_tot terms in ascending community id.
func modularityOf(edges *dataflow.RDD[Edge], assign map[int64]int64) (float64, error) {
	all, err := edges.Collect()
	if err != nil {
		return 0, err
	}
	var twoM, in float64
	tot := make(map[int64]float64)
	for _, e := range all {
		w := cmp.Or(e.W, 1)
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
	for _, c := range slices.Sorted(maps.Keys(tot)) {
		q -= (tot[c] / twoM) * (tot[c] / twoM)
	}
	return q, nil
}

package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"psgraph/internal/core"
	"psgraph/internal/gen"
)

// pagerankWL: LoadEdges from DFS text → core.PageRank with a fixed number
// of iterations. Item = edge × iteration.
type pagerankWL struct {
	base
	edges []gen.Edge
	res   *core.PageRankResult
	ref   []float64
}

func (w *pagerankWL) setup() (err error) {
	w.edges, err = w.loadGraph(sz.prScale, sz.prEdges, false)
	return err
}

func (w *pagerankWL) job() error {
	return w.call("core", "core.PageRank", func() (err error) {
		edges := core.LoadEdges(w.ctx, edgesPath, 0)
		// A tolerance no residual can reach makes every run do all iterations.
		w.res, err = core.PageRank(w.ctx, edges, core.PageRankConfig{MaxIterations: sz.prIters, Tolerance: 1e-300})
		if err == nil {
			w.iterations = w.res.Iterations
		}
		return err
	})
}

func (w *pagerankWL) items() int64 { return int64(len(w.edges)) * int64(sz.prIters) }

// check compares the ranks with a sequential Δ-PageRank over the same
// edges: L1 distance at most 1e-6.
func (w *pagerankWL) check() error {
	if w.res.Iterations != sz.prIters {
		return fmt.Errorf("pagerank ran %d iterations, want %d", w.res.Iterations, sz.prIters)
	}
	got, err := w.res.Ranks.PullAll()
	if w.op(err) != nil {
		return err
	}
	if w.ref == nil {
		w.ref = sequentialPageRank(w.edges, sz.prIters)
	}
	if len(got) != len(w.ref) {
		return fmt.Errorf("pagerank: %d ranks, want %d", len(got), len(w.ref))
	}
	var l1 float64
	for i := range got {
		l1 += math.Abs(got[i] - w.ref[i])
	}
	if !(l1 <= 1e-6) {
		return fmt.Errorf("pagerank: L1 distance to the sequential ranks %g > 1e-6", l1)
	}
	return nil
}

func (w *pagerankWL) probe(m map[string]float64) error {
	if err := w.probeLoad(m); err != nil {
		return err
	}
	t0 := time.Now()
	err := w.call("dataflow", "probe.ToNeighborTables", func() error {
		edges := core.LoadEdges(w.ctx, edgesPath, 0)
		_, err := core.ToNeighborTables(edges, w.ctx.Partitions()).Count()
		return err
	})
	// The probe re-reads the edge file; what is left is the shuffle.
	m["dataflow.shuffle_s"] = math.Max(time.Since(t0).Seconds()-m["dataflow.load_s"], 0)
	return err
}

// sequentialPageRank is the reference: the same Δ-rank recurrence as
// core.PageRank (ranks accumulate (1-d)·Σ(dM)^k·1 over sorted unique
// out-neighbours, increments at or below 1e-9 are not propagated), on one
// goroutine with plain slices.
func sequentialPageRank(edges []gen.Edge, iters int) []float64 {
	const damping, threshold = 0.85, 1e-9
	n := gen.MaxVertexID(edges) + 1
	sorted := append([]gen.Edge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Src != sorted[j].Src {
			return sorted[i].Src < sorted[j].Src
		}
		return sorted[i].Dst < sorted[j].Dst
	})
	ranks := make([]float64, n)
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = 1 - damping
	}
	for it := 0; it < iters; it++ {
		for lo := 0; lo < len(sorted); {
			src := sorted[lo].Src
			hi, deg := lo, 0
			for ; hi < len(sorted) && sorted[hi].Src == src; hi++ {
				if hi == lo || sorted[hi].Dst != sorted[hi-1].Dst {
					deg++
				}
			}
			if d := cur[src]; d > threshold || d < -threshold {
				share := damping * d / float64(deg)
				for i := lo; i < hi; i++ {
					if i == lo || sorted[i].Dst != sorted[i-1].Dst {
						next[sorted[i].Dst] += share
					}
				}
			}
			lo = hi
		}
		for i := range ranks {
			ranks[i] += cur[i]
			cur[i], next[i] = next[i], 0
		}
	}
	return ranks
}

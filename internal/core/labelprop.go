package core

import (
	"slices"

	"psgraph/internal/dataflow"
	"psgraph/internal/ps"
)

// LabelPropagationConfig tunes the community detector; it has no knobs
// yet. Propagation stops when a round changes nothing, or after
// lpMaxIterations rounds: unlike peeling, label votes can oscillate.
type LabelPropagationConfig struct{}

const lpMaxIterations = 20

// LabelPropagationResult reports the detected communities.
type LabelPropagationResult struct {
	// Assignment maps every vertex to its community label.
	Assignment map[int64]int64
	// Communities is the number of distinct labels.
	Communities int
	// Iterations actually executed.
	Iterations int
}

// LabelPropagation detects densely connected communities (Sec. II-B lists
// it among the traditional graph algorithms PSGraph serves) with the same
// PS pattern as fast unfolding: the vertex→label model lives on the
// parameter server as a sparse vector, and each round is a voteRound in
// which every vertex decides: it adopts the most frequent label among its
// own and its neighbours' (the smallest label breaks ties, which also
// dampens oscillation). The loop stops when a round changes nothing.
func LabelPropagation(ctx *Context, edges *dataflow.RDD[Edge], cfg LabelPropagationConfig) (*LabelPropagationResult, error) {
	type table = dataflow.KV[int64, []int64]
	parts := ctx.Partitions()
	nbrs := ToUndirectedNeighborTables(edges, parts).Cache()
	defer nbrs.Unpersist()

	labelsName := ctx.ModelName("lpa.labels")
	labels, err := ctx.Agent.CreateSparseVector(labelsName)
	if err != nil {
		return nil, err
	}
	defer cleanupModels(ctx, labelsName)

	// Every vertex starts in its own community.
	err = nbrs.ForeachPartition(func(_ int, tables []table) error {
		ids := make([]int64, len(tables))
		init := make([]float64, len(tables))
		for i, t := range tables {
			ids[i], init[i] = t.K, float64(t.K)
		}
		return labels.PushSet(ids, init)
	})
	if err != nil {
		return nil, err
	}

	reads := func(tables []table) []int64 {
		ids := make([]int64, 0, len(tables))
		for _, t := range tables {
			ids = append(append(ids, t.K), t.V...)
		}
		return ids
	}
	vote := func(_ int, tables []table, cur []float64) ([]int64, []float64, error) {
		var moved []int64
		var to, votes []float64
		for _, t := range tables {
			// The vertex's own label votes too: this damps the
			// two-coloring oscillation of synchronous label propagation
			// on bipartite structures.
			own := cur[0]
			votes = append(votes[:0], cur[:1+len(t.V)]...)
			cur = cur[1+len(t.V):]
			slices.Sort(votes)
			best, bestCount := own, 0
			for i := 0; i < len(votes); {
				j := i + 1
				for j < len(votes) && votes[j] == votes[i] {
					j++
				}
				if j-i > bestCount {
					best, bestCount = votes[i], j-i
				}
				i = j
			}
			if best != own {
				moved, to = append(moved, t.K), append(to, best)
			}
		}
		return moved, to, nil
	}

	it := 0
	for ; it < lpMaxIterations; it++ {
		moved, to, err := voteRound(nbrs, labels, reads, vote)
		if err != nil {
			return nil, err
		}
		if len(moved) == 0 {
			break
		}
		if err := labels.PushSet(moved, to); err != nil {
			return nil, err
		}
	}

	final, err := labels.PullAll()
	if err != nil {
		return nil, err
	}
	res := &LabelPropagationResult{
		Assignment: make(map[int64]int64, len(final)),
		Iterations: it,
	}
	seen := make(map[int64]bool)
	for v, l := range final {
		res.Assignment[v] = int64(l)
		seen[int64(l)] = true
	}
	res.Communities = len(seen)
	return res, nil
}

// voteRound is one vote-then-publish round of a community detector whose
// vertex→community model lives on the PS as a sparse vector. Every
// partition of tables lists, through reads, the ids its deciding vertices
// and their neighbours read, gathers their values from model, and decides
// against that snapshot: decide gets the value of every read in the order
// reads listed them, walks the same vertices in the same order, and stages
// the partition's moves as ascending (ids, vals). Nothing is pushed while
// any partition is still voting — one partition's push racing another's
// pull would make the outcome depend on executor scheduling — so the
// round returns every partition's moves, concatenated in partition order,
// for the caller to publish.
func voteRound[V any](tables *dataflow.RDD[dataflow.KV[int64, V]], model *ps.SparseVec,
	reads func(in []dataflow.KV[int64, V]) []int64,
	decide func(part int, in []dataflow.KV[int64, V], vals []float64) ([]int64, []float64, error),
) ([]int64, []float64, error) {
	moved := make([][]int64, tables.NumPartitions())
	to := make([][]float64, len(moved))
	err := tables.ForeachPartition(func(part int, in []dataflow.KV[int64, V]) error {
		vals, err := gather(model.Pull, reads(in))
		if err != nil || len(vals) == 0 {
			return err
		}
		moved[part], to[part], err = decide(part, in, vals)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return slices.Concat(moved...), slices.Concat(to...), nil
}

package core

import (
	"slices"

	"psgraph/internal/dataflow"
	"psgraph/internal/ps"
)

// LabelPropagationConfig tunes the community detector.
type LabelPropagationConfig struct {
	// MaxIterations bounds the propagation rounds. Defaults to 20.
	MaxIterations int
	// Parts overrides the RDD partition count.
	Parts int
}

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
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 20
	}
	parts := cfg.Parts
	if parts <= 0 {
		parts = ctx.Partitions()
	}
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
	for ; it < cfg.MaxIterations; it++ {
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
// and their neighbours read, pulls their values from model in one
// positional pull of the distinct ids, and decides against that
// snapshot: decide gets the value of every read in the order reads listed
// them, walks the same vertices in the same order, and stages the
// partition's moves as ascending (ids, vals). Nothing is pushed while any
// partition is still voting — one partition's push racing another's pull
// would make the outcome depend on executor scheduling — so the round
// returns every partition's moves, concatenated in partition order, for
// the caller to publish.
func voteRound[V any](tables *dataflow.RDD[dataflow.KV[int64, V]], model *ps.SparseVec,
	reads func(in []dataflow.KV[int64, V]) []int64,
	decide func(part int, in []dataflow.KV[int64, V], vals []float64) ([]int64, []float64, error),
) ([]int64, []float64, error) {
	moved := make([][]int64, tables.NumPartitions())
	to := make([][]float64, len(moved))
	err := tables.ForeachPartition(func(part int, in []dataflow.KV[int64, V]) error {
		ids, at := distinct(reads(in))
		if len(ids) == 0 {
			return nil
		}
		pulled, err := model.Pull(ids)
		if err != nil {
			return err
		}
		vals := make([]float64, len(at))
		for i, j := range at {
			vals[i] = pulled[j]
		}
		moved[part], to[part], err = decide(part, in, vals)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return slices.Concat(moved...), slices.Concat(to...), nil
}

// distinct numbers the ids in reads: ids are the distinct ones, ascending,
// and reads[i] == ids[at[i]].
func distinct(reads []int64) (ids []int64, at []int) {
	pairs := make([]idPair, len(reads))
	for i, id := range reads {
		pairs[i] = idPair{K: id, V: int64(i)}
	}
	pairs, _ = sortByK(pairs, make([]idPair, len(pairs)))
	at = make([]int, len(reads))
	for _, p := range pairs {
		if n := len(ids); n == 0 || ids[n-1] != p.K {
			ids = append(ids, p.K)
		}
		at[p.V] = len(ids) - 1
	}
	return ids, at
}

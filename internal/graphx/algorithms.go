package graphx

import (
	"sort"

	"psgraph/internal/dataflow"
)

// PageRank runs the classic dataflow PageRank for iters iterations: every
// iteration joins the (cached) adjacency table with the full rank table,
// fans contributions out to destinations and reduces them by key. All
// ranks are recomputed and shuffled every iteration — GraphX has no
// equivalent of PSGraph's Δ-rank sparsity optimization.
func PageRank(edges *dataflow.RDD[Edge], iters, parts int) (*dataflow.RDD[dataflow.KV[int64, float64]], error) {
	pairs := dataflow.Map(edges, func(e Edge) dataflow.KV[int64, int64] {
		return dataflow.KV[int64, int64]{K: e.Src, V: e.Dst}
	})
	links := dataflow.GroupByKey(pairs, parts).Cache()
	defer links.Unpersist()

	ranks := dataflow.Map(links, func(kv dataflow.KV[int64, []int64]) dataflow.KV[int64, float64] {
		return dataflow.KV[int64, float64]{K: kv.K, V: 1.0}
	})
	for it := 0; it < iters; it++ {
		joined := dataflow.Join(links, ranks, parts)
		contribs := dataflow.FlatMap(joined, func(kv dataflow.KV[int64, dataflow.Pair[[]int64, float64]]) []dataflow.KV[int64, float64] {
			dsts := kv.V.A
			share := kv.V.B / float64(len(dsts))
			out := make([]dataflow.KV[int64, float64], len(dsts))
			for i, d := range dsts {
				out[i] = dataflow.KV[int64, float64]{K: d, V: share}
			}
			return out
		})
		summed := dataflow.ReduceByKey(contribs, func(a, b float64) float64 { return a + b }, parts)
		next := dataflow.Map(summed, func(kv dataflow.KV[int64, float64]) dataflow.KV[int64, float64] {
			return dataflow.KV[int64, float64]{K: kv.K, V: 0.15 + 0.85*kv.V}
		})
		// Materialize each iteration (Spark jobs are chained actions).
		if _, err := next.Count(); err != nil {
			return nil, err
		}
		ranks = next
	}
	return ranks, nil
}

// neighborLists materializes the undirected adjacency of the graph as a
// keyed RDD of sorted neighbor arrays.
func neighborLists(edges *dataflow.RDD[Edge], parts int) *dataflow.RDD[dataflow.KV[int64, []int64]] {
	bidir := dataflow.FlatMap(edges, func(e Edge) []dataflow.KV[int64, int64] {
		return []dataflow.KV[int64, int64]{{K: e.Src, V: e.Dst}, {K: e.Dst, V: e.Src}}
	})
	grouped := dataflow.GroupByKey(bidir, parts)
	return dataflow.Map(grouped, func(kv dataflow.KV[int64, []int64]) dataflow.KV[int64, []int64] {
		ns := kv.V
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		// Deduplicate (graphs may contain reciprocal edges).
		out := ns[:0]
		var prev int64 = -1 << 62
		for _, n := range ns {
			if n != prev {
				out = append(out, n)
				prev = n
			}
		}
		return dataflow.KV[int64, []int64]{K: kv.K, V: out}
	})
}

// sortedIntersectCount counts common elements of two sorted slices.
func sortedIntersectCount(a, b []int64) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// CommonNeighbor scores each candidate pair with the number of common
// neighbors. The GraphX realization joins the full neighbor lists of both
// endpoints onto every pair — two edge-scale joins whose intermediate rows
// each carry entire adjacency arrays.
func CommonNeighbor(edges *dataflow.RDD[Edge], pairs *dataflow.RDD[Edge], parts int) (*dataflow.RDD[dataflow.KV[Edge, int64]], error) {
	nbrs := neighborLists(edges, parts).Cache()
	defer nbrs.Unpersist()

	bySrc := dataflow.Map(pairs, func(p Edge) dataflow.KV[int64, Edge] {
		return dataflow.KV[int64, Edge]{K: p.Src, V: p}
	})
	withSrc := dataflow.Join(bySrc, nbrs, parts)
	byDst := dataflow.Map(withSrc, func(kv dataflow.KV[int64, dataflow.Pair[Edge, []int64]]) dataflow.KV[int64, dataflow.Pair[Edge, []int64]] {
		return dataflow.KV[int64, dataflow.Pair[Edge, []int64]]{K: kv.V.A.Dst, V: kv.V}
	})
	withBoth := dataflow.Join(byDst, nbrs, parts)
	scored := dataflow.Map(withBoth, func(kv dataflow.KV[int64, dataflow.Pair[dataflow.Pair[Edge, []int64], []int64]]) dataflow.KV[Edge, int64] {
		pair := kv.V.A.A
		return dataflow.KV[Edge, int64]{K: pair, V: sortedIntersectCount(kv.V.A.B, kv.V.B)}
	})
	if _, err := scored.Count(); err != nil {
		return nil, err
	}
	return scored, nil
}

// TriangleCount counts the triangles of the undirected graph. Like
// GraphX, it ships both endpoints' full neighbor sets to every edge and
// intersects them — the per-edge intermediate data is a multiple of the
// raw edge table, which is what pushes executors past their budget on
// power-law graphs (Fig. 6: OOM).
func TriangleCount(edges *dataflow.RDD[Edge], parts int) (int64, error) {
	nbrs := neighborLists(edges, parts).Cache()
	defer nbrs.Unpersist()

	// Canonical direction so each undirected edge is counted once.
	canon := dataflow.Map(edges, func(e Edge) Edge {
		if e.Src > e.Dst {
			e.Src, e.Dst = e.Dst, e.Src
		}
		return e
	})
	uniq := dataflow.Distinct(canon, parts)
	bySrc := dataflow.Map(uniq, func(e Edge) dataflow.KV[int64, Edge] {
		return dataflow.KV[int64, Edge]{K: e.Src, V: e}
	})
	withSrc := dataflow.Join(bySrc, nbrs, parts)
	byDst := dataflow.Map(withSrc, func(kv dataflow.KV[int64, dataflow.Pair[Edge, []int64]]) dataflow.KV[int64, dataflow.Pair[Edge, []int64]] {
		return dataflow.KV[int64, dataflow.Pair[Edge, []int64]]{K: kv.V.A.Dst, V: kv.V}
	})
	withBoth := dataflow.Join(byDst, nbrs, parts)
	counts := dataflow.Map(withBoth, func(kv dataflow.KV[int64, dataflow.Pair[dataflow.Pair[Edge, []int64], []int64]]) int64 {
		return sortedIntersectCount(kv.V.A.B, kv.V.B)
	})
	total, err := counts.Reduce(func(a, b int64) int64 { return a + b })
	if err != nil {
		return 0, err
	}
	// Every triangle is counted once per edge, i.e. three times.
	return total / 3, nil
}

// vcKey is a (vertex, community) pair: fast unfolding's k_{i,in} key.
type vcKey struct {
	V int64
	C int64
}

// FastUnfolding runs the modularity-optimization phase of fast unfolding
// (Louvain) in the dataflow model: every pass joins the edge table with
// the current community assignment (both directions), aggregates
// per-community weights with reduceByKey, and reassigns each vertex to the
// neighboring community with maximal modularity gain.
func FastUnfolding(edges *dataflow.RDD[Edge], passes, parts int) (*dataflow.RDD[dataflow.KV[int64, int64]], float64, error) {
	bidir := dataflow.FlatMap(edges, func(e Edge) []dataflow.KV[int64, Edge] {
		w := e.W
		if w == 0 {
			w = 1
		}
		return []dataflow.KV[int64, Edge]{
			{K: e.Src, V: Edge{Src: e.Src, Dst: e.Dst, W: w}},
			{K: e.Dst, V: Edge{Src: e.Dst, Dst: e.Src, W: w}},
		}
	}).Cache()
	defer bidir.Unpersist()

	// Total edge weight m and per-vertex strength k_i.
	strengths := dataflow.ReduceByKey(
		dataflow.Map(bidir, func(kv dataflow.KV[int64, Edge]) dataflow.KV[int64, float64] {
			return dataflow.KV[int64, float64]{K: kv.K, V: kv.V.W}
		}),
		func(a, b float64) float64 { return a + b }, parts).Cache()
	defer strengths.Unpersist()
	sumRows, err := dataflow.Map(strengths, func(kv dataflow.KV[int64, float64]) float64 { return kv.V }).
		Reduce(func(a, b float64) float64 { return a + b })
	if err != nil {
		return nil, 0, err
	}
	twoM := sumRows // sum of strengths = 2m

	// community: vertex -> community id, initialized to self.
	community := dataflow.Map(strengths, func(kv dataflow.KV[int64, float64]) dataflow.KV[int64, int64] {
		return dataflow.KV[int64, int64]{K: kv.K, V: kv.K}
	})

	for pass := 0; pass < passes; pass++ {
		// Community strength totals Σ_tot.
		withK := dataflow.Join(community, strengths, parts)
		comTot := dataflow.ReduceByKey(
			dataflow.Map(withK, func(kv dataflow.KV[int64, dataflow.Pair[int64, float64]]) dataflow.KV[int64, float64] {
				return dataflow.KV[int64, float64]{K: kv.V.A, V: kv.V.B}
			}),
			func(a, b float64) float64 { return a + b }, parts)

		// Tag each edge with the community of its destination: join on dst.
		byDst := dataflow.Map(bidir, func(kv dataflow.KV[int64, Edge]) dataflow.KV[int64, Edge] {
			return dataflow.KV[int64, Edge]{K: kv.V.Dst, V: kv.V}
		})
		edgeCom := dataflow.Join(byDst, community, parts)
		// Re-key by (src, dstCommunity) and sum weights: k_{i,in} per com.
		kiin := dataflow.ReduceByKey(
			dataflow.Map(edgeCom, func(kv dataflow.KV[int64, dataflow.Pair[Edge, int64]]) dataflow.KV[vcKey, float64] {
				return dataflow.KV[vcKey, float64]{K: vcKey{V: kv.V.A.Src, C: kv.V.B}, V: kv.V.A.W}
			}),
			func(a, b float64) float64 { return a + b }, parts)
		// Attach Σ_tot of the candidate community.
		byCom := dataflow.Map(kiin, func(kv dataflow.KV[vcKey, float64]) dataflow.KV[int64, dataflow.Pair[vcKey, float64]] {
			return dataflow.KV[int64, dataflow.Pair[vcKey, float64]]{K: kv.K.C, V: dataflow.Pair[vcKey, float64]{A: kv.K, B: kv.V}}
		})
		withTot := dataflow.Join(byCom, comTot, parts)
		// Attach k_i of the vertex and score ΔQ ~ k_iin - Σ_tot*k_i/2m.
		byV := dataflow.Map(withTot, func(kv dataflow.KV[int64, dataflow.Pair[dataflow.Pair[vcKey, float64], float64]]) dataflow.KV[int64, [3]float64] {
			vc := kv.V.A.A
			return dataflow.KV[int64, [3]float64]{K: vc.V, V: [3]float64{float64(vc.C), kv.V.A.B, kv.V.B}}
		})
		withKi := dataflow.Join(byV, strengths, parts)
		best := dataflow.ReduceByKey(
			dataflow.Map(withKi, func(kv dataflow.KV[int64, dataflow.Pair[[3]float64, float64]]) dataflow.KV[int64, [2]float64] {
				com, kin, tot := kv.V.A[0], kv.V.A[1], kv.V.A[2]
				ki := kv.V.B
				gain := kin - tot*ki/twoM
				return dataflow.KV[int64, [2]float64]{K: kv.K, V: [2]float64{com, gain}}
			}),
			func(a, b [2]float64) [2]float64 {
				// Deterministic: higher gain wins; near-ties break toward
				// the smaller community id regardless of reduce order.
				switch {
				case a[1] > b[1]+1e-12:
					return a
				case b[1] > a[1]+1e-12:
					return b
				case a[0] <= b[0]:
					return a
				default:
					return b
				}
			}, parts)
		next := dataflow.Map(best, func(kv dataflow.KV[int64, [2]float64]) dataflow.KV[int64, int64] {
			return dataflow.KV[int64, int64]{K: kv.K, V: int64(kv.V[0])}
		})
		if _, err := next.Count(); err != nil {
			return nil, 0, err
		}
		community = next
	}

	q, err := modularity(bidir, community, twoM)
	if err != nil {
		return nil, 0, err
	}
	return community, q, nil
}

// modularity computes Q of a community assignment. This is evaluation
// code, not part of the iterated algorithm, so the assignment is
// collected to the driver and Q computed there (as the PSGraph side does).
func modularity(bidir *dataflow.RDD[dataflow.KV[int64, Edge]], community *dataflow.RDD[dataflow.KV[int64, int64]], twoM float64) (float64, error) {
	assignRows, err := community.Collect()
	if err != nil {
		return 0, err
	}
	assign := make(map[int64]int64, len(assignRows))
	for _, kv := range assignRows {
		assign[kv.K] = kv.V
	}
	edges, err := bidir.Collect()
	if err != nil {
		return 0, err
	}
	var in float64
	tot := make(map[int64]float64)
	for _, kv := range edges {
		e := kv.V
		cu, cv := assign[e.Src], assign[e.Dst]
		if cu == cv {
			in += e.W
		}
		tot[cu] += e.W
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

// KCoreDecompose computes the coreness of every vertex by running the
// subgraph-chain peeling for k = 1, 2, … until the graph is exhausted,
// the way k-core is written against the GraphX API: each round calls
// subgraph() to drop dead endpoints -- lowered, as in GraphX, onto joins
// of the edge table with the survivor set -- and caches the filtered graph
// so the next round does not recompute the whole subgraph chain from the
// original edges. Across a full decomposition the chain spans every
// peeling round of every k, which is where this implementation's memory
// grows far beyond the raw graph size (and OOMs on billion-scale graphs,
// Fig. 6).
func KCoreDecompose(edges *dataflow.RDD[Edge], parts, maxRounds int) (map[int64]int64, int64, error) {
	// Parallel edges must not inflate degrees: distinct() the
	// bidirectional edge list before peeling.
	bidir := dataflow.Distinct(dataflow.FlatMap(edges, func(e Edge) []dataflow.KV[int64, int64] {
		return []dataflow.KV[int64, int64]{{K: e.Src, V: e.Dst}, {K: e.Dst, V: e.Src}}
	}), parts).Cache()
	defer bidir.Unpersist()

	var chain []*dataflow.RDD[dataflow.KV[int64, int64]]
	defer func() {
		for _, r := range chain {
			r.Unpersist()
		}
	}()

	// Initial degrees and alive set.
	degrees := dataflow.ReduceByKey(
		dataflow.Map(bidir, func(kv dataflow.KV[int64, int64]) dataflow.KV[int64, int64] {
			return dataflow.KV[int64, int64]{K: kv.K, V: 1}
		}),
		func(a, b int64) int64 { return a + b }, parts)
	aliveRows, err := degrees.Collect()
	if err != nil {
		return nil, 0, err
	}
	aliveSet := make(map[int64]bool, len(aliveRows))
	for _, kv := range aliveRows {
		aliveSet[kv.K] = true
	}
	coreness := make(map[int64]int64, len(aliveSet))

	cur := bidir
	rounds := 0
	var maxCore int64
	for k := int64(1); len(aliveSet) > 0 && rounds < maxRounds; k++ {
		for rounds < maxRounds {
			rounds++
			alive := make([]dataflow.KV[int64, struct{}], 0, len(aliveSet))
			for v := range aliveSet {
				alive = append(alive, dataflow.KV[int64, struct{}]{K: v})
			}
			aliveRDD := dataflow.Parallelize(cur.Context(), alive, parts)
			// subgraph(): keep edges with both endpoints alive.
			bySrc := dataflow.Join(cur, aliveRDD, parts)
			byDst := dataflow.Map(bySrc, func(kv dataflow.KV[int64, dataflow.Pair[int64, struct{}]]) dataflow.KV[int64, int64] {
				return dataflow.KV[int64, int64]{K: kv.V.A, V: kv.K}
			})
			survivingE := dataflow.Map(
				dataflow.Join(byDst, aliveRDD, parts),
				func(kv dataflow.KV[int64, dataflow.Pair[int64, struct{}]]) dataflow.KV[int64, int64] {
					return dataflow.KV[int64, int64]{K: kv.V.A, V: kv.K}
				}).Cache()
			chain = append(chain, survivingE)
			degs := dataflow.ReduceByKey(
				dataflow.Map(survivingE, func(kv dataflow.KV[int64, int64]) dataflow.KV[int64, int64] {
					return dataflow.KV[int64, int64]{K: kv.K, V: 1}
				}),
				func(a, b int64) int64 { return a + b }, parts)
			rows, err := degs.Collect()
			if err != nil {
				return nil, 0, err
			}
			surviving := make(map[int64]bool, len(rows))
			for _, kv := range rows {
				if kv.V >= k {
					surviving[kv.K] = true
				}
			}
			removedAny := false
			for v := range aliveSet {
				if !surviving[v] {
					coreness[v] = k - 1
					if k-1 > maxCore {
						maxCore = k - 1
					}
					delete(aliveSet, v)
					removedAny = true
				}
			}
			cur = survivingE
			if !removedAny {
				break
			}
		}
	}
	return coreness, maxCore, nil
}

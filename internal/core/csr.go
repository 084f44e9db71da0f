package core

import (
	"fmt"
	"math"

	"psgraph/internal/dataflow"
)

// csrBlock is one partition's out-adjacency in compressed sparse row
// form — what PageRank keeps cached instead of a table per vertex.
// Destinations are indexed locally: dstIDs holds the sorted distinct
// destinations of *this* partition and adj names each edge's destination
// by its position there, so an iteration accumulates into a dense
// []float64 of len(dstIDs) (the cardinality a per-iteration hash map
// had) and never needs a vertex-count-sized array per task.
//
// A block is immutable once built and shared by every task that reads
// the cached partition; per-iteration scratch belongs to scatter's
// caller.
type csrBlock struct {
	srcs   []int64 // source vertices, one row each
	offs   []int32 // row i is adj[offs[i]:offs[i+1]]
	dstIDs []int64 // sorted distinct destinations
	adj    []int32 // per edge: index of its destination in dstIDs
	maxID  int64   // largest vertex id in the block, -1 when empty
}

// MemBytes reports the block's exact footprint to the cache accounting.
func (b *csrBlock) MemBytes() int64 {
	return int64(len(b.srcs)+len(b.dstIDs))*8 + int64(len(b.offs)+len(b.adj))*4
}

// csrBlocks turns neighbor tables into one csrBlock per non-empty
// partition.
func csrBlocks(tables *dataflow.RDD[dataflow.KV[int64, []int64]]) *dataflow.RDD[*csrBlock] {
	return dataflow.MapPartitions(tables, func(part int, in []dataflow.KV[int64, []int64]) ([]*csrBlock, error) {
		if len(in) == 0 {
			return nil, nil
		}
		b, err := buildCSR(in)
		if err != nil {
			return nil, fmt.Errorf("core: partition %d: %w", part, err)
		}
		return []*csrBlock{b}, nil
	})
}

// numVertices is the dense vector size read off the cached blocks.
func numVertices(blocks *dataflow.RDD[*csrBlock]) (int64, error) {
	return vectorSize(blocks, func(b *csrBlock) int64 { return b.maxID })
}

// tablesNumVertices is the same for algorithms that cache the neighbor
// tables themselves (V is sorted, so its last entry is its largest).
func tablesNumVertices(tables *dataflow.RDD[dataflow.KV[int64, []int64]]) (int64, error) {
	return vectorSize(tables, func(kv dataflow.KV[int64, []int64]) int64 {
		if n := len(kv.V); n > 0 {
			return max(kv.K, kv.V[n-1])
		}
		return kv.K
	})
}

func buildCSR(tables []dataflow.KV[int64, []int64]) (*csrBlock, error) {
	edges := 0
	for _, t := range tables {
		edges += len(t.V)
	}
	if edges > math.MaxInt32 {
		return nil, fmt.Errorf("%d edges exceed the 32-bit local index; use more partitions", edges)
	}
	b := &csrBlock{
		srcs:  make([]int64, len(tables)),
		offs:  make([]int32, len(tables)+1),
		adj:   make([]int32, edges),
		maxID: -1,
	}
	// Sort (destination, edge position) by destination: walking the
	// result yields the distinct destinations in order and, for every
	// edge, the rank of its destination among them.
	byDst := make([]idPair, edges)
	e := 0
	for i, t := range tables {
		b.srcs[i], b.offs[i] = t.K, int32(e)
		b.maxID = max(b.maxID, t.K)
		for _, d := range t.V {
			byDst[e] = idPair{K: d, V: int64(e)}
			e++
		}
	}
	b.offs[len(tables)] = int32(e)
	byDst, _ = sortByK(byDst, make([]idPair, edges))
	distinct := 0
	for i := range byDst {
		if i == 0 || byDst[i].K != byDst[i-1].K {
			distinct++
		}
	}
	b.dstIDs = make([]int64, 0, distinct)
	for i, p := range byDst {
		if i == 0 || p.K != byDst[i-1].K {
			b.dstIDs = append(b.dstIDs, p.K)
		}
		b.adj[p.V] = int32(len(b.dstIDs) - 1)
	}
	if distinct > 0 {
		b.maxID = max(b.maxID, b.dstIDs[distinct-1])
	}
	return b, nil
}

// scatter is the executor side of one Δ-PageRank step over the block:
// every source whose pending increment deltas[i] exceeds threshold in
// magnitude sends damping·deltas[i]/outdeg to each of its destinations.
// It returns the touched destinations in ascending id order with their
// summed shares — exactly the set a push must carry; a negative
// threshold touches every destination of every source.
func (b *csrBlock) scatter(deltas []float64, damping, threshold float64) (idx []int64, vals []float64) {
	acc := make([]float64, len(b.dstIDs))
	hit := make([]bool, len(b.dstIDs))
	for i, d := range deltas {
		if d <= threshold && d >= -threshold {
			continue
		}
		row := b.adj[b.offs[i]:b.offs[i+1]]
		share := damping * d / float64(len(row))
		for _, k := range row {
			acc[k] += share
			hit[k] = true
		}
	}
	touched := 0
	for _, h := range hit {
		if h {
			touched++
		}
	}
	if touched == 0 {
		return nil, nil
	}
	idx, vals = make([]int64, 0, touched), make([]float64, 0, touched)
	for k, h := range hit {
		if h {
			idx = append(idx, b.dstIDs[k])
			vals = append(vals, acc[k])
		}
	}
	return idx, vals
}

// idPair is the element of the flat sorts below; it is the shuffle's own
// record type, so reduce sides sort what they read without converting.
type idPair = dataflow.KV[int64, int64]

// sortByK stably sorts a by K with a least-significant-digit radix sort
// (11-bit digits), skipping every digit all keys agree on — vertex ids
// are mostly small non-negative numbers, so two of the six passes run.
// tmp is scratch of the same length; the passes ping-pong between the
// two, and the slice that ends up sorted is returned first.
func sortByK(a, tmp []idPair) (sorted, scratch []idPair) {
	if len(a) < 2 {
		return a, tmp
	}
	const (
		bits = 11
		mask = 1<<bits - 1
		flip = 1 << 63 // orders negative ids before positive ones
	)
	var differ uint64
	for i := range a {
		differ |= uint64(a[i].K ^ a[0].K)
	}
	for shift := 0; shift < 64; shift += bits {
		if differ>>shift&mask == 0 {
			continue
		}
		var next [1 << bits]int
		for i := range a {
			next[(uint64(a[i].K)^flip)>>shift&mask]++
		}
		sum := 0
		for d, n := range next {
			next[d], sum = sum, sum+n
		}
		for i := range a {
			d := (uint64(a[i].K) ^ flip) >> shift & mask
			tmp[next[d]] = a[i]
			next[d]++
		}
		a, tmp = tmp, a
	}
	return a, tmp
}

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
	maxID  int64   // largest vertex id in the block
}

// MemBytes reports the block's exact footprint to the cache accounting.
func (b *csrBlock) MemBytes() int64 {
	return int64(len(b.srcs)+len(b.dstIDs))*8 + int64(len(b.offs)+len(b.adj))*4
}

// csrBlocks is PageRank's groupBy (Sec. IV-A, step 1): one csrBlock per
// non-empty partition, straight from the shuffle in two sorts. Pairs in
// destination order yield dstIDs and each edge's destination rank; (src,
// rank) stable-sorted by source then has each row's ranks ascending and
// duplicate edges adjacent, and one pass cuts srcs/offs/adj.
func csrBlocks(edges *dataflow.RDD[Edge], parts int) *dataflow.RDD[*csrBlock] {
	pairs := dataflow.Map(edges, func(e Edge) idPair { return idPair{K: e.Src, V: e.Dst} })
	return dataflow.ShuffleReduce(pairs, parts, func(t *dataflow.Task, n int, records func(func(idPair) error) error) ([]*csrBlock, error) {
		in, tmp, charged, err := readSorted(t, n, records)
		if err != nil || len(in) == 0 {
			return nil, err
		}
		distinct, _ := runs(in)
		dstIDs := make([]int64, 0, distinct)
		for i, p := range in {
			if len(dstIDs) == 0 || p.K != dstIDs[len(dstIDs)-1] { // not in[i-1]: overwritten
				dstIDs = append(dstIDs, p.K)
			}
			in[i] = idPair{K: p.V, V: int64(len(dstIDs) - 1)}
		}
		in, _ = sortByK(in, tmp) // stable: ranks stay ascending within a source
		rows, adj := runs(in)
		if adj > math.MaxInt32 {
			return nil, fmt.Errorf("core: %d edges in one partition exceed the 32-bit local index; use more partitions", adj)
		}
		block := int64(rows+distinct)*8 + int64(rows+1+adj)*4
		if err := t.Alloc(block); err != nil {
			return nil, err
		}
		b := &csrBlock{
			srcs:   make([]int64, 0, rows),
			offs:   make([]int32, 0, rows+1),
			dstIDs: dstIDs,
			adj:    make([]int32, 0, adj),
		}
		for i, p := range in {
			if i == 0 || p.K != in[i-1].K {
				b.srcs = append(b.srcs, p.K)
				b.offs = append(b.offs, int32(len(b.adj)))
			} else if p.V == in[i-1].V {
				continue // a duplicate edge
			}
			b.adj = append(b.adj, int32(p.V))
		}
		b.offs = append(b.offs, int32(len(b.adj)))
		b.maxID = max(b.srcs[rows-1], dstIDs[distinct-1])
		t.Free(charged + block) // the cache charges the block it keeps
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

// scatter is the executor side of one Δ-PageRank step over the block:
// every source whose pending increment deltas[i] exceeds threshold in
// magnitude sends damping·deltas[i]/outdeg to each of its destinations.
// It returns the destinations whose summed share is non-zero, in
// ascending id order with those sums; a negative threshold makes every
// source active and pushes every destination, zero sums included.
// PageRank's increments are sums of non-negative shares, so an active
// source's destinations are exactly the non-zero sums. Only shares of
// mixed sign that cancel to exactly 0.0 go unpushed — an add of zero.
func (b *csrBlock) scatter(deltas []float64, damping, threshold float64) (idx []int64, vals []float64) {
	acc := make([]float64, len(b.dstIDs))
	for i, d := range deltas {
		if d <= threshold && d >= -threshold {
			continue
		}
		row := b.adj[b.offs[i]:b.offs[i+1]]
		share := damping * d / float64(len(row))
		for _, k := range row {
			acc[k] += share
		}
	}
	// The sums compact into acc itself, which becomes vals.
	all, n := threshold < 0, 0
	for k, a := range acc {
		if a != 0 || all {
			if idx == nil {
				idx = make([]int64, 0, len(acc)-k)
			}
			idx = append(idx, b.dstIDs[k])
			acc[n] = a
			n++
		}
	}
	return idx, acc[:n]
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

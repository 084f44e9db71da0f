package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"psgraph/internal/dataflow"
)

var (
	// errIDSpan refuses a partition whose ids span more than 2^32 values:
	// its block's bitmaps would be that wide (and PageRank's vectors too).
	errIDSpan = errors.New("core: one partition's vertex ids span more than 2^32 values")
	// errRecordCount is a reduce task reading more or fewer shuffle records
	// than its map side counted.
	errRecordCount = errors.New("core: the shuffle's record count differs from its map side's")
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
// non-empty partition, straight from the shuffle without a sort. Two
// idBits over the partition's id span rank its sources and destinations;
// one counting pass by source rank writes each edge's destination rank
// into its row in shuffle order, and a pass over the rows drops repeated
// edges. A row's order is free: scatter adds its share once to each rank
// in it, rows in order, so every destination's sum is added in the same
// order whatever order its rows list their ranks in.
func csrBlocks(edges *dataflow.RDD[Edge], parts int) *dataflow.RDD[*csrBlock] {
	pairs := dataflow.Map(edges, func(e Edge) idPair { return idPair{K: e.Src, V: e.Dst} })
	return dataflow.ShuffleReduce(pairs, parts, func(t *dataflow.Task, n int, frames func(func([]idPair) error) error) ([]*csrBlock, error) {
		if n > math.MaxInt32 {
			return nil, fmt.Errorf("core: %d edges in one partition exceed the 32-bit local index; use more partitions", n)
		}
		in, span, charged, err := readPairs(t, n, 20, frames) // the pairs, and the rows with repeats
		if err != nil || n == 0 {
			return nil, err
		}
		lo, hi := span.K, span.V
		if uint64(hi-lo) >= 1<<32 {
			return nil, fmt.Errorf("%w: ids %d to %d in one partition", errIDSpan, lo, hi)
		}
		words := int64(uint64(hi-lo)>>6) + 1
		if err := t.Alloc(words * 24); err != nil {
			return nil, err
		}
		src := idBits{lo, make([]uint64, words), make([]uint32, words)}
		dst := idBits{lo, make([]uint64, words), make([]uint32, words)}
		for _, p := range in {
			src.mark(p.K)
			dst.mark(p.V)
		}
		rows, distinct := src.seal(), dst.seal()
		tables := int64(rows+distinct)*12 + 4 // srcs, offs, dstIDs and each rank's last row
		if err := t.Alloc(tables); err != nil {
			return nil, err
		}
		b := &csrBlock{srcs: src.ids(rows), offs: make([]int32, rows+1), dstIDs: dst.ids(distinct), maxID: hi}
		for i, p := range in {
			r := src.rank(p.K)
			b.offs[r+1]++
			in[i] = idPair{K: int64(r), V: int64(dst.rank(p.V))}
		}
		for r := range rows {
			b.offs[r+1] += b.offs[r]
		}
		adj := make([]int32, n)
		for _, p := range in { // offs[r] ends at row r's end
			adj[b.offs[p.K]] = int32(p.V)
			b.offs[p.K]++
		}
		last, m, start := make([]int32, distinct), int32(0), int32(0)
		for r := range int32(rows) {
			end := b.offs[r]
			b.offs[r] = m
			for _, k := range adj[start:end] {
				if last[k] != r+1 {
					last[k], adj[m] = r+1, k
					m++
				}
			}
			start = end
		}
		b.offs[rows], b.adj = m, adj
		if int(m) < n { // an exact copy, inside what in was charged: in is dead by now
			b.adj = make([]int32, m)
			copy(b.adj, adj)
		}
		t.Free(charged + words*24 + tables) // the cache charges the block it keeps
		return []*csrBlock{b}, nil
	})
}

// idBits marks ids of a span starting at lo, 64 to a word, and counts the
// bits set below each word, so one popcount ranks a marked id among them.
// It costs 12 bytes a word: 3/8 of a byte an id of the span.
type idBits struct {
	lo    int64
	words []uint64
	below []uint32
}

func (s idBits) mark(id int64) { s.words[uint64(id-s.lo)>>6] |= 1 << (uint64(id-s.lo) & 63) }

// seal fills below and returns the number of ids marked.
func (s idBits) seal() int {
	n := 0
	for w, x := range s.words {
		s.below[w] = uint32(n)
		n += bits.OnesCount64(x)
	}
	return n
}

// rank is the number of marked ids below id.
func (s idBits) rank(id int64) int32 {
	off := uint64(id - s.lo)
	return int32(s.below[off>>6]) + int32(bits.OnesCount64(s.words[off>>6]&(1<<(off&63)-1)))
}

// ids lists the n marked ids in ascending order.
func (s idBits) ids(n int) []int64 {
	out := make([]int64, 0, n)
	for w, x := range s.words {
		for ; x != 0; x &= x - 1 {
			out = append(out, s.lo+int64(w)<<6+int64(bits.TrailingZeros64(x)))
		}
	}
	return out
}

// tablesNumVertices is the dense vector size for algorithms that cache
// the neighbor tables themselves (V is sorted: its last entry is its largest).
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

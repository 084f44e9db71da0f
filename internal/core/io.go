package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"psgraph/internal/dataflow"
)

// Edge is one directed, optionally weighted edge as loaded from the DFS.
// Input lines are "src<TAB>dst" or "src<TAB>dst<TAB>weight" with vertex
// ids encoded as long integers (Sec. IV).
type Edge struct {
	Src, Dst int64
	W        float64
}

// LoadEdges reads an edge list from the DFS into an RDD, scanning each
// line in place: "src<ws>dst" or "src<ws>dst<ws>weight" with ASCII
// whitespace between and around the fields (a trailing \r included);
// anything after the weight is ignored and blank lines are skipped.
// Malformed lines fail the job (industrial pipelines validate data
// upstream; silently dropping edges would corrupt results).
func LoadEdges(ctx *Context, path string, parts int) *dataflow.RDD[Edge] {
	return dataflow.ParseTextFile(ctx.Spark, path, ctx.parts(parts), scanEdge)
}

// scanEdge parses one edge line; ok is false for a blank line. The usual
// line, two unsigned ids and one blank between them, src of at most 8
// digits and dst of at most 8 ending the line, is read in two lanes: one
// 8-byte load finds the blank after src, and the src word and the dst word
// (loaded past the line's end, within cap) fold side by side. A line of up
// to 18-digit ids with any whitespace around them folds digits as it goes.
// Any other line (a sign, a longer id, a weight, a blank or malformed line)
// is split into fields and parsed by strconv; the string conversions do not
// allocate, since strconv copies its input into its errors.
func scanEdge(line []byte) (e Edge, ok bool, err error) {
	if w := line[:cap(line)]; len(w) >= 8 {
		x := binary.LittleEndian.Uint64(w)
		if n := digits(x); n > 0 && n+9 <= len(w) && n < len(line) && isSpace(w[n]) {
			if y := binary.LittleEndian.Uint64(w[n+1:]); len(line)-n-1 > 0 && digits(y) >= len(line)-n-1 {
				return Edge{Src: fold(x, n), Dst: fold(y, len(line)-n-1), W: 1}, true, nil
			}
		}
	}
	src, i, ok := scanDigits(line, 0)
	dst, j, ok2 := scanDigits(line, i)
	if w, _ := nextField(line[j:]); ok && ok2 && len(w) == 0 {
		return Edge{Src: src, Dst: dst, W: 1}, true, nil
	}
	f0, rest := nextField(line)
	f1, rest := nextField(rest)
	w, _ := nextField(rest)
	switch e.W = 1; {
	case len(f0) == 0:
		return Edge{}, false, nil
	case len(f1) == 0:
		return Edge{}, false, fmt.Errorf("core: malformed edge line %q", line)
	}
	if e.Src, err = strconv.ParseInt(string(f0), 10, 64); err != nil {
		return Edge{}, false, fmt.Errorf("core: bad src in %q", line)
	}
	if e.Dst, err = strconv.ParseInt(string(f1), 10, 64); err != nil {
		return Edge{}, false, fmt.Errorf("core: bad dst in %q", line)
	}
	if len(w) > 0 {
		if e.W, err = strconv.ParseFloat(string(w), 64); err != nil {
			return Edge{}, false, fmt.Errorf("core: bad weight in %q: %v", line, err)
		}
	}
	return e, true, nil
}

// digits is the number of ASCII digits x starts with, as 8 bytes read
// little-endian: 0 to 8.
func digits(x uint64) int {
	const high, digit = 0xF0F0F0F0F0F0F0F0, 0x3030303030303030
	other := (x&high ^ digit) | ((x+0x0606060606060606)&high ^ digit) // non-zero bytes are not digits
	return bits.TrailingZeros64(other) >> 3
}

// fold is the value of the first n digits of x, as 8 bytes read
// little-endian, without a branch on n; the bytes after them are masked off.
func fold(x uint64, n int) int64 {
	y := x << (64 - 8*n) & 0x0F0F0F0F0F0F0F0F // the n digits, most significant first, at the top
	y = (y*10 + y>>8) & 0x00FF00FF00FF00FF
	y = (y*100 + y>>16) & 0x0000FFFF0000FFFF
	return int64((y*10000 + y>>32) & 0xFFFFFFFF)
}

// scanDigits skips the whitespace at b[i:] and folds the run of digits
// after it; ok says the run has 1 to 18 digits and ends at a space or at
// the end of b. Where eight bytes follow within cap(b), up to eight
// digits are found and folded as one word.
func scanDigits(b []byte, i int) (v int64, end int, ok bool) {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	j := i
	if w := b[i:cap(b)]; len(w) >= 8 {
		x := binary.LittleEndian.Uint64(w)
		n := min(digits(x), len(b)-i)
		v, j = fold(x, n), i+n
	}
	for ; j < len(b) && b[j]-'0' <= 9; j++ {
		v = v*10 + int64(b[j]-'0')
	}
	return v, j, j > i && j-i <= 18 && (j == len(b) || isSpace(b[j]))
}

// nextField splits off the first whitespace-delimited field of b.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	j := i
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	return b[i:j], b[j:]
}

func isSpace(c byte) bool {
	return c == ' ' || (c >= '\t' && c <= '\r')
}

// NumVertices returns max(vertex id)+1 over the edge set, the size used
// for dense PS vectors ("the size of both vectors is equal to the maximal
// index of vertex", Sec. IV-A).
func NumVertices(edges *dataflow.RDD[Edge]) (int64, error) {
	return vectorSize(edges, func(e Edge) int64 { return max(e.Src, e.Dst) })
}

// vectorSize returns max(maxID(x))+1 over r, where maxID yields the
// largest vertex id an element mentions. Algorithms call it on the
// structure they cache anyway (neighbor tables, CSR blocks), so sizing
// the vectors is the action that builds the cache and the edge file is
// read once per job.
func vectorSize[T any](r *dataflow.RDD[T], maxID func(T) int64) (int64, error) {
	m, err := dataflow.Map(r, maxID).Reduce(func(a, b int64) int64 { return max(a, b) })
	if err != nil {
		return 0, err
	}
	return m + 1, nil
}

// ToNeighborTables converts the edge-partitioned RDD into vertex
// partitioning with groupBy (paper Sec. IV-A, step 1): each element
// becomes (src, sorted unique []dst).
func ToNeighborTables(edges *dataflow.RDD[Edge], parts int) *dataflow.RDD[dataflow.KV[int64, []int64]] {
	return neighborTables(dataflow.Map(edges, func(e Edge) dataflow.KV[int64, int64] {
		return dataflow.KV[int64, int64]{K: e.Src, V: e.Dst}
	}), parts)
}

// ToUndirectedNeighborTables builds neighbor tables treating edges as
// undirected (both directions), as required by common neighbor, triangle
// count and k-core.
func ToUndirectedNeighborTables(edges *dataflow.RDD[Edge], parts int) *dataflow.RDD[dataflow.KV[int64, []int64]] {
	return neighborTables(dataflow.FlatMap(edges, func(e Edge) []dataflow.KV[int64, int64] {
		return []dataflow.KV[int64, int64]{{K: e.Src, V: e.Dst}, {K: e.Dst, V: e.Src}}
	}), parts)
}

// neighborTables groups (vertex, neighbor) pairs by vertex without a hash
// table: a reduce task reads its share of the shuffle into one flat
// slice, sorts it by (vertex, neighbor) and cuts the deduplicated
// neighbor column into one table per vertex. Every table's V is a
// capacity-capped window of that one backing array, so a partition costs
// 8 bytes per distinct pair plus a header per vertex; tables come out in
// vertex order.
func neighborTables(pairs *dataflow.RDD[idPair], parts int) *dataflow.RDD[dataflow.KV[int64, []int64]] {
	type table = dataflow.KV[int64, []int64]
	return dataflow.ShuffleReduce(pairs, parts, func(t *dataflow.Task, n int, frames func(func([]idPair) error) error) ([]table, error) {
		in, _, charged, err := readPairs(t, n, 32, frames) // the pairs and the sorts' scratch
		if err != nil {
			return nil, err
		}
		// Two stable sorts, minor key first: by neighbor, then by vertex.
		for i, p := range in {
			in[i] = idPair{K: p.V, V: p.K}
		}
		in, tmp := sortByK(in, make([]idPair, n))
		for i, p := range in {
			in[i] = idPair{K: p.V, V: p.K}
		}
		in, _ = sortByK(in, tmp) // stable: neighbors stay ordered within a vertex

		vertices, distinct := runs(in)
		if err := t.Alloc(int64(distinct)*8 + int64(vertices)*40); err != nil {
			return nil, err
		}
		nbrs := make([]int64, 0, distinct)
		tables := make([]table, 0, vertices)
		for i := 0; i < len(in); {
			lo, j := len(nbrs), i
			for ; j < len(in) && in[j].K == in[i].K; j++ {
				if j == i || in[j].V != in[j-1].V {
					nbrs = append(nbrs, in[j].V)
				}
			}
			tables = append(tables, table{K: in[i].K, V: nbrs[lo:len(nbrs):len(nbrs)]})
			i = j
		}
		t.Free(charged)
		return tables, nil
	})
}

// readPairs copies a reduce task's n shuffle records into one flat slice a
// frame at a time, charging t perRecord bytes a record: the slice's 16 and
// what the caller builds beside it. span is the smallest and the largest
// id read (K and V), found in the same loop. A frame that would pass the
// map side's count fails before it is copied, and so does a read short of it.
func readPairs(t *dataflow.Task, n int, perRecord int64, frames func(func([]idPair) error) error) (in []idPair, span idPair, charged int64, err error) {
	charged = int64(n) * perRecord
	if err := t.Alloc(charged); err != nil {
		return nil, span, 0, err
	}
	in, i, lo, hi := make([]idPair, n), 0, int64(math.MaxInt64), int64(math.MinInt64)
	err = frames(func(f []idPair) error {
		if len(f) > n-i {
			return fmt.Errorf("%w: more than %d", errRecordCount, n)
		}
		to := in[i:][:len(f)]
		for k, p := range f {
			to[k], lo, hi = p, min(lo, p.K, p.V), max(hi, p.K, p.V)
		}
		i += len(f)
		return nil
	})
	if err == nil && i < n {
		err = fmt.Errorf("%w: %d of %d", errRecordCount, i, n)
	}
	return in, idPair{K: lo, V: hi}, charged, err
}

// runs counts the distinct keys and the distinct (key, value) pairs of a
// slice sorted by key.
func runs(in []idPair) (keys, pairs int) {
	for i, p := range in {
		newKey := i == 0 || p.K != in[i-1].K
		if newKey {
			keys++
		}
		if newKey || p.V != in[i-1].V {
			pairs++
		}
	}
	return keys, pairs
}

// WeightedNeighbor is one adjacency entry of a weighted graph.
type WeightedNeighbor struct {
	Dst int64
	W   float64
}

// ToWeightedNeighborTables builds undirected weighted adjacency,
// accumulating the weights of parallel edges. Tables come out in vertex
// order and neighbours in id order, so every sum over a partition's
// tables adds in a fixed order.
func ToWeightedNeighborTables(edges *dataflow.RDD[Edge], parts int) *dataflow.RDD[dataflow.KV[int64, []WeightedNeighbor]] {
	type table = dataflow.KV[int64, []WeightedNeighbor]
	pairs := dataflow.FlatMap(edges, func(e Edge) []dataflow.KV[int64, WeightedNeighbor] {
		w := cmp.Or(e.W, 1)
		return []dataflow.KV[int64, WeightedNeighbor]{
			{K: e.Src, V: WeightedNeighbor{Dst: e.Dst, W: w}},
			{K: e.Dst, V: WeightedNeighbor{Dst: e.Src, W: w}},
		}
	})
	// The grouped partitions are not cached: sorting them in place is safe.
	return dataflow.MapPartitions(dataflow.GroupByKey(pairs, parts), func(_ int, in []table) ([]table, error) {
		for i, kv := range in {
			ns := kv.V
			slices.SortFunc(ns, func(a, b WeightedNeighbor) int { return cmp.Compare(a.Dst, b.Dst) })
			out := ns[:0]
			for _, n := range ns {
				if len(out) > 0 && out[len(out)-1].Dst == n.Dst {
					out[len(out)-1].W += n.W
				} else {
					out = append(out, n)
				}
			}
			in[i].V = out
		}
		slices.SortFunc(in, func(a, b table) int { return cmp.Compare(a.K, b.K) })
		return in, nil
	})
}

// sortedIntersectCount counts the common elements of two sorted slices.
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

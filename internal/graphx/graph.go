// Package graphx reimplements the GraphX computation model on top of the
// dataflow engine: a graph is a pair of horizontally partitioned
// collections (vertex table, edge table), and graph iteration is lowered
// onto join / reduceByKey dataflow operators.
//
// This is the baseline PSGraph is compared against in Fig. 6 of the paper.
// Its cost profile is inherited honestly from the representation: every
// iteration joins the edge table with the vertex table, shuffling
// edge-scale data through the DFS and building join hash tables in bounded
// executor memory — which is why it degrades, and eventually OOMs, on
// large graphs.
package graphx

// Edge is one directed edge with an optional weight (1 for unweighted
// graphs).
type Edge struct {
	Src, Dst int64
	W        float64
}

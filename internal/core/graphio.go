package core

import (
	"cmp"
	"psgraph/internal/dataflow"
	"psgraph/internal/ps"
)

// This file provides the Listing-1 surface of the paper (Sec. III-D):
// GraphIO.load / GraphOps.loadEdges / PSContext.matrix /
// SparkContext.createDataFrame, adapted to Go names. Dataset here is the
// schema'd DataFrame of the dataflow engine.

// LoadEdgeFrame reads an edge list from the DFS as a Dataset with columns
// (src, dst, w) — the GraphIO.load step.
func LoadEdgeFrame(ctx *Context, path string, parts int) *dataflow.DataFrame {
	edges := LoadEdges(ctx, path, parts)
	rows := dataflow.Map(edges, func(e Edge) dataflow.Row {
		w := cmp.Or(e.W, 1)
		return dataflow.Row{e.Src, e.Dst, w}
	})
	return dataflow.FromRDD([]string{"src", "dst", "w"}, rows)
}

// EdgesOfFrame converts a Dataset with (src, dst[, w]) columns back to the
// edge RDD the algorithms consume — the GraphOps.loadEdges step.
func EdgesOfFrame(df *dataflow.DataFrame) (*dataflow.RDD[Edge], error) {
	si, err := df.ColIndex("src")
	if err != nil {
		return nil, err
	}
	di, err := df.ColIndex("dst")
	if err != nil {
		return nil, err
	}
	wi, _ := df.ColIndex("w") // optional
	return dataflow.Map(df.RDD(), func(r dataflow.Row) Edge {
		e := Edge{Src: r.Int64(si), Dst: r.Int64(di), W: 1}
		if wi >= 0 {
			e.W = r.Float64(wi)
		}
		return e
	}), nil
}

// VectorFrame materializes a PS-resident dense vector as a Dataset with
// (id, value) columns — the SparkContext.createDataFrame(model) step that
// hands results back to the surrounding pipeline.
func VectorFrame(ctx *Context, v *ps.Vector, valueCol string, parts int) (*dataflow.DataFrame, error) {
	vals, err := v.PullAll()
	if err != nil {
		return nil, err
	}
	rows := make([]dataflow.Row, len(vals))
	for i, x := range vals {
		rows[i] = dataflow.Row{int64(i), x}
	}
	parts = ctx.parts(parts)
	return dataflow.FromRows(ctx.Spark, []string{"id", valueCol}, rows, parts), nil
}

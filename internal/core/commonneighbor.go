package core

import (
	"psgraph/internal/dataflow"
	"psgraph/internal/ps"
)

// NeighborModel is a PS-resident adjacency ("neighbor tables on PS",
// Sec. IV-B), built once and queried in batches by executors.
type NeighborModel struct {
	Nbr  *ps.Nbr
	Name string
	// NumVertices counts vertices with at least one neighbor.
	NumVertices int64
}

// nbrBuildBatch is the number of edges aggregated executor-side before a
// fragment push. Small batches keep the executor footprint edge-batch
// sized: the whole adjacency only ever exists on the parameter server,
// which is the point of storing neighbor tables there (Sec. III-A).
const nbrBuildBatch = 8192

// BuildNeighborModel converts the edge-partitioned graph into PS-resident
// neighbor tables: every executor streams its edge partition in small
// batches, pushing adjacency fragments (the PS appends fragments of the
// same vertex), and a final server-side psFunc seals the model by sorting
// and deduplicating every list. When undirected is set, both edge
// directions contribute.
func BuildNeighborModel(ctx *Context, edges *dataflow.RDD[Edge], undirected bool, parts int) (*NeighborModel, error) {
	parts = ctx.parts(parts)
	name := ctx.ModelName("nbr")
	nbr, err := ctx.Agent.CreateNeighbor(name)
	if err != nil {
		return nil, err
	}
	err = edges.ForeachPartition(func(part int, in []Edge) error {
		for start := 0; start < len(in); start += nbrBuildBatch {
			end := min(start+nbrBuildBatch, len(in))
			frag := make(map[int64][]int64)
			for _, e := range in[start:end] {
				frag[e.Src] = append(frag[e.Src], e.Dst)
				if undirected {
					frag[e.Dst] = append(frag[e.Dst], e.Src)
				}
			}
			if err := nbr.Push(frag); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Seal: sort + deduplicate every adjacency list on the servers and
	// report per-partition vertex counts.
	outs, err := ctx.Agent.CallFunc(name, "core.nbrSeal", func(p ps.Partition) []byte { return nil })
	if err != nil {
		return nil, err
	}
	var count int64
	for _, o := range outs {
		r := ps.NewArgReader(o)
		count += r.I64()
		if err := r.Close(); err != nil {
			return nil, err
		}
	}
	return &NeighborModel{Nbr: nbr, Name: name, NumVertices: count}, nil
}

// Close deletes the PS model.
func (m *NeighborModel) Close(ctx *Context) {
	cleanupModels(ctx, m.Name)
}

// intersect pulls the endpoints' neighbor tables of pairs from the PS,
// batch pairs to a request, and hands each pair its common-neighbor count.
func (m *NeighborModel) intersect(pairs []Edge, batch int, emit func(p Edge, common int64)) error {
	for start := 0; start < len(pairs); start += batch {
		in := pairs[start:min(start+batch, len(pairs))]
		ids := make([]int64, 0, 2*len(in))
		for _, p := range in {
			ids = append(ids, p.Src, p.Dst)
		}
		tables, err := m.Nbr.Pull(ids)
		if err != nil {
			return err
		}
		for _, p := range in {
			emit(p, sortedIntersectCount(tables[p.Src], tables[p.Dst]))
		}
	}
	return nil
}

// CommonNeighborConfig tunes the batched pair scoring.
type CommonNeighborConfig struct {
	// BatchSize is the number of pairs whose neighbor tables are pulled
	// per PS round trip. Defaults to intersectBatch.
	BatchSize int
}

// intersectBatch is the default number of pairs to a neighbour pull.
const intersectBatch = 1024

// CommonNeighbor scores every candidate pair with its common-neighbor
// count (Sec. IV-B): executors iterate batches of pairs, pull the
// endpoints' neighbor tables from the PS in one batched request, and
// intersect the sorted lists locally.
func CommonNeighbor(ctx *Context, model *NeighborModel, pairs *dataflow.RDD[Edge], cfg CommonNeighborConfig) (*dataflow.RDD[dataflow.KV[Edge, int64]], error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = intersectBatch
	}
	scored := dataflow.MapPartitions(pairs, func(part int, in []Edge) ([]dataflow.KV[Edge, int64], error) {
		out := make([]dataflow.KV[Edge, int64], 0, len(in))
		err := model.intersect(in, cfg.BatchSize, func(p Edge, common int64) {
			out = append(out, dataflow.KV[Edge, int64]{K: p, V: common})
		})
		return out, err
	})
	// Materialize now so the caller observes errors here.
	if _, err := scored.Count(); err != nil {
		return nil, err
	}
	return scored, nil
}

// TriangleCountConfig configures the PS-based triangle counter. It has no
// fields: edges go intersectBatch to a neighbour pull.
type TriangleCountConfig struct{}

// TriangleCount counts triangles with the common-neighbor machinery
// (footnote 2 of the paper: "the implementation of triangle count is
// similar to common neighbor"): neighbor tables live on the PS and
// executors stream batches of canonical edges, summing the intersection
// sizes; every triangle is counted once per edge.
func TriangleCount(ctx *Context, model *NeighborModel, edges *dataflow.RDD[Edge], cfg TriangleCountConfig) (int64, error) {
	parts := ctx.Partitions()
	canon := dataflow.Map(edges, func(e Edge) Edge {
		if e.Src > e.Dst {
			e.Src, e.Dst = e.Dst, e.Src
		}
		return Edge{Src: e.Src, Dst: e.Dst}
	})
	uniq := dataflow.Distinct(canon, parts)
	counts := dataflow.MapPartitions(uniq, func(part int, in []Edge) ([]int64, error) {
		var total int64
		err := model.intersect(in, intersectBatch, func(_ Edge, common int64) { total += common })
		return []int64{total}, err
	})
	sum, err := counts.Reduce(func(a, b int64) int64 { return a + b })
	if err != nil {
		return 0, err
	}
	return sum / 3, nil
}

package core

import (
	"encoding/binary"

	"psgraph/internal/dataflow"
)

// Shuffle codecs for the element shapes the TG algorithms move through
// wide operators: edges (Distinct in common-neighbor dedup), scored
// vertex pairs, FastUnfolding's condensed community edges, and weighted
// adjacency fragments. A shape with no codec cannot be shuffled.
func init() {
	dataflow.RegisterShuffleCodec("core.edge-unit",
		func(b []byte, kv dataflow.KV[Edge, struct{}]) []byte {
			return appendEdge(b, kv.K)
		},
		func(r *dataflow.BinReader) dataflow.KV[Edge, struct{}] {
			return dataflow.KV[Edge, struct{}]{K: readEdge(r)}
		})
	dataflow.RegisterShuffleCodec("core.edge-i64",
		func(b []byte, kv dataflow.KV[Edge, int64]) []byte {
			b = appendEdge(b, kv.K)
			return binary.AppendVarint(b, kv.V)
		},
		func(r *dataflow.BinReader) dataflow.KV[Edge, int64] {
			return dataflow.KV[Edge, int64]{K: readEdge(r), V: r.Varint()}
		})
	dataflow.RegisterShuffleCodec("core.pair-f64",
		func(b []byte, kv dataflow.KV[[2]int64, float64]) []byte {
			b = binary.AppendVarint(b, kv.K[0])
			b = binary.AppendVarint(b, kv.K[1])
			return dataflow.AppendF64(b, kv.V)
		},
		func(r *dataflow.BinReader) dataflow.KV[[2]int64, float64] {
			return dataflow.KV[[2]int64, float64]{
				K: [2]int64{r.Varint(), r.Varint()},
				V: r.F64(),
			}
		})
	dataflow.RegisterShuffleCodec("core.i64-wnbr",
		func(b []byte, kv dataflow.KV[int64, WeightedNeighbor]) []byte {
			b = binary.AppendVarint(b, kv.K)
			b = binary.AppendVarint(b, kv.V.Dst)
			return dataflow.AppendF64(b, kv.V.W)
		},
		func(r *dataflow.BinReader) dataflow.KV[int64, WeightedNeighbor] {
			return dataflow.KV[int64, WeightedNeighbor]{
				K: r.Varint(),
				V: WeightedNeighbor{Dst: r.Varint(), W: r.F64()},
			}
		})
}

func appendEdge(b []byte, e Edge) []byte {
	b = binary.AppendVarint(b, e.Src)
	b = binary.AppendVarint(b, e.Dst)
	return dataflow.AppendF64(b, e.W)
}

func readEdge(r *dataflow.BinReader) Edge {
	return Edge{Src: r.Varint(), Dst: r.Varint(), W: r.F64()}
}

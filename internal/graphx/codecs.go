package graphx

import (
	"encoding/binary"

	"psgraph/internal/dataflow"
)

// Shuffle codecs for the element shapes the GraphX lowering moves through
// wide operators: edges keyed by vertex (every join's edge side), edges
// carrying one endpoint's neighbour list (triangle count and common
// neighbour), edges and vertex pairs as Distinct keys, and fast
// unfolding's (vertex, community) aggregates. A shape with no codec cannot
// be shuffled.
func init() {
	dataflow.RegisterShuffleCodec("graphx.i64-edge",
		func(b []byte, kv dataflow.KV[int64, Edge]) []byte {
			return appendEdge(binary.AppendVarint(b, kv.K), kv.V)
		},
		func(r *dataflow.BinReader) dataflow.KV[int64, Edge] {
			return dataflow.KV[int64, Edge]{K: r.Varint(), V: readEdge(r)}
		})
	dataflow.RegisterShuffleCodec("graphx.i64-edge-nbrs",
		func(b []byte, kv dataflow.KV[int64, dataflow.Pair[Edge, []int64]]) []byte {
			b = appendEdge(binary.AppendVarint(b, kv.K), kv.V.A)
			return dataflow.AppendI64s(b, kv.V.B)
		},
		func(r *dataflow.BinReader) dataflow.KV[int64, dataflow.Pair[Edge, []int64]] {
			return dataflow.KV[int64, dataflow.Pair[Edge, []int64]]{
				K: r.Varint(),
				V: dataflow.Pair[Edge, []int64]{A: readEdge(r), B: r.I64s()},
			}
		})
	dataflow.RegisterShuffleCodec("graphx.edge-unit",
		func(b []byte, kv dataflow.KV[Edge, struct{}]) []byte {
			return appendEdge(b, kv.K)
		},
		func(r *dataflow.BinReader) dataflow.KV[Edge, struct{}] {
			return dataflow.KV[Edge, struct{}]{K: readEdge(r)}
		})
	dataflow.RegisterShuffleCodec("graphx.i64i64-unit",
		func(b []byte, kv dataflow.KV[dataflow.KV[int64, int64], struct{}]) []byte {
			return binary.AppendVarint(binary.AppendVarint(b, kv.K.K), kv.K.V)
		},
		func(r *dataflow.BinReader) dataflow.KV[dataflow.KV[int64, int64], struct{}] {
			return dataflow.KV[dataflow.KV[int64, int64], struct{}]{K: dataflow.KV[int64, int64]{K: r.Varint(), V: r.Varint()}}
		})
	dataflow.RegisterShuffleCodec("graphx.vc-f64",
		func(b []byte, kv dataflow.KV[vcKey, float64]) []byte {
			return dataflow.AppendF64(appendVC(b, kv.K), kv.V)
		},
		func(r *dataflow.BinReader) dataflow.KV[vcKey, float64] {
			return dataflow.KV[vcKey, float64]{K: readVC(r), V: r.F64()}
		})
	dataflow.RegisterShuffleCodec("graphx.i64-vc-f64",
		func(b []byte, kv dataflow.KV[int64, dataflow.Pair[vcKey, float64]]) []byte {
			b = appendVC(binary.AppendVarint(b, kv.K), kv.V.A)
			return dataflow.AppendF64(b, kv.V.B)
		},
		func(r *dataflow.BinReader) dataflow.KV[int64, dataflow.Pair[vcKey, float64]] {
			return dataflow.KV[int64, dataflow.Pair[vcKey, float64]]{
				K: r.Varint(),
				V: dataflow.Pair[vcKey, float64]{A: readVC(r), B: r.F64()},
			}
		})
	registerF64Array[[3]float64]("graphx.i64-f64x3")
	registerF64Array[[2]float64]("graphx.i64-f64x2")
}

// registerF64Array registers the codec of an int64 key carrying a
// fixed-size float array (fast unfolding's candidate and best-move rows).
func registerF64Array[A [2]float64 | [3]float64](name string) {
	dataflow.RegisterShuffleCodec(name,
		func(b []byte, kv dataflow.KV[int64, A]) []byte {
			b = binary.AppendVarint(b, kv.K)
			for i := 0; i < len(kv.V); i++ {
				b = dataflow.AppendF64(b, kv.V[i])
			}
			return b
		},
		func(r *dataflow.BinReader) dataflow.KV[int64, A] {
			kv := dataflow.KV[int64, A]{K: r.Varint()}
			for i := 0; i < len(kv.V); i++ {
				kv.V[i] = r.F64()
			}
			return kv
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

func appendVC(b []byte, k vcKey) []byte {
	return binary.AppendVarint(binary.AppendVarint(b, k.V), k.C)
}

func readVC(r *dataflow.BinReader) vcKey { return vcKey{V: r.Varint(), C: r.Varint()} }

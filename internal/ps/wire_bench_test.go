package ps

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"psgraph/internal/gen"
	"psgraph/internal/rpc"
)

// Benchmarks of the binary wire codec: encode/decode alone and through
// a full client/server round trip.

func benchVecPush(n int) vecPushReq {
	idx := make([]int64, n)
	vals := make([]float64, n)
	for i := range idx {
		idx[i] = int64(i) * 3
		vals[i] = float64(i) * 0.7
	}
	return vecPushReq{Model: "bench", Part: 0, Indices: idx, Values: vals, Op: vecAdd}
}

func benchEmbPush(rows, dim int) RowBatch {
	b := RowBatch{IDs: make([]int64, rows), Dim: dim, Data: make([]float64, rows*dim)}
	for r := range b.IDs {
		b.IDs[r] = int64(r)
	}
	for i := range b.Data {
		b.Data[i] = float64(i)
	}
	return b
}

func BenchmarkCodecEncode(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		req := benchVecPush(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			b.ReportAllocs()
			for b.Loop() {
				buf := enc(req)
				rpc.PutBuf(buf)
			}
		})
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		data := enc(benchVecPush(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			b.ReportAllocs()
			for b.Loop() {
				var out vecPushReq
				if err := dec(data, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCodecEncodeEmb(b *testing.B) {
	rows := benchEmbPush(10_000, 16)
	b.SetBytes(int64(10_000 * 16 * 8))
	b.ReportAllocs()
	for b.Loop() {
		rpc.PutBuf(pushFrame("bench", 0, rows, rowWork{ids: rows.IDs}, 0, 16, false, false))
	}
}

// BenchmarkCodecRoundtripDense measures a full pull+push cycle against a
// live in-process cluster — the paper's hot path — at 1e4..1e6 elements.
func BenchmarkCodecRoundtripDense(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c, err := NewCluster(ClusterConfig{NumServers: 4, NamePrefix: fmt.Sprintf("bd%d", n)})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			cl := c.NewClient()
			v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "v", Size: int64(n)})
			if err != nil {
				b.Fatal(err)
			}
			idx := make([]int64, n)
			vals := make([]float64, n)
			for i := range idx {
				idx[i] = int64(i)
				vals[i] = float64(i)
			}
			b.SetBytes(int64(16 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for b.Loop() {
				if err := v.PushAdd(idx, vals); err != nil {
					b.Fatal(err)
				}
				if _, err := v.Pull(idx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCodecRoundtripSparse measures embedding-style pull+push of
// keyed vectors, the dominant traffic of the paper's GNN workloads.
func BenchmarkCodecRoundtripSparse(b *testing.B) {
	const rows, dim = 10_000, 8
	c, err := NewCluster(ClusterConfig{NumServers: 4, NamePrefix: "bs"})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "e", Dim: dim})
	if err != nil {
		b.Fatal(err)
	}
	vecs := make(map[int64][]float64, rows)
	ids := make([]int64, rows)
	for r := 0; r < rows; r++ {
		v := make([]float64, dim)
		for d := range v {
			v[d] = float64(d)
		}
		vecs[int64(r)] = v
		ids[r] = int64(r)
	}
	b.SetBytes(int64(rows * dim * 8 * 2))
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if err := e.PushAdd(vecs); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Pull(ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFanOutScaling measures PullAll wall time as the partition
// count grows with a simulated per-RPC network latency: the bounded
// parallel fan-out should hold wall time roughly flat (latencies
// overlap) rather than growing linearly.
func BenchmarkFanOutScaling(b *testing.B) {
	const size = 100_000
	for _, parts := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			tr := rpc.NewInProc()
			c, err := NewCluster(ClusterConfig{NumServers: 4, Transport: tr, NamePrefix: fmt.Sprintf("bf%d", parts)})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			cl := c.NewClient()
			v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "v", Size: size, Partitions: parts})
			if err != nil {
				b.Fatal(err)
			}
			if err := v.Fill(1); err != nil {
				b.Fatal(err)
			}
			tr.SetLatency(200 * time.Microsecond)
			b.SetBytes(int64(8 * size))
			b.ResetTimer()
			for b.Loop() {
				if _, err := v.PullAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// lineColumns draws n batches of the LINE trainer's two id columns as
// line-psfunc draws them: 512 R-MAT edges over 16,384 ids each, every
// source repeated in front of its destination and of 5 negatives drawn by
// destination degree^0.75.
func lineColumns(n int) (us, vs [][]int64) {
	edges := gen.RMAT(gen.RMATConfig{Scale: 14, Edges: int64(n) * 512, Seed: 1})
	cum := make([]float64, 1<<14)
	for _, e := range edges {
		cum[e.Dst]++
	}
	var total float64
	for i, d := range cum {
		total += math.Pow(d, 0.75)
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(1))
	us, vs = make([][]int64, n), make([][]int64, n)
	for k := range us {
		for _, e := range edges[k*512 : (k+1)*512] {
			for j := 0; j < 6; j++ {
				us[k] = append(us[k], e.Src)
			}
			vs[k] = append(vs[k], e.Dst)
			for j := 0; j < 5; j++ {
				vs[k] = append(vs[k], int64(sort.SearchFloat64s(cum, rng.Float64()*total)))
			}
		}
	}
	return us, vs
}

// BenchmarkI64sDecode decodes the id columns of 64 LINE arguments in turn:
// runs of zero deltas in U, two- and three-byte deltas in V.
func BenchmarkI64sDecode(b *testing.B) {
	us, vs := lineColumns(64)
	args := make([][]byte, len(us))
	var size int
	for k := range args {
		args[k] = appendI64s(appendI64s(nil, us[k]), vs[k])
		size += len(args[k])
	}
	b.SetBytes(int64(size / len(args)))
	var u, v []int64
	for i := 0; b.Loop(); i++ {
		r := wreader{b: args[i%len(args)]}
		u, v = r.i64sInto(u), r.i64sInto(v)
		if r.err != nil || len(u) != len(v) {
			b.Fatal(r.err)
		}
	}
}

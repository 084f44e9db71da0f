package core

import (
	"strings"
	"testing"

	"psgraph/internal/ps"
)

// FuzzPSFuncArgs feeds arbitrary argument bytes to the psFuncs PageRank,
// the neighbour model and LINE run on the servers — core.takeIndices,
// core.commitDelta, core.nbrSeal, core.lineDot and core.lineUpdate — on a
// one-partition store that also holds models of the wrong kind or width for
// them to name. Every call must return a reply or an error: never panic,
// never hang. The first seeds are the arguments of one real call each; the
// rest name a neighbour table where a dense vector belongs, one vector
// twice, or a narrower embedding as LINE's other model, which used to panic
// the server and to deadlock it on its own lock.
func FuzzPSFuncArgs(f *testing.F) {
	ctx, err := NewContext(Config{NumExecutors: 1, NumServers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(ctx.Close)
	for _, name := range []string{"fz.cur", "fz.ranks", "fz.next"} {
		v, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: name, Size: 16, Partitions: 1})
		if err != nil {
			f.Fatal(err)
		}
		if err := v.Fill(0.5); err != nil {
			f.Fatal(err)
		}
	}
	nbr, err := ctx.Agent.CreateNeighbor("fz.nbr")
	if err != nil {
		f.Fatal(err)
	}
	if err := nbr.Push(map[int64][]int64{1: {2, 3}, 2: {1}, 3: {1, 3}}); err != nil {
		f.Fatal(err)
	}
	for name, dim := range map[string]int{"fz.wide": 8, "fz.narrow": 2} {
		spec := ps.EmbeddingSpec{Name: name, Dim: dim, ByColumn: true, Partitions: 1, InitScale: 0.1}
		if _, err := ctx.Agent.CreateEmbedding(spec); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := ctx.Agent.CallFunc("fz.cur", "coretest.store", func(ps.Partition) []byte { return nil }); err != nil {
		f.Fatal(err)
	}
	s := capturedStore
	funcs := []struct {
		model string
		run   ps.PSFunc
	}{{"fz.cur", takeIndicesFunc}, {"fz.cur", commitDeltaFunc}, {"fz.nbr", nbrSealFunc}, {"fz.wide", lineDotFunc}, {"fz.wide", lineUpdateFunc}}
	names := func(a, b string) []byte { return ps.AppendArgStr(ps.AppendArgStr(nil, a), b) }
	pairs := func(other string) []byte { return appendLinePairs(nil, other, []int64{1, 1, 4}, []int64{2, 3, 1}) }
	coefs := []float64{0.5, -0.5, 0.25}

	f.Add(uint8(0), ps.AppendArgF64(ps.AppendArgI64s(nil, []int64{0, 3, 7, 99, -1}), 0))
	f.Add(uint8(1), names("fz.ranks", "fz.next"))
	f.Add(uint8(2), []byte(nil))
	f.Add(uint8(1), names("fz.nbr", "fz.next"))
	f.Add(uint8(1), names("fz.next", "fz.next"))
	f.Add(uint8(1), names("fz.cur", "fz.next"))
	f.Add(uint8(3), pairs("fz.wide"))
	f.Add(uint8(4), ps.AppendArgF64s(pairs("fz.wide"), coefs))
	f.Add(uint8(3), pairs("fz.narrow"))
	f.Add(uint8(4), ps.AppendArgF64s(pairs("fz.narrow"), coefs))
	f.Add(uint8(3), pairs("fz.cur"))
	f.Add(uint8(4), []byte(nil))
	f.Add(uint8(4), pairs("fz.wide")[:3])
	f.Fuzz(func(t *testing.T, fn uint8, arg []byte) {
		call := funcs[int(fn)%len(funcs)]
		// Both outcomes are fine; a panic fails the run, a hang times it out.
		_, err := call.run(s, call.model, 0, arg)
		// But an argument whose first model name does not decode is a
		// decode error, never the routing rejection a client retries.
		r := ps.NewArgReader(arg)
		if r.Str(); r.Err() != nil && err != nil && strings.Contains(err.Error(), "not on this server") {
			t.Fatalf("undecodable argument rejected as a routing miss: %v", err)
		}
	})
}

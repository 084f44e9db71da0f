package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"psgraph/internal/gen"
	"psgraph/internal/ps"
)

// The psFunc a test (or benchmark) uses to get hold of a server's Store,
// so the kernels can be driven directly, without the RPC stack.
var capturedStore *ps.Store

func init() {
	ps.RegisterFunc("coretest.store", func(s *ps.Store, _ string, _ int, _ []byte) ([]byte, error) {
		capturedStore = s
		return nil, nil
	})
}

// kernelStore starts a one-server PS holding the named column embeddings,
// parts partitions of width dim each (so partition p of every model is
// co-located), and returns that server's Store.
func kernelStore(tb testing.TB, dim, parts int, names ...string) *ps.Store {
	tb.Helper()
	ctx, err := NewContext(Config{NumExecutors: 1, NumServers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(ctx.Close)
	for _, name := range names {
		if _, err := ctx.Agent.CreateEmbedding(ps.EmbeddingSpec{
			Name: name, Dim: dim * parts, ByColumn: true, InitScale: 0.5 / float64(dim), Partitions: parts,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := ctx.Agent.CallFunc(names[0], "coretest.store", func(ps.Partition) []byte { return nil }); err != nil {
		tb.Fatal(err)
	}
	return capturedStore
}

// refLineRows is the straightforward reference the kernels are held to:
// both rows of every pair looked up afresh, pairs taken strictly in order.
func refLineRows(tb testing.TB, s *ps.Store, model, other string, us, vs []int64, each func(i int, u, v []float64)) {
	tb.Helper()
	view, err := s.Partition(model, 0)
	if err != nil {
		tb.Fatal(err)
	}
	emb := view.Lock()
	defer emb.Unlock()
	ctx := emb
	if other != model {
		oview, err := s.Partition(other, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ctx = oview.Lock()
		defer ctx.Unlock()
	}
	for i := range us {
		each(i, emb.Rows(nil, us[i:i+1])[0], ctx.Rows(nil, vs[i:i+1])[0])
	}
}

func refLineDot(tb testing.TB, s *ps.Store, model, other string, us, vs []int64) []float64 {
	out := make([]float64, len(us))
	refLineRows(tb, s, model, other, us, vs, func(i int, u, v []float64) {
		var d float64
		for j := range u {
			d += u[j] * v[j]
		}
		out[i] = d
	})
	return out
}

func refLineUpdate(tb testing.TB, s *ps.Store, model, other string, us, vs []int64, g []float64) {
	refLineRows(tb, s, model, other, us, vs, func(i int, u, v []float64) {
		for j := range u {
			uOld := u[j]
			u[j] += g[i] * v[j]
			v[j] += g[i] * uOld
		}
	})
}

func kernelDot(tb testing.TB, s *ps.Store, model, other string, us, vs []int64) []float64 {
	tb.Helper()
	out, err := lineDotFunc(s, model, 0, appendLinePairs(nil, other, us, vs))
	if err != nil {
		tb.Fatal(err)
	}
	r := ps.NewArgReader(out)
	dots := r.F64s()
	if err := r.Close(); err != nil {
		tb.Fatal(err)
	}
	return dots
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestLineKernelEquivalence drives the kernels and the per-pair reference
// over twin models (same ids, hence same initial rows) and demands the
// same bits: dots, then every touched row after an update, then dots
// again. Batches cover runs of equal U, isolated Us, U == V under first
// order, ids that materialise mid-batch, and the empty batch.
func TestLineKernelEquivalence(t *testing.T) {
	const dim = 8
	s := kernelStore(t, dim, 1, "k.emb", "k.ctx", "r.emb", "r.ctx")
	rng := rand.New(rand.NewSource(7))
	runs := func(n, run int, ids int64) (us, vs []int64) {
		for len(us) < n {
			u := rng.Int63n(ids)
			for k := 0; k < run && len(us) < n; k++ {
				us = append(us, u)
				vs = append(vs, rng.Int63n(ids))
			}
		}
		return us, vs
	}
	type batch struct {
		name   string
		us, vs []int64
	}
	var batches []batch
	us, vs := runs(600, 6, 200)
	batches = append(batches, batch{"runs of 6", us, vs})
	us, vs = runs(300, 1, 200)
	batches = append(batches, batch{"isolated", us, vs})
	batches = append(batches, batch{"u equals v", []int64{5, 5, 5, 9, 9, 5}, []int64{5, 9, 5, 9, 5, 5}})
	us, vs = runs(400, 4, 1<<40) // never-seen ids: rows materialise mid-batch, tables grow
	batches = append(batches, batch{"fresh ids", us, vs})
	batches = append(batches, batch{"empty", []int64{}, []int64{}})

	for _, order := range []int{2, 1} {
		kOther, rOther := "k.ctx", "r.ctx"
		if order == 1 {
			kOther, rOther = "k.emb", "r.emb"
		}
		for _, b := range batches {
			name := fmt.Sprintf("order %d/%s", order, b.name)
			g := make([]float64, len(b.us))
			for i := range g {
				g[i] = rng.NormFloat64() * 0.05
			}
			if got, want := kernelDot(t, s, "k.emb", kOther, b.us, b.vs), refLineDot(t, s, "r.emb", rOther, b.us, b.vs); !sameBits(got, want) {
				t.Fatalf("%s: dots differ from the reference", name)
			}
			upd := ps.AppendArgF64s(appendLinePairs(nil, kOther, b.us, b.vs), g)
			if _, err := lineUpdateFunc(s, "k.emb", 0, upd); err != nil {
				t.Fatalf("%s: update: %v", name, err)
			}
			refLineUpdate(t, s, "r.emb", rOther, b.us, b.vs, g)
			for _, pair := range [][2]string{{"k.emb", "r.emb"}, {"k.ctx", "r.ctx"}} {
				kv, _ := s.Partition(pair[0], 0)
				rv, _ := s.Partition(pair[1], 0)
				ids := append(append([]int64(nil), b.us...), b.vs...)
				krows, rrows := kv.Lock(), rv.Lock()
				kr, rr := krows.Rows(nil, ids), rrows.Rows(nil, ids)
				for i, id := range ids {
					if !sameBits(kr[i], rr[i]) {
						t.Fatalf("%s: row %d of %s differs from the reference after update", name, id, pair[0])
					}
				}
				krows.Unlock()
				rrows.Unlock()
			}
			if got, want := kernelDot(t, s, "k.emb", kOther, b.us, b.vs), refLineDot(t, s, "r.emb", rOther, b.us, b.vs); !sameBits(got, want) {
				t.Fatalf("%s: dots after update differ from the reference", name)
			}
		}
	}
}

// TestLineArgReleaseDropsRows: what a kernel resolved points into a model's
// slabs, and the argument it rides goes back to a sync.Pool. After release
// no element of either scratch array may still hold a row — a deleted
// model must not stay reachable from the pool, and a row must not be
// readable once its partition is unlocked.
func TestLineArgReleaseDropsRows(t *testing.T) {
	s := kernelStore(t, 4, 1, "rel.emb", "rel.ctx")
	for _, other := range []string{"rel.ctx", "rel.emb"} {
		a, err := decodeLineArg(appendLinePairs(nil, other, []int64{1, 1, 2}, []int64{3, 2, 3}), false)
		if err != nil {
			t.Fatal(err)
		}
		emb, ctx, err := lockLinePair(s, "rel.emb", a.other, 0)
		if err != nil {
			t.Fatal(err)
		}
		a.u, a.v = emb.Rows(a.u, a.us), ctx.Rows(a.v, a.vs)
		u, v := a.u, a.v
		if len(u) != 3 || len(v) != 3 || &u[0][0] != &u[1][0] || &v[0][0] != &v[2][0] || &u[0][0] == &u[2][0] {
			t.Fatalf("other=%s: resolved %d and %d rows, or the wrong ones", other, len(u), len(v))
		}
		if first := other == "rel.emb"; first != (&u[2][0] == &v[1][0]) {
			t.Fatalf("other=%s: row 2 of both columns shared = %v", other, !first)
		}
		unlockLinePair(emb, ctx)
		a.release()
		for _, rows := range [][][]float64{u[:cap(u)], v[:cap(v)]} {
			for i, row := range rows {
				if row != nil {
					t.Fatalf("other=%s: released scratch still holds a row at %d", other, i)
				}
			}
		}
	}
}

func TestLineArgRoundTrip(t *testing.T) {
	us, vs := []int64{3, 1, 1 << 40}, []int64{9, -4, 0}
	g := []float64{0.025, -0.0125, 1}
	dot := appendLinePairs(nil, "line.ctx", us, vs)
	a, err := decodeLineArg(dot, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.other != "line.ctx" || fmt.Sprint(a.us, a.vs) != fmt.Sprint(us, vs) {
		t.Fatalf("dot round-trip: %+v", a)
	}
	a.release()
	if a, err = decodeLineArg(ps.AppendArgF64s(dot, g), true); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.us, a.vs, a.g) != fmt.Sprint(us, vs, g) {
		t.Fatalf("update round-trip: %+v", a)
	}
	a.release()
	if a, err = decodeLineArg(appendLinePairs(nil, "m", nil, nil), false); err != nil || len(a.us) != 0 {
		t.Fatalf("empty pairs round-trip: %+v, %v", a, err)
	}
	a.release()
}

func TestLineArgDecodeRejects(t *testing.T) {
	dot := appendLinePairs(nil, "m", []int64{1}, []int64{2})
	for name, tc := range map[string]struct {
		arg    []byte
		update bool
	}{
		"garbage":               {[]byte{0xFF, 0xFF, 0xFF}, false},
		"dot arg as update arg": {dot, true},
		"update arg as dot arg": {ps.AppendArgF64s(dot, []float64{1}), false},
		"trailing byte":         {append(dot[:len(dot):len(dot)], 0), false},
		"more U than V":         {appendLinePairs(nil, "m", []int64{1, 2}, []int64{2}), false},
		"more pairs than coefficients": {
			ps.AppendArgF64s(appendLinePairs(nil, "m", []int64{1, 2}, []int64{2, 3}), []float64{1}), true},
	} {
		if _, err := decodeLineArg(tc.arg, tc.update); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	s := kernelStore(t, 4, 1, "rej.emb")
	if _, err := lineDotFunc(s, "rej.emb", 0, appendLinePairs(nil, "rej.emb", []int64{1, 2}, []int64{2})); err == nil {
		t.Error("lineDot accepted mismatched columns")
	}
}

// The encoded LINE arguments as PR 3 first put them on the wire; the
// benchmark's wire_bytes_per_item depends on every byte.
const (
	goldenLineDotArg    = "086c696e652e63747806060000080b061219888080808040f1ffffffff3fca04"
	goldenLineUpdateArg = goldenLineDotArg + "069a9999999999993f9a999999999989bf000000000000f03f000000000000000000000000000004c0"
	goldenLineUpdateOdd = goldenLineDotArg + "06230100000000f87f00000000000000800100000000000000000000000000f0ff010000000000f07f"
)

func TestLineArgWireGolden(t *testing.T) {
	us, vs := []int64{3, 3, 3, 7, 1}, []int64{9, -4, 1 << 40, 7, 300}
	dot := appendLinePairs(nil, "line.ctx", us, vs)
	if got := hex.EncodeToString(dot); got != goldenLineDotArg {
		t.Fatalf("dot arg\n got %s\nwant %s", got, goldenLineDotArg)
	}
	upd := ps.AppendArgF64s(dot, []float64{0.025, -0.0125, 1, 0, -2.5})
	if got := hex.EncodeToString(upd); got != goldenLineUpdateArg {
		t.Fatalf("update arg\n got %s\nwant %s", got, goldenLineUpdateArg)
	}
	// The coefficient block is a memmove on a little-endian host: the bytes
	// 857c658 wrote one value at a time, for values a conversion could bend
	// (NaN payloads, quiet and signalling; -0; a denormal; -Inf), read back bit
	// for bit at every alignment of the argument in memory.
	bits := []uint64{0x7ff8000000000123, 0x8000000000000000, 1, 0xfff0000000000000, 0x7ff0000000000001}
	g := make([]float64, len(bits))
	for i, u := range bits {
		g[i] = math.Float64frombits(u)
	}
	odd := ps.AppendArgF64s(dot[:len(dot):len(dot)], g)
	if got := hex.EncodeToString(odd); got != goldenLineUpdateOdd {
		t.Fatalf("update arg, odd values\n got %s\nwant %s", got, goldenLineUpdateOdd)
	}
	for shift := 0; shift < 8; shift++ {
		a, err := decodeLineArg(append(make([]byte, shift, shift+len(odd)), odd...)[shift:], true)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range bits {
			if got := math.Float64bits(a.g[i]); got != u {
				t.Errorf("shift %d: coefficient %d decoded as %#x, want %#x", shift, i, got, u)
			}
		}
		a.release()
	}
}

func FuzzLineArg(f *testing.F) {
	for _, h := range []string{goldenLineDotArg, goldenLineUpdateArg, "ffffff", ""} {
		b, _ := hex.DecodeString(h)
		f.Add(b, false)
		f.Add(b, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, update bool) {
		a, err := decodeLineArg(data, update)
		if err != nil {
			return
		}
		if len(a.us) != len(a.vs) || (update && len(a.g) != len(a.us)) {
			t.Fatalf("accepted ragged columns: %d/%d/%d", len(a.us), len(a.vs), len(a.g))
		}
		a.release()
		if _, err := decodeLineArg(append(bytes.Clone(data), 0), update); err == nil {
			t.Fatal("accepted a trailing byte")
		}
	})
}

// TestLineStepRejectsWrongDotCount: a partition answering with more or
// fewer dots than pairs must fail the step by name, not panic the
// executor or train on truncated dots.
func TestLineStepRejectsWrongDotCount(t *testing.T) {
	ctx := newTestContext(t)
	if _, err := ctx.Agent.CreateEmbedding(ps.EmbeddingSpec{Name: "bad.emb", Dim: 4, ByColumn: true}); err != nil {
		t.Fatal(err)
	}
	extra := 0
	ps.RegisterFunc("core.lineDot", func(s *ps.Store, model string, part int, arg []byte) ([]byte, error) {
		a, err := decodeLineArg(arg, false)
		if err != nil {
			return nil, err
		}
		defer a.release()
		return ps.AppendArgF64s(nil, make([]float64, len(a.us)+extra)), nil
	})
	t.Cleanup(func() { ps.RegisterReplaySafeFunc("core.lineDot", lineDotFunc) })
	b := lineBatch{us: []int64{1, 1, 2}, vs: []int64{2, 3, 1}, labels: []float64{1, 0, 1}}
	for _, extra = range []int{1, -1} {
		err := lineStepPSFunc(ctx, "bad.emb", "bad.emb", b, 0.025)
		if err == nil || !strings.Contains(err.Error(), "partition 0 of bad.emb") {
			t.Fatalf("extra=%d: err = %v, want one naming the partition", extra, err)
		}
	}
}

// lineKernelBench builds what a line-psfunc server works on — two models
// of two co-located 16-wide column partitions over 16,384 ids, every row
// materialised: 8 MB of rows and id tables, well past L2 — and 64 encoded
// arguments drawn as the trainer draws them: 512 R-MAT edges each, every
// source in front of its destination and of 5 negatives by destination
// degree^0.75. The benchmarks cycle through them and through both
// partitions; ONE replayed batch (3,584 rows, 460 KB) times a cache the
// workload never has warm, and showed -11% for a change worth -31%.
func lineKernelBench(b *testing.B) (s *ps.Store, dots, upds [][]byte) {
	s = kernelStore(b, 16, 2, "bench.emb", "bench.ctx")
	const batches, batch = 64, 512
	raw := gen.RMAT(gen.RMATConfig{Scale: 14, Edges: batches * batch, Seed: 1})
	edges := make([]Edge, len(raw))
	deg := make([]float64, 1<<14)
	ids := make([]int64, len(deg))
	for i, e := range raw {
		edges[i] = Edge{Src: e.Src, Dst: e.Dst}
		deg[e.Dst]++
	}
	for i := range ids {
		ids[i], deg[i] = int64(i), math.Pow(deg[i], 0.75)
	}
	for part := 0; part < 2; part++ { // materialise every row
		if _, err := lineDotFunc(s, "bench.emb", part, appendLinePairs(nil, "bench.ctx", ids, ids)); err != nil {
			b.Fatal(err)
		}
	}
	sampler, rng := newAliasSampler(ids, deg), rand.New(rand.NewSource(1))
	for k := 0; k < batches; k++ {
		lb := new(lineBatch)
		lb.addBatch(edges[k*batch:(k+1)*batch], 5, sampler, rng)
		dot := appendLinePairs(nil, "bench.ctx", lb.us, lb.vs)
		g := make([]float64, len(lb.us))
		for i := range g {
			g[i] = 1e-6 * rng.NormFloat64()
		}
		dots, upds = append(dots, dot), append(upds, ps.AppendArgF64s(dot[:len(dot):len(dot)], g))
	}
	return s, dots, upds
}

func BenchmarkLineKernelDot(b *testing.B) {
	s, dots, _ := lineKernelBench(b)
	for i := 0; b.Loop(); i++ {
		if _, err := lineDotFunc(s, "bench.emb", i&1, dots[i/2%len(dots)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLineKernelUpdate(b *testing.B) {
	s, _, upds := lineKernelBench(b)
	for i := 0; b.Loop(); i++ {
		if _, err := lineUpdateFunc(s, "bench.emb", i&1, upds[i/2%len(upds)]); err != nil {
			b.Fatal(err)
		}
	}
}

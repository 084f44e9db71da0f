package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"psgraph/internal/ps"
)

// This file registers the server-side functions (psFunc, Sec. III-A) the
// algorithms rely on. Running these on the servers — instead of pulling
// model state to the executors — is the paper's key communication
// optimization for PageRank's delta commit and LINE's dot products.

func init() {
	ps.RegisterFunc("core.commitDelta", commitDeltaFunc)
	ps.RegisterReplaySafeFunc("core.lineDot", lineDotFunc) // a read; an absent row materialises once
	ps.RegisterFunc("core.lineUpdate", lineUpdateFunc)
	ps.RegisterFunc("core.nbrSeal", nbrSealFunc)
}

// nbrSealFunc finalizes a Neighbor partition after fragment pushes by
// converting it to sorted, deduplicated CSR storage (the CSR structure of
// Sec. III-A), returning the vertex count.
func nbrSealFunc(s *ps.Store, model string, part int, arg []byte) ([]byte, error) {
	view, err := s.Partition(model, part)
	if err != nil {
		return nil, err
	}
	n, err := view.SealCSR()
	if err != nil {
		return nil, err
	}
	return ps.AppendArgI64(nil, n), nil
}

// commitDelta drives the PageRank commit — ranks += Δcur; Δcur ← Δnext;
// Δnext ← 0 — by running core.commitDelta on every partition of the Δcur
// model; ranks and next name the co-located dense vectors with the
// identical range layout. It returns the summed L1 norm of the new Δcur.
func commitDelta(ctx *Context, cur, ranks, next string) (float64, error) {
	arg := ps.AppendArgStr(ps.AppendArgStr(nil, ranks), next)
	outs, err := ctx.Agent.CallFunc(cur, "core.commitDelta", func(ps.Partition) []byte { return arg })
	if err != nil {
		return 0, err
	}
	var residual float64
	for _, o := range outs {
		r := ps.NewArgReader(o)
		residual += r.F64()
		if err := r.Close(); err != nil {
			return 0, err
		}
	}
	return residual, nil
}

// commitDeltaFunc returns the L1 norm of the new Δcur partition so the
// driver can test convergence without pulling the vectors.
func commitDeltaFunc(s *ps.Store, model string, part int, arg []byte) ([]byte, error) {
	r := ps.NewArgReader(arg)
	ranksName, nextName := r.Str(), r.Str()
	if err := r.Close(); err != nil {
		return nil, err
	}
	if ranksName == model || nextName == model || ranksName == nextName {
		return nil, fmt.Errorf("core: commitDelta over %s, %s and %s: want three models", model, ranksName, nextName)
	}
	curView, err := s.Partition(model, part)
	if err != nil {
		return nil, err
	}
	ranksView, err := s.Partition(ranksName, part)
	if err != nil {
		return nil, err
	}
	nextView, err := s.Partition(nextName, part)
	if err != nil {
		return nil, err
	}
	// Consistent lock order across the three co-located partitions.
	// Sorting by model name composes with the engines' internal order
	// (sharded engines write-lock their shards in index order under one
	// Lock() call), so cross-model locking stays deadlock-free.
	type lockable struct {
		name string
		view *ps.PartView
		data []float64
		un   func()
	}
	ls := []*lockable{
		{name: model, view: curView},
		{name: ranksName, view: ranksView},
		{name: nextName, view: nextView},
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].name < ls[j].name })
	locked := 0
	defer func() {
		for i := locked - 1; i >= 0; i-- {
			ls[i].un()
		}
	}()
	for _, l := range ls {
		if l.data, _, l.un, err = l.view.VecLock(); err != nil {
			return nil, err
		}
		locked++
	}
	var cur, ranks, next []float64
	for _, l := range ls {
		switch l.name {
		case model:
			cur = l.data
		case ranksName:
			ranks = l.data
		case nextName:
			next = l.data
		}
	}
	if len(cur) != len(ranks) || len(cur) != len(next) {
		return nil, fmt.Errorf("core: commitDelta layout mismatch: %d/%d/%d", len(cur), len(ranks), len(next))
	}
	var l1 float64
	for i := range cur {
		ranks[i] += cur[i]
		cur[i] = next[i]
		next[i] = 0
		l1 += math.Abs(cur[i])
	}
	return ps.AppendArgF64(nil, l1), nil
}

// The LINE psFunc arguments ride the binary arg codec: the name of the
// other model, the pairs as two delta-varint id columns (U then V) and,
// for the update, one little-endian coefficient per pair. They go out
// once per partition per training step, so the client encodes the columns
// once per step and the server decodes straight into pooled scratch.

// appendLinePairs appends the argument of core.lineDot for the pairs
// (us[i], vs[i]) — which is also the prefix of core.lineUpdate's.
func appendLinePairs(b []byte, other string, us, vs []int64) []byte {
	b = ps.AppendArgStr(b, other)
	b = ps.AppendArgI64s(b, us)
	return ps.AppendArgI64s(b, vs)
}

// lineArg is one decoded LINE argument, and the rows its columns resolve
// to. All of it is pooled scratch: release gives it back, after which it
// must not be used.
type lineArg struct {
	other  string
	us, vs []int64
	g      []float64   // update only
	u, v   [][]float64 // the live rows of us and vs, once a kernel resolved them
}

var lineArgPool = sync.Pool{New: func() any { return new(lineArg) }}

// decodeLineArg decodes a dot (update == false) or update argument and
// checks that its columns agree in length.
func decodeLineArg(arg []byte, update bool) (*lineArg, error) {
	a := lineArgPool.Get().(*lineArg)
	r := ps.NewArgReader(arg)
	a.other = r.Str()
	a.us, a.vs = r.I64sInto(a.us), r.I64sInto(a.vs)
	if update {
		a.g = r.F64sInto(a.g)
	}
	err := r.Close()
	if err == nil && len(a.us) != len(a.vs) {
		err = fmt.Errorf("core: line arg: %d U ids vs %d V ids", len(a.us), len(a.vs))
	}
	if err == nil && update && len(a.g) != len(a.us) {
		err = fmt.Errorf("core: lineUpdate %d coefficients for %d pairs", len(a.g), len(a.us))
	}
	if err != nil {
		a.release()
		return nil, err
	}
	return a, nil
}

// release forgets the resolved rows first: a sync.Pool must not keep a
// (deleted) model's slabs reachable, nor a row readable after Unlock.
func (a *lineArg) release() {
	clear(a.u)
	clear(a.v)
	lineArgPool.Put(a)
}

// lockLinePair locks this partition's slice of the embedding model and of
// the co-located other model — the context model for second-order
// proximity; for first-order the embedding model itself, and then the
// second accessor IS the first and one lock set is taken. Two models lock
// in model-name order, which with each engine's shard-index order keeps
// concurrent psFuncs deadlock-free. Release with unlockLinePair.
func lockLinePair(s *ps.Store, model, other string, part int) (emb, ctx ps.LockedRows, err error) {
	embView, err := s.Partition(model, part)
	if err != nil {
		return emb, ctx, err
	}
	if other == model {
		emb, err = embView.Lock()
		return emb, emb, err
	}
	otherView, err := s.Partition(other, part)
	if err != nil {
		return emb, ctx, err
	}
	first, second := embView, otherView
	if model > other {
		first, second = otherView, embView
	}
	a, err := first.Lock()
	if err != nil {
		return emb, ctx, err
	}
	b, err := second.Lock()
	if err != nil {
		a.Unlock()
		return emb, ctx, err
	}
	if model > other {
		a, b = b, a
	}
	return a, b, nil
}

func unlockLinePair(emb, ctx ps.LockedRows) {
	if ctx != emb {
		ctx.Unlock()
	}
	emb.Unlock()
}

// Both kernels resolve their two id columns to rows first (LockedRows.Rows;
// a run of equal ids — every batch is a positive pair followed by its
// negatives, all sharing U — is found once) and then run the arithmetic
// over rows whose addresses are all known: the loads of neighbouring pairs
// overlap instead of each waiting on its own lookup. emb's rows stay put
// while ctx materialises its own, also when ctx IS emb (first order).

// resolve finds the rows of a's columns in emb and ctx, which must be as
// wide; all rows of one engine are, so one pair shows it.
func (a *lineArg) resolve(emb, ctx ps.LockedRows, model string, part int) error {
	a.u, a.v = emb.Rows(a.u, a.us), ctx.Rows(a.v, a.vs)
	if len(a.u) > 0 && len(a.u[0]) != len(a.v[0]) {
		return fmt.Errorf("core: LINE rows of %s are %d wide on partition %d, of %s %d", model, len(a.u[0]), part, a.other, len(a.v[0]))
	}
	return nil
}

// lineDotFunc returns the partial dot products emb[U]·other[V] over this
// partition's column range, one per pair, as an AppendArgF64s block.
func lineDotFunc(s *ps.Store, model string, part int, arg []byte) ([]byte, error) {
	a, err := decodeLineArg(arg, false)
	if err != nil {
		return nil, err
	}
	defer a.release()
	emb, ctx, err := lockLinePair(s, model, a.other, part)
	if err != nil {
		return nil, err
	}
	defer unlockLinePair(emb, ctx)
	if err := a.resolve(emb, ctx, model, part); err != nil {
		return nil, err
	}
	out := ps.AppendArgF64sLen(make([]byte, 0, binary.MaxVarintLen64+8*len(a.u)), len(a.u))
	for i, u := range a.u {
		v := a.v[i][:len(u)]
		var d float64
		for j, x := range u {
			d += x * v[j]
		}
		out = ps.AppendArgF64(out, d)
	}
	return out, nil
}

// lineUpdateFunc applies SGD on this partition's columns, pair by pair in
// order: emb[U] += G*other[V]; other[V] += G*emb_old[U]. Updates are
// strictly sequential — a later pair sees every earlier one, and a
// first-order pair with U == V updates the one aliased row exactly as
// written.
func lineUpdateFunc(s *ps.Store, model string, part int, arg []byte) ([]byte, error) {
	a, err := decodeLineArg(arg, true)
	if err != nil {
		return nil, err
	}
	defer a.release()
	emb, ctx, err := lockLinePair(s, model, a.other, part)
	if err != nil {
		return nil, err
	}
	defer unlockLinePair(emb, ctx)
	if err := a.resolve(emb, ctx, model, part); err != nil {
		return nil, err
	}
	for i, u := range a.u {
		g := a.g[i]
		v := a.v[i][:len(u)]
		for j, uOld := range u {
			u[j] += g * v[j]
			v[j] += g * uOld
		}
	}
	return nil, nil
}

package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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
	// Every partition is looked up before any is locked, in one order
	// across the three: sorting by model name composes with the engines'
	// internal order (sharded engines write-lock their shards in index
	// order under one Lock() call), so cross-model locking stays
	// deadlock-free.
	names := [3]string{model, ranksName, nextName}
	slices.Sort(names[:])
	var views [3]ps.PartView
	for i, name := range names {
		v, err := s.Partition(name, part)
		if err != nil {
			return nil, err
		}
		views[i] = v
	}
	var vecs [3][]float64
	for i, view := range views {
		data, _, unlock, err := view.VecLock()
		if err != nil {
			return nil, err
		}
		defer unlock()
		vecs[i] = data
	}
	vec := func(name string) []float64 { return vecs[slices.Index(names[:], name)] }
	cur, ranks, next := vec(model), vec(ranksName), vec(nextName)
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
// once per step and the server decodes them into its Memo columns.

// appendLinePairs appends the argument of core.lineDot for the pairs
// (us[i], vs[i]) — which is also the prefix of core.lineUpdate's.
func appendLinePairs(b []byte, other string, us, vs []int64) []byte {
	b = ps.AppendArgStr(b, other)
	b = ps.AppendArgI64s(b, us)
	return ps.AppendArgI64s(b, vs)
}

// memoCol is one id column of a LINE argument and the rows it resolves to,
// kept newest first in the Memo of the partition those rows are in (U's
// the embedding model's, V's the other's; ps.LockedRows.Memo), so no
// model's rows are reachable from another's. A dot leaves its two columns
// keyed by its argument; the update on the same pairs uses and frees them.
type memoCol struct {
	key  []byte // the argument of the dot that resolved it, until used
	v    bool   // a V column: first order keeps both in one Memo
	ids  []int64
	rows [][]float64
	g    []float64 // a U column's update coefficients
}

// decodeLineArg decodes a dot (update == false) or update argument into
// u and v (and u.g), checks that its columns agree in length, and returns
// the other model's name.
func decodeLineArg(arg []byte, u, v *memoCol, update bool) (string, error) {
	r := ps.NewArgReader(arg)
	other := r.Str()
	u.ids, v.ids = r.I64sInto(u.ids), r.I64sInto(v.ids)
	err := u.coefs(r, update)
	if err == nil && len(u.ids) != len(v.ids) {
		err = fmt.Errorf("core: line arg: %d U ids vs %d V ids", len(u.ids), len(v.ids))
	}
	return other, err
}

// coefs reads what follows the pairs in r: nothing for a dot, one
// coefficient per pair for an update.
func (u *memoCol) coefs(r *ps.ArgReader, update bool) error {
	if update {
		u.g = r.F64sInto(u.g)
	}
	err := r.Close()
	if err == nil && update && len(u.g) != len(u.ids) {
		err = fmt.Errorf("core: lineUpdate %d coefficients for %d pairs", len(u.g), len(u.ids))
	}
	return err
}

// takeCol returns the side-v column a dot left in l's Memo for the update
// argument arg (hit), else its last column — free, else the one whose
// update has waited longest — as scratch, and moves it to the front. The
// encoding is self-delimiting, so a key that starts arg is the argument of
// a dot on this update's very pairs.
func takeCol(l ps.LockedRows, v bool, arg []byte) (c *memoCol, hit bool) {
	m := l.Memo()
	i := slices.IndexFunc(m, func(x any) bool {
		c, _ := x.(*memoCol)
		return c != nil && c.v == v && len(c.key) > 0 && bytes.HasPrefix(arg, c.key)
	})
	if hit = i >= 0; !hit {
		i = len(m) - 1
	}
	if c, _ = m[i].(*memoCol); c == nil {
		c = new(memoCol)
	}
	copy(m[1:i+1], m[:i])
	m[0], c.v = c, v
	if !hit {
		c.key = c.key[:0]
	}
	return c, hit
}

// freeCol forgets c's key and rows and moves it to the back of l's Memo.
func freeCol(l ps.LockedRows, c *memoCol) {
	m := l.Memo()
	i := slices.Index(m, any(c))
	copy(m[i:], m[i+1:])
	m[len(m)-1] = c
	c.key = c.key[:0]
	clear(c.rows)
}

// lockLinePair locks this partition's slice of the embedding model and of
// the co-located other model arg names — the context model for second-order
// proximity; for first-order the embedding model itself, and then the
// second accessor IS the first and one lock set is taken. Two models lock
// in model-name order, which with each engine's shard-index order keeps
// concurrent psFuncs deadlock-free. Release with unlockLinePair.
func lockLinePair(s *ps.Store, model string, part int, arg []byte) (emb, ctx ps.LockedRows, err error) {
	r := ps.NewArgReader(arg)
	other := r.Str()
	if err := r.Err(); err != nil {
		return emb, ctx, err
	}
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

// resolveLine decodes arg into u and v and resolves them to the rows of
// emb and ctx (LockedRows.Rows; a run of equal ids — every batch is a
// positive pair followed by its negatives, all sharing U — is found once),
// so both kernels run over rows whose addresses are all known: the loads
// of neighbouring pairs overlap instead of each waiting on its own lookup.
// emb's rows stay put while ctx materialises its own, also when ctx IS emb
// (first order). The two must be as wide; all rows of one engine are, so
// one pair shows it.
func resolveLine(emb, ctx ps.LockedRows, u, v *memoCol, model string, part int, arg []byte, update bool) error {
	other, err := decodeLineArg(arg, u, v, update)
	if err != nil {
		return err
	}
	u.rows, v.rows = emb.Rows(u.rows, u.ids), ctx.Rows(v.rows, v.ids)
	if len(u.rows) > 0 && len(u.rows[0]) != len(v.rows[0]) {
		return fmt.Errorf("core: LINE rows of %s are %d wide on partition %d, of %s %d", model, len(u.rows[0]), part, other, len(v.rows[0]))
	}
	return nil
}

// lineDotFunc returns the partial dot products emb[U]·other[V] over this
// partition's column range, one per pair, as an AppendArgF64s block, and
// leaves the resolved columns in the partitions' Memos for the update.
func lineDotFunc(s *ps.Store, model string, part int, arg []byte) ([]byte, error) {
	emb, ctx, err := lockLinePair(s, model, part, arg)
	if err != nil {
		return nil, err
	}
	defer unlockLinePair(emb, ctx)
	u, _ := takeCol(emb, false, nil)
	v, _ := takeCol(ctx, true, nil)
	if err := resolveLine(emb, ctx, u, v, model, part, arg, false); err != nil {
		freeCol(emb, u)
		freeCol(ctx, v)
		return nil, err
	}
	out := ps.AppendArgF64sLen(make([]byte, 0, binary.MaxVarintLen64+8*len(u.rows)), len(u.rows))
	for i, ur := range u.rows {
		vr := v.rows[i][:len(ur)]
		var d float64
		for j, x := range ur {
			d += x * vr[j]
		}
		out = ps.AppendArgF64(out, d)
	}
	u.key, v.key = append(u.key, arg...), append(v.key, arg...)
	return out, nil
}

// lineUpdateFunc applies SGD on this partition's columns, pair by pair in
// order: emb[U] += G*other[V]; other[V] += G*emb_old[U]. Updates are
// strictly sequential — a later pair sees every earlier one, and a
// first-order pair with U == V updates the one aliased row exactly as
// written. The pairs and their rows are the columns the dot left in the
// Memos when both are still there; otherwise (evicted, another server
// since, a split, a recreated model) they are decoded and resolved again.
func lineUpdateFunc(s *ps.Store, model string, part int, arg []byte) ([]byte, error) {
	emb, ctx, err := lockLinePair(s, model, part, arg)
	if err != nil {
		return nil, err
	}
	defer unlockLinePair(emb, ctx)
	u, uHit := takeCol(emb, false, arg)
	v, vHit := takeCol(ctx, true, arg)
	defer freeCol(emb, u) // the update is the columns' last use
	defer freeCol(ctx, v)
	if uHit && vHit {
		err = u.coefs(ps.NewArgReader(arg[len(u.key):]), true)
	} else {
		err = resolveLine(emb, ctx, u, v, model, part, arg, true)
	}
	if err != nil {
		return nil, err
	}
	for i, ur := range u.rows {
		g := u.g[i]
		vr := v.rows[i][:len(ur)]
		for j, uOld := range ur {
			ur[j] += g * vr[j]
			vr[j] += g * uOld
		}
	}
	return nil, nil
}

package ps

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// pushVec sends req through the wire into e, as the VecPush handler does:
// encoded by the walker, read off the frame, applied.
func pushVec(e *vecEngine, req vecPushReq) error {
	var m vecPush
	if err := dec(enc(req), &m); err != nil {
		return err
	}
	return e.push(m)
}

// decodeThenApply is the reference: the walked request materialised, then
// one combine per element.
func decodeThenApply(vec []float64, lo int64, req vecPushReq) {
	for i, v := range req.Values {
		s := &vec[i]
		if req.Indices != nil {
			s = &vec[req.Indices[i]-lo]
		}
		switch req.Op {
		case vecSet:
			*s = v
		case vecMin:
			if v < *s {
				*s = v
			}
		case vecMax:
			if v > *s {
				*s = v
			}
		default:
			*s += v
		}
	}
}

func newTestVec(t *testing.T, lo, hi int64) *vecEngine {
	t.Helper()
	meta := ModelMeta{Name: "v", Kind: DenseVector, Size: hi, Parts: []Partition{{Lo: 0, Hi: lo}, {Index: 1, Lo: lo, Hi: hi}}}
	e, err := newEngine(meta, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e.(*vecEngine)
}

// TestVecPushFromFrameMatchesDecode: for every op, random pushes read off
// the frame leave the vector decode-then-apply leaves — indices in any
// order, repeated, far apart (multi-byte deltas), more of them than one
// decode chunk, and full-range pushes (nil indices) in between.
func TestVecPushFromFrameMatchesDecode(t *testing.T) {
	const lo, hi = 1000, 3000
	rng := rand.New(rand.NewSource(1))
	for _, op := range []vecOp{vecAdd, vecSet, vecMin, vecMax} {
		e := newTestVec(t, lo, hi)
		want := make([]float64, hi-lo)
		for round := 0; round < 40; round++ {
			req := vecPushReq{Model: "v", Part: 1, Op: op}
			if round%7 == 3 {
				req.Values = make([]float64, hi-lo)
			} else {
				n := rng.Intn(700)
				req.Indices, req.Values = make([]int64, n), make([]float64, n)
				for i := range req.Indices {
					req.Indices[i] = lo + rng.Int63n(hi-lo)
				}
			}
			for i := range req.Values {
				req.Values[i] = rng.NormFloat64()
			}
			if err := pushVec(e, req); err != nil {
				t.Fatalf("op %d round %d: %v", op, round, err)
			}
			decodeThenApply(want, lo, req)
			if !sameBits(e.vec, want) {
				t.Fatalf("op %d round %d: the frame push and decode-then-apply disagree", op, round)
			}
		}
	}
}

// TestVecPushRejectsWholly: one index outside the partition, anywhere in
// the push, rejects it as ErrRangeMoved before a value is written; so does
// a full-range push of the wrong size. A length mismatch is rejected too.
func TestVecPushRejectsWholly(t *testing.T) {
	const lo, hi = 100, 400
	e := newTestVec(t, lo, hi)
	idx := make([]int64, 600)
	vals := make([]float64, len(idx))
	for i := range idx {
		idx[i], vals[i] = lo+int64(i%(hi-lo)), 1
	}
	for _, bad := range []int64{lo - 1, hi, -5, math.MaxInt64} {
		for _, at := range []int{0, 299, 300, len(idx) - 1} {
			req := vecPushReq{Model: "v", Part: 1, Indices: append([]int64(nil), idx...), Values: vals}
			req.Indices[at] = bad
			if err := pushVec(e, req); !errors.Is(err, ErrRangeMoved) {
				t.Fatalf("index %d at %d: %v, want ErrRangeMoved", bad, at, err)
			}
		}
	}
	if err := pushVec(e, vecPushReq{Model: "v", Part: 1, Values: make([]float64, hi-lo+1)}); !errors.Is(err, ErrRangeMoved) {
		t.Fatalf("oversized full push: %v, want ErrRangeMoved", err)
	}
	if err := pushVec(e, vecPushReq{Model: "v", Part: 1, Indices: idx[:3], Values: vals[:2]}); err == nil {
		t.Fatal("a push of 2 values for 3 indices succeeded")
	}
	for i, v := range e.vec {
		if v != 0 {
			t.Fatalf("rejected pushes left v[%d] = %v", lo+i, v)
		}
	}
	full := make([]float64, hi-lo)
	for i := range full {
		full[i] = float64(i)
	}
	if err := pushVec(e, vecPushReq{Model: "v", Part: 1, Values: full, Op: vecSet}); err != nil || !sameBits(e.vec, full) {
		t.Fatalf("full-range set: %v", err)
	}
}

// FuzzVecPushDecode: the frame decoder accepts exactly the VecPush frames
// the walked decoder accepts, and applying one leaves the vector that
// validate-then-apply of the walked request leaves — or, when that rejects
// it, an error and an untouched vector.
func FuzzVecPushDecode(f *testing.F) {
	f.Add(enc(vecPushReq{Model: "v", Part: 1, Indices: []int64{100, 102, 399, 100}, Values: []float64{1, 2, 3, 4}, Op: vecMax}))
	f.Add(enc(vecPushReq{Model: "v", Part: 1, Indices: []int64{150, 99}, Values: []float64{1, 2}, Op: vecSet}))
	f.Add(enc(vecPushReq{Model: "v", Part: 1, Values: make([]float64, 300), Op: vecMin}))
	f.Add(enc(vecPushReq{Model: "v", Part: 1, Indices: []int64{}, Values: nil}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req vecPushReq
		var m vecPush
		walkedErr, frameErr := dec(data, &req), dec(data, &m)
		if (walkedErr == nil) != (frameErr == nil) {
			t.Fatalf("walked decode: %v; frame decode: %v", walkedErr, frameErr)
		}
		if walkedErr != nil {
			return
		}
		const lo, hi = 100, 400
		e := newTestVec(t, lo, hi)
		ok := len(req.Values) == len(req.Indices)
		if req.Indices == nil {
			ok = len(req.Values) == hi-lo
		}
		for _, idx := range req.Indices {
			ok = ok && idx >= lo && idx < hi
		}
		want := make([]float64, hi-lo)
		if ok {
			decodeThenApply(want, lo, req)
		}
		if err := e.push(m); (err == nil) != ok || !sameBits(e.vec, want) {
			t.Fatalf("push %+v: %v (valid %v), vector differs: %v", req, err, ok, !sameBits(e.vec, want))
		}
	})
}

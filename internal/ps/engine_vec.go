package ps

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
)

// vecEngine stores one DenseVector partition: a contiguous float64
// range [lo, hi) behind a single RWMutex (range pulls and pushes touch
// the whole slice, so finer sharding buys nothing here).
type vecEngine struct {
	engineBase
	mu     sync.RWMutex
	lo, hi int64
	vec    []float64

	// pulls is each slot's sampled count of indexed pulls (pullSample),
	// the hot-head signal (LoadReport, serve.go), bumped under the read
	// lock as rowStore.pulls is. Full-range pulls carry no per-key signal
	// and are not counted.
	pulls []atomic.Int64
	calls atomic.Uint32
}

func newVecEngine(base engineBase, pm Partition) *vecEngine {
	return &vecEngine{
		engineBase: base,
		lo:         pm.Lo, hi: pm.Hi,
		vec:   make([]float64, pm.Hi-pm.Lo),
		pulls: make([]atomic.Int64, pm.Hi-pm.Lo),
	}
}

func (e *vecEngine) pull(req pullReq) (vecPullResp, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if req.Keys == nil {
		out := make([]float64, len(e.vec))
		copy(out, e.vec)
		return vecPullResp{Values: out, Lo: e.lo}, nil
	}
	out := make([]float64, len(req.Keys))
	for i, idx := range req.Keys {
		if idx < e.lo || idx >= e.hi {
			return vecPullResp{}, e.rangeErr(idx)
		}
		out[i] = e.vec[idx-e.lo]
	}
	e.count(req.Keys)
	return vecPullResp{Values: out, Lo: e.lo}, nil
}

// count adds this call's sample of ids, which the caller validated under
// the read lock it still holds, to their pull counts.
func (e *vecEngine) count(ids []int64) {
	for j := samplePhase(&e.calls); j < len(ids); j += pullSample {
		e.pulls[ids[j]-e.lo].Add(pullSample)
	}
}

// rowsLen and appendRows answer an indexed read as a batch of 1-wide rows:
// the serving tier's read of a frozen generation (rowEngine), whose range
// never narrows between the two halves.
func (e *vecEngine) rowsLen(ids []int64) (int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, idx := range ids {
		if idx < e.lo || idx >= e.hi {
			return 0, e.rangeErr(idx)
		}
	}
	return rowBatchLen(ids, 1), nil
}

func (e *vecEngine) appendRows(b []byte, ids []int64) []byte {
	b, off := rowBlock(b, ids, 1)
	e.mu.RLock()
	for j, idx := range ids {
		binary.LittleEndian.PutUint64(b[off+8*j:], math.Float64bits(e.vec[idx-e.lo]))
	}
	e.count(ids)
	e.mu.RUnlock()
	return b
}

// hotTop returns the k most-pulled slots (all pulled slots when k <= 0).
func (e *vecEngine) hotTop(k int) []HotKey {
	var out []HotKey
	e.mu.RLock()
	for i := range e.pulls {
		if n := e.pulls[i].Load(); n > 0 {
			out = append(out, HotKey{ID: e.lo + int64(i), Count: n})
		}
	}
	e.mu.RUnlock()
	return topHot(out, k)
}

// rangeErr reports an index outside the partition's current range. Since
// ranges narrow when partitions split, this is a routing-staleness signal
// (ErrRangeMoved) the client reacts to by refetching the layout and
// re-grouping the rejected batch.
func (e *vecEngine) rangeErr(idx int64) error {
	return fmt.Errorf("%w: index %d not in [%d,%d) of %s/%d",
		ErrRangeMoved, idx, e.lo, e.hi, e.meta.Name, e.idx)
}

// vecPush is a VecPush request (vecPushReq's walked layout) as the server
// reads it: the index column and the values stay in the request frame,
// which outlives the handler (DESIGN.md §6.1). ids is the column's varints
// (nil for a full-range push), n its length and [lo, hi] its smallest and
// largest index, found by the walk that checks it; raw holds the values'
// little-endian bytes.
type vecPush struct {
	model  string
	part   int
	ids    []byte
	n      int
	lo, hi int64
	raw    []byte
	op     vecOp
}

var msgVecPushReq = wireIDs[reflect.TypeOf(vecPushReq{})]

func (m vecPush) addr() (string, int) { return m.model, m.part }
func (m *vecPush) wireMsg() byte      { return msgVecPushReq }

func (m *vecPush) decode(r wreader) (wreader, error) {
	m.model, m.part = r.addr()
	m.ids, m.n = nil, 0
	if n, ok := r.sliceLen(); ok {
		b, off, id := r.b, r.off, int64(0)
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for k := 0; k < n; k++ {
			var d int64
			if off < len(b) && b[off] < 0x80 { // nearly every delta of an ascending column
				c := int64(b[off])
				d, off = c>>1^-(c&1), off+1
			} else if d, off = zigzag(b, off); off < 0 {
				r.off = len(b)
				r.fail()
				break
			}
			id += d
			lo, hi = min(lo, id), max(hi, id)
		}
		if r.err == nil {
			m.ids, m.n, m.lo, m.hi = b[r.off:off:off], n, lo, hi
			r.off = off
		}
	}
	m.raw = nil
	if n, ok := r.sliceLen(); ok {
		m.raw = r.take(8 * n)
	}
	m.op = vecOp(r.varint())
	if r.err != nil {
		return r, fmt.Errorf("ps: push into %s/%d: %w", m.model, m.part, r.err)
	}
	return r, nil
}

// push applies one VecPush off its frame. The whole request is validated
// before the first element is written — both lengths, and the index range
// against the partition's — so a rejection leaves no partial update behind.
// Then one loop per op walks the values in order.
func (e *vecEngine) push(m vecPush) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(m.raw) / 8
	switch {
	case m.ids == nil && n != len(e.vec):
		// A correctly sized full-range push that stopped fitting means
		// the partition narrowed under a stale layout — signal it like
		// any other range rejection so the client refetches and regroups.
		return fmt.Errorf("%w: full push size %d != partition size %d of %s/%d",
			ErrRangeMoved, n, len(e.vec), e.meta.Name, e.idx)
	case m.ids != nil && n != m.n:
		return fmt.Errorf("ps: push has %d values for %d indices", n, m.n)
	case m.n > 0 && m.lo < e.lo:
		return e.rangeErr(m.lo)
	case m.n > 0 && m.hi >= e.hi:
		return e.rangeErr(m.hi)
	}
	// Slots are decoded a chunk at a time onto the stack: 0, 1, 2, … for
	// a full-range push, each index minus the partition's lo otherwise.
	var chunk [256]int64
	slot, off := int64(-1), 0
	if m.ids != nil {
		slot = -e.lo
	}
	for k := 0; k < n; k += len(chunk) {
		at := chunk[:min(n-k, len(chunk))]
		for j := range at {
			d := int64(1)
			if m.ids != nil {
				if c := int64(m.ids[off]); c < 0x80 {
					d, off = c>>1^-(c&1), off+1
				} else {
					d, off = zigzag(m.ids, off)
				}
			}
			slot += d
			at[j] = slot
		}
		vec, raw := e.vec, m.raw[8*k:]
		val := func(j int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:])) }
		switch m.op {
		case vecSet:
			for j, s := range at {
				vec[s] = val(j)
			}
		case vecMin:
			for j, s := range at {
				if v := val(j); v < vec[s] {
					vec[s] = v
				}
			}
		case vecMax:
			for j, s := range at {
				if v := val(j); v > vec[s] {
					vec[s] = v
				}
			}
		default:
			for j, s := range at {
				vec[s] += val(j)
			}
		}
	}
	return nil
}

// lockData acquires the write lock and exposes the backing slice for
// psFuncs (PartView.VecLock).
func (e *vecEngine) lockData() (data []float64, lo int64, unlock func()) {
	e.mu.Lock()
	return e.vec, e.lo, e.mu.Unlock
}

// export copies out the [lo, hi) ∩ [e.lo, e.hi) slice.
func (e *vecEngine) export(lo, hi int64) partImage {
	e.mu.RLock()
	defer e.mu.RUnlock()
	lo, hi = max(lo, e.lo), min(hi, e.hi)
	if lo > hi {
		lo, hi = e.lo, e.lo
	}
	return partImage{Kind: e.meta.Kind, Lo: lo, Hi: hi, Dense: slices.Clone(e.vec[lo-e.lo : hi-e.lo])}
}

// merge copies an exported slice into place; the engine must cover the
// incoming range (newEngine sized it from the layout).
func (e *vecEngine) merge(img partImage) error {
	if err := e.checkKind(img); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if img.Lo < e.lo || img.Hi > e.hi || int64(len(img.Dense)) != img.Hi-img.Lo {
		return e.badImage("Dense", "%d values for [%d,%d), partition holds [%d,%d)", len(img.Dense), img.Lo, img.Hi, e.lo, e.hi)
	}
	copy(e.vec[img.Lo-e.lo:], img.Dense)
	return nil
}

// splitAt keeps [e.lo, mid), releases the upper half's values and drops
// its pull counts.
func (e *vecEngine) splitAt(mid int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if mid <= e.lo || mid >= e.hi {
		return fmt.Errorf("ps: split point %d not inside (%d,%d)", mid, e.lo, e.hi)
	}
	kept := make([]float64, mid-e.lo)
	copy(kept, e.vec[:mid-e.lo])
	e.vec = kept
	e.pulls = e.pulls[:mid-e.lo]
	e.hi = mid
	e.narrowTo(mid)
	return nil
}

func (e *vecEngine) sizeBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return int64(len(e.vec)) * 8
}

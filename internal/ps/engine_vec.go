package ps

import (
	"encoding/binary"
	"fmt"
	"math"
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

	// pulls counts the indexed pulls of each slot, the hot-head signal
	// (LoadReport, serve.go), bumped under the read lock as rowStore.pulls
	// is. Full-range pulls carry no per-key signal and are not counted.
	pulls []atomic.Int64
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

// count bumps the pull counts of indices the caller validated under the
// read lock it still holds.
func (e *vecEngine) count(ids []int64) {
	for _, idx := range ids {
		e.pulls[idx-e.lo].Add(1)
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

// push applies one combine request. The whole request is validated
// before the first element is written, so a bad index or size mismatch
// rejects the push without leaving a partially applied update behind.
func (e *vecEngine) push(req vecPushReq) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if req.Indices == nil {
		if len(req.Values) != len(e.vec) {
			// A correctly sized full-range push that stopped fitting means
			// the partition narrowed under a stale layout — signal it like
			// any other range rejection so the client refetches and regroups.
			return fmt.Errorf("%w: full push size %d != partition size %d of %s/%d",
				ErrRangeMoved, len(req.Values), len(e.vec), e.meta.Name, e.idx)
		}
	} else {
		if len(req.Values) != len(req.Indices) {
			return fmt.Errorf("ps: push has %d values for %d indices", len(req.Values), len(req.Indices))
		}
		for _, idx := range req.Indices {
			if idx < e.lo || idx >= e.hi {
				return e.rangeErr(idx)
			}
		}
	}
	combine := func(slot *float64, v float64) {
		switch req.Op {
		case vecSet:
			*slot = v
		case vecMin:
			if v < *slot {
				*slot = v
			}
		case vecMax:
			if v > *slot {
				*slot = v
			}
		default:
			*slot += v
		}
	}
	if req.Indices == nil {
		for i, v := range req.Values {
			combine(&e.vec[i], v)
		}
		return nil
	}
	for i, idx := range req.Indices {
		combine(&e.vec[idx-e.lo], req.Values[i])
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

package ps

import "sync"

// sparseEngine stores one SparseVector partition: a key→value map
// behind a single RWMutex. Fast-unfolding's community models are small
// and write-heavy, so per-key sharding is not worth the footprint.
type sparseEngine struct {
	engineBase
	mu sync.RWMutex
	m  map[int64]float64
}

func newSparseEngine(base engineBase) *sparseEngine {
	return &sparseEngine{engineBase: base, m: make(map[int64]float64)}
}

func (e *sparseEngine) pull(req pullReq) (mapPullResp, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[int64]float64)
	if req.Keys == nil {
		for k, v := range e.m {
			out[k] = v
		}
	} else {
		for _, k := range req.Keys {
			if err := e.checkKey(k); err != nil {
				return mapPullResp{}, err
			}
			if v, ok := e.m[k]; ok {
				out[k] = v
			}
		}
	}
	return mapPullResp{M: out}, nil
}

// push validates the whole request against the engine's route range
// before the first key is written, so a batch that straddles a split
// rejects without a partial apply.
func (e *sparseEngine) push(req mapPushReq) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for k := range req.M {
		if err := e.checkKey(k); err != nil {
			return err
		}
	}
	for k, v := range req.M {
		if req.Set {
			e.m[k] = v
		} else {
			e.m[k] += v
		}
	}
	return nil
}

// export copies out the entries whose route keys fall in [lo, hi).
func (e *sparseEngine) export(lo, hi int64) partImage {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[int64]float64)
	for k, v := range e.m {
		if e.inExport(k, lo, hi) {
			out[k] = v
		}
	}
	return partImage{Kind: e.meta.Kind, M: out}
}

func (e *sparseEngine) merge(img partImage) error {
	if err := e.checkKind(img); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for k, v := range img.M {
		e.m[k] = v
	}
	return nil
}

// splitAt drops the entries handed off to the new upper-half partition.
func (e *sparseEngine) splitAt(mid int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for k := range e.m {
		if !e.keepOnSplit(k, mid) {
			delete(e.m, k)
		}
	}
	e.narrowTo(mid)
	return nil
}

func (e *sparseEngine) sizeBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return int64(len(e.m)) * 16
}

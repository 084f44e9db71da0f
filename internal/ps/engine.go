package ps

// Per-kind storage engines. Sec. III-A lists the server-side structures
// (dense/sparse vectors, embeddings, CSR neighbor tables, dense matrices).
// Three engines hold them: dense vectors, embeddings (which also hold the
// sparse vectors, one wide, and the dense matrices, by column), neighbor
// tables. Each owns its data, its locking, and its optimizer state. The
// Server is reduced to a dispatcher: it looks an engine up in the Store
// and delegates, so the locking discipline of one kind never constrains
// another (embedding pulls no longer serialize dense-vector traffic
// behind a shared partition lock, and vice versa).

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// rangeMovedMsg is the wire-stable marker of a key rejected because its
// route range no longer belongs to the addressed partition (it was split
// or migrated away). Deliberately distinct from the "not on this server"
// layout error and from the stale-epoch fence: the client reacts by
// refetching the layout and re-grouping the rejected batch, knowing the
// server applied none of it.
const rangeMovedMsg = "ps: key outside partition range (moved)"

// ErrRangeMoved is the local form of a range-moved rejection.
var ErrRangeMoved = errors.New(rangeMovedMsg)

// IsRangeMovedErr classifies an error — local or carried through a
// RemoteError — as a range-moved rejection.
func IsRangeMovedErr(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrRangeMoved) || strings.Contains(err.Error(), rangeMovedMsg)
}

// engine is one model partition's storage. Implementations lock
// internally: every method is safe for concurrent use.
type engine interface {
	// modelMeta returns the model metadata the engine was created with.
	modelMeta() ModelMeta
	// sizeBytes approximates resident bytes for Stats.
	sizeBytes() int64
	// partIdx returns the partition index the engine holds.
	partIdx() int
	// export returns the image of the state whose route keys fall in
	// [lo, hi) — rows, optimizer state, lifecycle state — copied out under
	// the engine's own locks as one consistent cut. Column-partitioned
	// kinds ignore the range and export everything (they migrate
	// wholesale, never split).
	export(lo, hi int64) partImage
	// merge validates img against this engine's kind and shape, rejecting
	// it whole and by field name before anything is written, then copies
	// its state in: rows the image holds replace the engine's, rows it
	// does not hold stay. Merging an image twice therefore equals merging
	// it once — except into a building Neighbor table, where adjacency
	// appends and the copies only fold away at seal().
	merge(img partImage) error
	// splitAt discards the rows with route keys >= mid and narrows the
	// engine's route range to [lo, mid). The migration source calls this
	// after the destination acknowledged the export of [mid, hi).
	splitAt(mid int64) error
}

// engineBase carries the identity every engine shares, plus the route
// range the engine enforces: pushes and keyed pulls whose route keys
// fall outside [rlo, rhi) are rejected whole with ErrRangeMoved. The
// bounds are read on every request and narrowed by splitAt while pulls
// proceed, so they are accessed atomically.
type engineBase struct {
	meta   ModelMeta
	idx    int
	routed bool
	rlo    int64
	rhi    int64
}

func (b *engineBase) modelMeta() ModelMeta { return b.meta }

func (b *engineBase) partIdx() int { return b.idx }

func (b *engineBase) rangeLo() int64 { return atomic.LoadInt64(&b.rlo) }

func (b *engineBase) rangeHi() int64 { return atomic.LoadInt64(&b.rhi) }

// narrowTo shrinks the enforced route range to [rlo, mid).
func (b *engineBase) narrowTo(mid int64) { atomic.StoreInt64(&b.rhi, mid) }

// checkKey validates that key still routes into this engine's range.
func (b *engineBase) checkKey(key int64) error {
	if !b.routed {
		return nil
	}
	rk := b.meta.RouteKey(key)
	if lo, hi := b.rangeLo(), b.rangeHi(); rk < lo || rk >= hi {
		return fmt.Errorf("%s: key %d (route %d) not in [%d,%d) of %s/%d",
			rangeMovedMsg, key, rk, lo, hi, b.meta.Name, b.idx)
	}
	return nil
}

// inExport reports whether a stored key belongs to an export of [lo, hi).
func (b *engineBase) inExport(key, lo, hi int64) bool {
	rk := b.meta.RouteKey(key)
	return rk >= lo && rk < hi
}

// keepOnSplit reports whether a stored key survives splitAt(mid).
func (b *engineBase) keepOnSplit(key, mid int64) bool {
	return b.meta.RouteKey(key) < mid
}

// baseFor builds the shared engine identity for partition id of meta,
// looking the route range up by stable identity. A routed partition the
// meta does not know (defensive: an engine restored under a layout that
// predates it) enforces the full route span rather than rejecting
// everything.
func baseFor(meta ModelMeta, id int) engineBase {
	base := engineBase{meta: meta, idx: id, routed: meta.routed()}
	if pm, ok := meta.partByID(id); ok && (pm.Lo != 0 || pm.Hi != 0) {
		base.rlo, base.rhi = pm.Lo, pm.Hi
	} else if base.routed {
		base.rhi = meta.routeSpan()
	}
	return base
}

// newEngine creates an empty engine for one partition of meta, addressed
// by its stable identity. embShards is an embedding engine's shard count;
// 0 takes the process default (SetEmbShards).
func newEngine(meta ModelMeta, idx, embShards int) (engine, error) {
	slot := meta.slotByID(idx)
	if slot < 0 {
		return nil, fmt.Errorf("ps: partition %d out of range for %s", idx, meta.Name)
	}
	pm := meta.Parts[slot]
	base := baseFor(meta, idx)
	switch meta.Kind {
	case DenseVector:
		return newVecEngine(base, pm), nil
	case Embedding, ColumnEmbedding:
		return newEmbEngine(base, pm, embShards), nil
	case Neighbor:
		return newNbrEngine(base), nil
	default:
		return nil, fmt.Errorf("ps: unknown kind %v", meta.Kind)
	}
}

// Store is the engine container of one server, exposed to psFuncs.
type Store struct {
	mu    sync.RWMutex
	parts map[string]map[int]engine
}

func newStore() *Store {
	return &Store{parts: make(map[string]map[int]engine)}
}

func (s *Store) get(model string, idx int) (engine, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	byIdx, ok := s.parts[model]
	if !ok {
		return nil, fmt.Errorf("ps: model %q not on this server", model)
	}
	e, ok := byIdx[idx]
	if !ok {
		return nil, fmt.Errorf("ps: model %q partition %d not on this server", model, idx)
	}
	return e, nil
}

// getEngine looks a partition up and checks that its engine has the
// concrete type the caller's method needs (a pull/push of the wrong kind
// is a client bug and now fails loudly instead of reading zero storage).
func getEngine[E engine](s *Store, model string, idx int) (E, error) {
	var zero E
	e, err := s.get(model, idx)
	if err != nil {
		return zero, err
	}
	te, ok := e.(E)
	if !ok {
		return zero, fmt.Errorf("ps: model %q is %v, not served by %T",
			model, e.modelMeta().Kind, zero)
	}
	return te, nil
}

func (s *Store) put(e engine) {
	name := e.modelMeta().Name
	s.mu.Lock()
	defer s.mu.Unlock()
	byIdx, ok := s.parts[name]
	if !ok {
		byIdx = make(map[int]engine)
		s.parts[name] = byIdx
	}
	byIdx[e.partIdx()] = e
}

func (s *Store) delete(model string) {
	s.mu.Lock()
	delete(s.parts, model)
	s.mu.Unlock()
}

// deletePart removes a single partition (the source side of a completed
// migration); the model entry stays if other partitions remain.
func (s *Store) deletePart(model string, idx int) {
	s.mu.Lock()
	if byIdx, ok := s.parts[model]; ok {
		delete(byIdx, idx)
		if len(byIdx) == 0 {
			delete(s.parts, model)
		}
	}
	s.mu.Unlock()
}

// rowIniter deterministically materializes absent embedding rows,
// honoring InitScale. Element j of row id is a pure function of (id, j):
// splitmix64 evaluated at counter id*2654435761 + 12345 + (j+1) steps,
// mapped to [-scale, scale). Because each element is addressed directly,
// a column partition computes exactly its [col0, col1) slice — values
// never depend on the partition layout, and materializing a row in place
// costs a few ns per element and no allocation.
type rowIniter struct {
	scale      float64
	col0, col1 int
}

func newRowIniter(meta ModelMeta, col0, col1 int) rowIniter {
	return rowIniter{scale: meta.InitScale, col0: col0, col1: col1}
}

// splitmix64 is the standard SplitMix64 finalizer (Steele et al.); the
// stream for seed s is splitmix64(s + k*golden) for k = 1, 2, ...
func splitmix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// initRowInto fills dst (one stored row, col1-col0 wide) with row id's
// initial values.
func (ri *rowIniter) initRowInto(dst []float64, id int64) {
	if ri.scale == 0 {
		clear(dst)
		return
	}
	seed := uint64(id*2654435761 + 12345)
	for i := range dst {
		h := splitmix64(seed + uint64(ri.col0+i+1)*0x9e3779b97f4a7c15)
		u := float64(h>>11) / (1 << 53) // uniform in [0, 1)
		dst[i] = (u*2 - 1) * ri.scale
	}
}

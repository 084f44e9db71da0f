package ps

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// embEngine stores one Embedding/ColumnEmbedding partition as N
// id-hashed shards, each behind its own RWMutex. The PS hot path is
// many agents pulling and pushing disjoint row batches concurrently
// (Sec. III-C); a single partition lock serialized them — worse,
// pulls needed the *write* lock because absent rows materialize
// lazily. Sharding plus a read-lock fast path (upgrading only the
// shards that actually hold uninitialized rows) lets concurrent
// batched pulls proceed in parallel.
//
// Optimizer state is per-row and lives next to the rows in each shard,
// so a gradient push touches exactly the shards its ids hash to. The
// Adam step counter is engine-global (one increment per gradient
// request, as before); concurrent gradient pushes observe their own
// increments' values for bias correction.
type embEngine struct {
	engineBase
	col0, col1 int // stored column range; (0, Dim) for row-partitioned
	step       atomic.Int64
	shards     []embShard

	// hot counts pull frequency per row; the serving tier mines it for
	// the power-law head to replicate (serve.go).
	hot hotCounter
}

type embShard struct {
	mu   sync.RWMutex
	rows map[int64][]float64
	mom  map[int64][]float64
	vel  map[int64][]float64
}

// defaultEmbShards is the per-partition shard count. Shards cost three
// map headers and a mutex each, so this can be generous: 32 keeps the
// collision probability of an 8-client fan-out low without bloating
// small models.
const defaultEmbShards = 32

var embShardCount atomic.Int32

// SetEmbShards overrides the shard count of embedding engines created
// afterwards (existing engines keep theirs). n < 1 resets the default.
// Intended for benchmarks and shard-crossing tests.
func SetEmbShards(n int) {
	if n < 1 {
		n = 0
	}
	embShardCount.Store(int32(n))
}

func newEmbEngine(base engineBase, pm Partition) *embEngine {
	e := &embEngine{engineBase: base}
	if base.meta.Kind == ColumnEmbedding {
		e.col0, e.col1 = pm.Col0, pm.Col1
	} else {
		e.col0, e.col1 = 0, base.meta.Dim
	}
	n := int(embShardCount.Load())
	if n < 1 {
		n = defaultEmbShards
	}
	e.shards = make([]embShard, n)
	for i := range e.shards {
		e.shards[i].rows = make(map[int64][]float64)
	}
	return e
}

// restoreEmbEngine builds an empty engine over the snapshot's column
// range and scatters the checkpointed rows and moments over the shards.
func restoreEmbEngine(base engineBase, snap ckptSnapshot) *embEngine {
	e := newEmbEngine(base, Partition{Col0: snap.Col0, Col1: snap.Col1})
	_ = e.importRange(snap) // an embedding import has no failure mode
	return e
}

// width is the per-key stored vector width.
func (e *embEngine) width() int { return e.col1 - e.col0 }

func (e *embEngine) cols() (int, int) { return e.col0, e.col1 }

// shard maps an id to its shard. Fibonacci hashing: consecutive vertex
// ids (the common pull pattern) spread uniformly.
func (e *embEngine) shard(id int64) *embShard {
	h := uint64(id) * 0x9e3779b97f4a7c15
	return &e.shards[(h>>32)%uint64(len(e.shards))]
}

func (e *embEngine) initer() rowIniter {
	return newRowIniter(e.meta, e.col0, e.col1)
}

// rowLocked returns (materializing if absent) the stored row for id.
// Callers hold sh's write lock.
func (sh *embShard) rowLocked(id int64, ri *rowIniter) []float64 {
	row, ok := sh.rows[id]
	if !ok {
		row = ri.initRow(id)
		sh.rows[id] = row
	}
	return row
}

// pull copies the requested rows out. Fast path: every shard is read
// under RLock; only shards holding rows that are not materialized yet
// upgrade to the write lock (and re-check, since a racing pull may have
// initialized them in between).
func (e *embEngine) pull(req embPullReq) (embPullResp, error) {
	for _, id := range req.IDs {
		if err := e.checkKey(id); err != nil {
			return embPullResp{}, err
		}
	}
	out := make(map[int64][]float64, len(req.IDs))
	ri := e.initer()
	groups := e.groupIDs(req.IDs)
	for si, ids := range groups {
		if len(ids) == 0 {
			continue
		}
		sh := &e.shards[si]
		var missing []int64
		sh.mu.RLock()
		for _, id := range ids {
			if src, ok := sh.rows[id]; ok {
				cp := make([]float64, len(src))
				copy(cp, src)
				out[id] = cp
			} else {
				missing = append(missing, id)
			}
		}
		sh.mu.RUnlock()
		if len(missing) == 0 {
			continue
		}
		sh.mu.Lock()
		for _, id := range missing {
			src := sh.rowLocked(id, &ri)
			cp := make([]float64, len(src))
			copy(cp, src)
			out[id] = cp
		}
		sh.mu.Unlock()
	}
	e.hot.bump(req.IDs)
	return embPullResp{Vecs: out}, nil
}

// hotTop exposes the engine's pull-frequency head for LoadReport.
func (e *embEngine) hotTop(k int) []HotKey { return e.hot.top(k) }

// groupIDs buckets ids by shard index.
func (e *embEngine) groupIDs(ids []int64) [][]int64 {
	groups := make([][]int64, len(e.shards))
	for _, id := range ids {
		h := uint64(id) * 0x9e3779b97f4a7c15
		si := (h >> 32) % uint64(len(e.shards))
		groups[si] = append(groups[si], id)
	}
	return groups
}

// push applies one add/set/gradient request. Widths are validated for
// the whole request before any row (or the Adam step counter) mutates,
// so a malformed batch rejects cleanly instead of half-applying.
func (e *embEngine) push(req embPushReq) error {
	w := e.width()
	for id, vals := range req.Vecs {
		if len(vals) != w {
			return fmt.Errorf("ps: push width %d != row width %d", len(vals), w)
		}
		if err := e.checkKey(id); err != nil {
			return err
		}
	}
	var step int64
	if req.Grad {
		step = e.step.Add(1)
	}
	ri := e.initer()
	type entry struct {
		id   int64
		vals []float64
	}
	groups := make([][]entry, len(e.shards))
	for id, vals := range req.Vecs {
		h := uint64(id) * 0x9e3779b97f4a7c15
		si := (h >> 32) % uint64(len(e.shards))
		groups[si] = append(groups[si], entry{id, vals})
	}
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		sh := &e.shards[si]
		sh.mu.Lock()
		for _, it := range g {
			row := sh.rowLocked(it.id, &ri)
			switch {
			case req.Set:
				copy(row, it.vals)
			case req.Grad:
				e.applyGrad(sh, it.id, row, it.vals, step)
			default:
				for i, v := range it.vals {
					row[i] += v
				}
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// applyGrad applies the model's optimizer to one row, updating the
// shard's per-key moment state. Callers hold sh's write lock.
func (e *embEngine) applyGrad(sh *embShard, id int64, row, grad []float64, step int64) {
	opt := e.meta.Opt
	switch opt.Kind {
	case OptNone:
		for i, g := range grad {
			row[i] += g
		}
	case OptSGD:
		for i, g := range grad {
			row[i] -= opt.LR * g
		}
	case OptAdaGrad:
		if sh.vel == nil {
			sh.vel = make(map[int64][]float64)
		}
		acc, ok := sh.vel[id]
		if !ok {
			acc = make([]float64, len(row))
			sh.vel[id] = acc
		}
		for i, g := range grad {
			acc[i] += g * g
			row[i] -= opt.LR * g / (math.Sqrt(acc[i]) + opt.Eps)
		}
	case OptAdam:
		if sh.mom == nil {
			sh.mom = make(map[int64][]float64)
		}
		if sh.vel == nil {
			sh.vel = make(map[int64][]float64)
		}
		m, ok := sh.mom[id]
		if !ok {
			m = make([]float64, len(row))
			sh.mom[id] = m
		}
		v, ok := sh.vel[id]
		if !ok {
			v = make([]float64, len(row))
			sh.vel[id] = v
		}
		b1c := 1 - math.Pow(opt.Beta1, float64(step))
		b2c := 1 - math.Pow(opt.Beta2, float64(step))
		for i, g := range grad {
			m[i] = opt.Beta1*m[i] + (1-opt.Beta1)*g
			v[i] = opt.Beta2*v[i] + (1-opt.Beta2)*g*g
			row[i] -= opt.LR * (m[i] / b1c) / (math.Sqrt(v[i]/b2c) + opt.Eps)
		}
	}
}

// lockAll write-locks every shard in index order (the deterministic
// order that, combined with the model-name ordering psFuncs use across
// engines, keeps multi-partition locking deadlock-free) and returns a
// raw row accessor with the matching unlock.
func (e *embEngine) lockAll() (rows func(id int64) []float64, unlock func()) {
	for i := range e.shards {
		e.shards[i].mu.Lock()
	}
	ri := e.initer()
	rows = func(id int64) []float64 {
		return e.shard(id).rowLocked(id, &ri)
	}
	unlock = func() {
		for i := len(e.shards) - 1; i >= 0; i-- {
			e.shards[i].mu.Unlock()
		}
	}
	return rows, unlock
}

// row returns (materializing if absent) the live row for id, locking
// only its shard (PartView.Row).
func (e *embEngine) row(id int64) []float64 {
	sh := e.shard(id)
	ri := e.initer()
	sh.mu.Lock()
	row := sh.rowLocked(id, &ri)
	sh.mu.Unlock()
	return row
}

// snapshot read-locks all shards so the result is one consistent cut,
// then merges the rows (and their optimizer moments) that keep accepts
// into the flat checkpoint maps — the on-DFS format knows nothing about
// sharding, so layouts restore under any shard count. A nil keep takes
// everything, and only then are the maps pre-sized to their final
// counts. The engine-global Adam step travels with the snapshot so bias
// correction stays monotone wherever it is restored or imported.
func (e *embEngine) snapshot(keep func(id int64) bool) []byte {
	for i := range e.shards {
		e.shards[i].mu.RLock()
	}
	defer func() {
		for i := len(e.shards) - 1; i >= 0; i-- {
			e.shards[i].mu.RUnlock()
		}
	}()
	var nRows, nMom, nVel int
	if keep == nil {
		for i := range e.shards {
			nRows += len(e.shards[i].rows)
			nMom += len(e.shards[i].mom)
			nVel += len(e.shards[i].vel)
		}
	}
	snap := ckptSnapshot{
		Kind: e.meta.Kind,
		Emb:  make(map[int64][]float64, nRows),
		Col0: e.col0, Col1: e.col1,
		Step: int(e.step.Load()),
	}
	// merge adds the kept entries of src to dst, allocating dst on the
	// first one so absent optimizer state stays a nil map.
	merge := func(dst, src map[int64][]float64, size int) map[int64][]float64 {
		for id, v := range src {
			if keep != nil && !keep(id) {
				continue
			}
			if dst == nil {
				dst = make(map[int64][]float64, size)
			}
			dst[id] = v
		}
		return dst
	}
	for i := range e.shards {
		sh := &e.shards[i]
		snap.Emb = merge(snap.Emb, sh.rows, nRows)
		snap.Mom = merge(snap.Mom, sh.mom, nMom)
		snap.Vel = merge(snap.Vel, sh.vel, nVel)
	}
	return enc(snap)
}

func (e *embEngine) checkpointData() []byte { return e.snapshot(nil) }

// exportRange keeps only the rows whose route keys fall in [lo, hi).
// Column-partitioned engines export everything — they migrate wholesale.
func (e *embEngine) exportRange(lo, hi int64) ([]byte, error) {
	if !e.routed {
		return e.snapshot(nil), nil
	}
	return e.snapshot(func(id int64) bool { return e.inExport(id, lo, hi) }), nil
}

// importRange scatters an exported row set over the shards.
func (e *embEngine) importRange(snap ckptSnapshot) error {
	for i := range e.shards {
		e.shards[i].mu.Lock()
	}
	defer func() {
		for i := len(e.shards) - 1; i >= 0; i-- {
			e.shards[i].mu.Unlock()
		}
	}()
	for id, row := range snap.Emb {
		e.shard(id).rows[id] = row
	}
	for id, m := range snap.Mom {
		sh := e.shard(id)
		if sh.mom == nil {
			sh.mom = make(map[int64][]float64)
		}
		sh.mom[id] = m
	}
	for id, v := range snap.Vel {
		sh := e.shard(id)
		if sh.vel == nil {
			sh.vel = make(map[int64][]float64)
		}
		sh.vel[id] = v
	}
	if s := int64(snap.Step); s > e.step.Load() {
		e.step.Store(s)
	}
	return nil
}

// splitAt drops the upper half's rows from every shard: the shard hash
// is independent of the route hash, so a split lands mid-shard by
// construction and each shard gives up just its moved keys.
func (e *embEngine) splitAt(mid int64) error {
	if !e.routed {
		return fmt.Errorf("ps: cannot split column-partitioned model %s", e.meta.Name)
	}
	for i := range e.shards {
		e.shards[i].mu.Lock()
	}
	defer func() {
		for i := len(e.shards) - 1; i >= 0; i-- {
			e.shards[i].mu.Unlock()
		}
	}()
	for i := range e.shards {
		sh := &e.shards[i]
		for id := range sh.rows {
			if !e.keepOnSplit(id, mid) {
				delete(sh.rows, id)
				delete(sh.mom, id)
				delete(sh.vel, id)
			}
		}
	}
	e.narrowTo(mid)
	return nil
}

func (e *embEngine) sizeBytes() int64 {
	var b int64
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		for _, row := range sh.rows {
			b += 8 + int64(len(row))*8
		}
		sh.mu.RUnlock()
	}
	return b
}

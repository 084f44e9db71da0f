package ps

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"psgraph/internal/f64le"
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
	shards     []embShard // power-of-two count, so the shard pick is a mask
	ri         rowIniter
}

// embShard is one lock's worth of rows, moments included (rowstore.go).
type embShard struct {
	mu    sync.RWMutex
	store rowStore
}

// defaultEmbShards is the per-partition shard count. An empty shard costs
// a mutex and a 16-entry id table, so this can be generous: 32 keeps the
// collision probability of an 8-client fan-out low without bloating
// small models.
const defaultEmbShards = 32

var embShardCount atomic.Int32

// SetEmbShards overrides the shard count of embedding engines created
// afterwards (existing engines keep theirs); engines round it up to a
// power of two. n < 1 resets the default. Intended for benchmarks and
// shard-crossing tests. A serving generation always has one (serveInstall).
func SetEmbShards(n int) { embShardCount.Store(int32(max(n, 0))) }

func newEmbEngine(base engineBase, pm Partition, shards int) *embEngine {
	e := &embEngine{engineBase: base}
	if base.meta.Kind == ColumnEmbedding {
		e.col0, e.col1 = pm.Col0, pm.Col1
	} else {
		e.col0, e.col1 = 0, base.meta.Dim
	}
	e.ri = newRowIniter(e.meta, e.col0, e.col1)
	n := cmp.Or(shards, int(embShardCount.Load()), defaultEmbShards)
	e.shards = make([]embShard, 1<<bits.Len(uint(n-1)))
	for i := range e.shards {
		e.shards[i].store = newRowStore(e.width())
	}
	return e
}

// width is the per-key stored vector width.
func (e *embEngine) width() int { return e.col1 - e.col0 }

// shardIdx maps an id to its shard. Fibonacci hashing: consecutive vertex
// ids (the common pull pattern) spread uniformly.
func (e *embEngine) shardIdx(id int64) int {
	return int((uint64(id)*fibHash)>>32) & (len(e.shards) - 1)
}

func (e *embEngine) shard(id int64) *embShard { return &e.shards[e.shardIdx(id)] }

// rowLocked returns (materializing if absent) the ordinal and live row
// of id. Callers hold the write lock of id's shard sh.
func (e *embEngine) rowLocked(sh *embShard, id int64) (uint32, []float64) {
	ord, added := sh.store.put(id)
	row := sh.store.row(ord)
	if added {
		e.ri.initRowInto(row, id)
	}
	return ord, row
}

// rowsLen is the size half of a pull of ids: every key is validated, and
// what comes back is the size of the batch appendRows writes for them.
func (e *embEngine) rowsLen(ids []int64) (int, error) {
	for _, id := range ids {
		if err := e.checkKey(id); err != nil {
			return 0, err
		}
	}
	return rowBatchLen(ids, e.width()), nil
}

// appendRows is the write half: the batch that answers ids goes behind b,
// which has rowsLen's room for it — the head, then each row from its slab
// straight into the frame, in request order, counted as pulled. Fast path: every
// shard is read under RLock; only shards holding rows that are not
// materialized yet upgrade to the write lock (and re-check, since a racing
// pull may have initialized them in between).
func (e *embEngine) appendRows(b []byte, ids []int64) []byte {
	w := e.width()
	b, off := rowBlock(b, ids, w)
	order, start := e.byShard(ids)
	var missing []int32
	for si := range e.shards {
		group := order[start[si]:start[si+1]]
		if len(group) == 0 {
			continue
		}
		sh := &e.shards[si]
		missing = missing[:0]
		sh.mu.RLock()
		for _, j := range group {
			if src := sh.store.pulled(ids[j]); src != nil {
				f64le.Put(b[off+8*int(j)*w:], src)
			} else {
				missing = append(missing, j)
			}
		}
		sh.mu.RUnlock()
		if len(missing) == 0 {
			continue
		}
		sh.mu.Lock()
		for _, j := range missing {
			ord, src := e.rowLocked(sh, ids[j])
			sh.store.pulls[ord].Add(1)
			f64le.Put(b[off+8*int(j)*w:], src)
		}
		sh.mu.Unlock()
	}
	return b
}

// pull is EmbPull's engine half: both halves into a frame of exactly the
// reply's size. Nil keys ask for every row the partition holds (a sparse
// vector's PullAll); the reply's ids name them.
func (e *embEngine) pull(req pullReq) (encoded, error) {
	ids := req.Keys
	if ids == nil {
		for i := range e.shards {
			sh := &e.shards[i]
			sh.mu.RLock()
			ids = append(ids, sh.store.ids...)
			sh.mu.RUnlock()
		}
	}
	n, err := e.rowsLen(ids)
	if err != nil {
		return nil, err
	}
	return e.appendRows(frame(msgEmbPullResp, 2+n), ids), nil
}

// hotTop returns the k most-pulled rows (all pulled rows when k <= 0) for
// LoadReport and the serving tier's hot-head mining.
func (e *embEngine) hotTop(k int) []HotKey {
	var out []HotKey
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		for ord, id := range sh.store.ids {
			if n := sh.store.pulls[ord].Load(); n > 0 {
				out = append(out, HotKey{ID: id, Count: n})
			}
		}
		sh.mu.RUnlock()
	}
	return topHot(out, k)
}

// byShard counting-sorts request positions by shard: the positions of the
// ids that hash to shard s are order[start[s]:start[s+1]], in request
// order. One allocation however many shards a batch touches.
func (e *embEngine) byShard(ids []int64) (order, start []int32) {
	ns := len(e.shards)
	buf := make([]int32, len(ids)+2*ns+1)
	order, start, next := buf[:len(ids)], buf[len(ids):len(ids)+ns+1], buf[len(ids)+ns+1:]
	for _, id := range ids {
		start[e.shardIdx(id)+1]++
	}
	for s := 0; s < ns; s++ {
		start[s+1] += start[s]
		next[s] = start[s]
	}
	for j, id := range ids {
		s := e.shardIdx(id)
		order[next[s]] = int32(j)
		next[s]++
	}
	return order, start
}

// push applies one add/set/gradient request straight from its frame, rows
// in batch order (a repeated id is applied once per occurrence). Width and
// routes are validated for the whole request — its shape was when it was
// decoded — before any row (or the Adam step counter) mutates, so a
// malformed batch rejects cleanly instead of half-applying. Only a
// gradient is converted first, one row at a time into one scratch row.
func (e *embEngine) push(req embPush) error {
	w := e.width()
	if req.dim != w {
		return fmt.Errorf("ps: push of %d-wide rows into %s/%d, which stores %d-wide rows", req.dim, e.meta.Name, e.idx, w)
	}
	for _, id := range req.ids {
		if err := e.checkKey(id); err != nil {
			return err
		}
	}
	var step int64
	var grad []float64
	if req.grad {
		step, grad = e.step.Add(1), make([]float64, w)
	}
	order, start := e.byShard(req.ids)
	for si := range e.shards {
		group := order[start[si]:start[si+1]]
		if len(group) == 0 {
			continue
		}
		sh := &e.shards[si]
		sh.mu.Lock()
		for _, j := range group {
			vals := req.raw[8*int(j)*w:][:8*w]
			ord, row := e.rowLocked(sh, req.ids[j])
			switch {
			case req.set:
				f64le.Get(row, vals)
			case req.grad:
				f64le.Get(grad, vals)
				e.meta.Opt.apply(row, grad, step, func(k int) []float64 { // per-row moments
					return sh.store.moment([2]*[][]float64{&sh.store.mom, &sh.store.vel}[k], ord)
				})
			default:
				for i := range row {
					row[i] += math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:]))
				}
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// lockShards write-locks every shard in index order (the deterministic
// order that, combined with the model-name ordering psFuncs use across
// engines, keeps multi-partition locking deadlock-free).
func (e *embEngine) lockShards() {
	for i := range e.shards {
		e.shards[i].mu.Lock()
	}
}

func (e *embEngine) unlockShards() {
	for i := len(e.shards) - 1; i >= 0; i-- {
		e.shards[i].mu.Unlock()
	}
}

// LockedRows is the raw row accessor of an embedding partition whose
// shards are all write-locked (PartView.Lock). Rows it returns stay
// valid, and do not move, until Unlock — also across later Rows calls
// that materialize other rows.
type LockedRows struct{ e *embEngine }

// Rows resolves a whole id column before its caller touches a row: dst[i]
// (dst's array, when it is big enough) is the live row of ids[i],
// materialized if absent. The loop does nothing but find rows, so the misses
// of neighbouring ids overlap; a run of equal ids is resolved once.
func (l LockedRows) Rows(dst [][]float64, ids []int64) [][]float64 {
	dst = slices.Grow(dst[:0], len(ids))[:len(ids)]
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			dst[i] = dst[i-1]
			continue
		}
		sh := l.e.shard(id)
		if o := sh.store.tab.slot[sh.store.tab.probe(id)]; o != 0 {
			dst[i] = sh.store.at(sh.store.rows, o-1)
		} else {
			_, dst[i] = l.e.rowLocked(sh, id)
		}
	}
	return dst
}

// Unlock releases the partition's shards.
func (l LockedRows) Unlock() { l.e.unlockShards() }

// row returns (materializing if absent) the live row for id, locking
// only its shard (PartView.Row) — for reading when the row exists.
func (e *embEngine) row(id int64) []float64 {
	sh := e.shard(id)
	sh.mu.RLock()
	row := sh.store.get(id)
	sh.mu.RUnlock()
	if row == nil {
		sh.mu.Lock()
		_, row = e.rowLocked(sh, id)
		sh.mu.Unlock()
	}
	return row
}

// export read-locks all shards so the result is one consistent cut, then
// copies out the rows whose route keys fall in [lo, hi) — a column
// partition exports everything, it migrates wholesale — and the
// optimizer moments that hold state. The image knows nothing about
// sharding or slabs, so it merges under any shard count. The
// engine-global Adam step travels with it so bias correction stays
// monotone wherever it lands.
func (e *embEngine) export(lo, hi int64) partImage {
	for i := range e.shards {
		e.shards[i].mu.RLock()
	}
	defer func() {
		for i := len(e.shards) - 1; i >= 0; i-- {
			e.shards[i].mu.RUnlock()
		}
	}()
	var n int
	for i := range e.shards {
		n += e.shards[i].store.len()
	}
	// Every batch is sized for all n rows, the moments on first use: most
	// rows of a trained table carry them, none of an untrained one do.
	w := e.width()
	add := func(b *RowBatch, id int64, row []float64) {
		if b.Data == nil {
			b.IDs, b.Data = make([]int64, 0, n), make([]float64, 0, n*w)
		}
		b.IDs, b.Data = append(b.IDs, id), append(b.Data, row...)
	}
	img := partImage{
		Kind: e.meta.Kind, Step: e.step.Load(),
		Rows: RowBatch{Dim: w}, Mom: RowBatch{Dim: w}, Vel: RowBatch{Dim: w},
	}
	for i := range e.shards {
		st := &e.shards[i].store
		for o, id := range st.ids {
			if e.routed && !e.inExport(id, lo, hi) {
				continue
			}
			ord := uint32(o)
			add(&img.Rows, id, st.row(ord))
			if m := st.momentIfSet(st.mom, ord); m != nil {
				add(&img.Mom, id, m)
			}
			if v := st.momentIfSet(st.vel, ord); v != nil {
				add(&img.Vel, id, v)
			}
		}
	}
	return img
}

// merge copies an image's rows and moments into the shards' slabs.
func (e *embEngine) merge(img partImage) error {
	if err := e.checkKind(img); err != nil {
		return err
	}
	batches := [3]RowBatch{img.Rows, img.Mom, img.Vel}
	for k, b := range batches {
		field := [3]string{"Rows", "Mom", "Vel"}[k]
		if err := b.check(); err != nil {
			return e.badImage(field, "%v", err)
		}
		if b.Dim != e.width() {
			return e.badImage(field, "row width %d, engine stores %d", b.Dim, e.width())
		}
		if k > 0 && !isSubsequence(b.IDs, img.Rows.IDs) {
			return e.badImage(field, "moments of ids that are not among the rows, in their order")
		}
	}
	e.lockShards()
	defer e.unlockShards()
	for k, b := range batches {
		for i, id := range b.IDs {
			st := &e.shard(id).store
			ord, _ := st.put(id)
			copy(st.moment([3]*[][]float64{&st.rows, &st.mom, &st.vel}[k], ord), b.Row(i))
		}
	}
	if img.Step > e.step.Load() {
		e.step.Store(img.Step)
	}
	return nil
}

// splitAt rebuilds every shard's store from the rows it keeps: the shard
// hash is independent of the route hash, so a split lands mid-shard by
// construction and each shard gives up just its moved keys.
func (e *embEngine) splitAt(mid int64) error {
	if !e.routed {
		return fmt.Errorf("ps: cannot split column-partitioned model %s", e.meta.Name)
	}
	e.lockShards()
	defer e.unlockShards()
	for i := range e.shards {
		e.shards[i].store.keepOnly(func(id int64) bool { return e.keepOnSplit(id, mid) })
	}
	e.narrowTo(mid)
	return nil
}

func (e *embEngine) sizeBytes() int64 {
	var rows int64
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		rows += int64(sh.store.len())
		sh.mu.RUnlock()
	}
	return rows * (8 + int64(e.width())*8)
}

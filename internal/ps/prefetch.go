package ps

// Parameter prefetch: overlap communication with computation.
//
// A training loop that pulls its next mini-batch's rows only after
// finishing the current one serializes RPC latency with compute. Emb
// handles therefore offer PrefetchRows: it starts the pull immediately
// and returns a handle the loop resolves right before the next batch, so
// the wire round-trip runs under the current batch's gradient math
// (TensorFlow's dataflow pipelining, PAPERS.md, applied to the PS pull
// path).
//
// Prefetched rows land in a per-(client, model) versioned cache.
// The version is the consistency fence: every cache mutation checks it,
// and InvalidateRows (wired to SSPClock.OnAdvance by the training loops)
// bumps it and clears the cache, so rows pulled under clock c are never
// served at clock c+1. A prefetch that was already in flight when the
// clock advanced still resolves for its own caller, but the version
// snapshot it took at launch no longer matches, so it cannot poison the
// cache with stale rows. Rows are copied on both insert and serve —
// callers routinely mutate pulled vectors in place — but never allocated:
// the cache keeps its rows in one slab (a model's rows are all one
// width) and a lookup copies hits into the caller's output block.
//
// The cache is a bounded LRU: every lookup hit and insert moves the row
// to the front of an intrusive recency list, and an insert at the cap
// evicts the tail and takes over its slot. Training prefetch
// rarely feels the bound (the whole cache empties at the next clock
// advance), but the serving tier (serve.go) reuses this cache for
// long-lived read traffic where the working set exceeds memory and
// recency is the whole game.

import (
	"errors"
	"sync"
	"sync/atomic"
)

// defaultRowCacheRows bounds each model's row cache when the client does
// not configure limits (SetRowCacheLimits). The byte cap is off by
// default: mini-batch prefetch rows are uniform, so the row cap governs.
const defaultRowCacheRows = 4096

// cacheEnt is one cached row on the intrusive LRU list; entry s owns row
// s of the slab. Links are slot numbers, noSlot at the ends.
type cacheEnt struct {
	id         int64
	prev, next int32
}

const noSlot = -1

// rowCache is one model's client-side versioned LRU row cache.
type rowCache struct {
	mu      sync.Mutex
	version int64
	dim     int             // row width, adopted from the first insert
	rows    map[int64]int32 // id → slot
	ents    []cacheEnt      // slot → entry
	data    []float64       // slot s holds data[s*dim:(s+1)*dim]
	head    int32           // most recently used
	tail    int32           // least recently used; next eviction victim

	// maxRows/maxBytes bound the cache; <= 0 means that cap is off.
	maxRows  int
	maxBytes int64

	// layoutEpoch/layoutParts record the layout the cached rows were
	// pulled under. cacheMeta calls syncLayout whenever the client
	// refetches a model's layout; a change means partitions split or
	// moved while rows sat here, so the cache is invalidated the same
	// way a clock advance invalidates it.
	layoutEpoch int64
	layoutParts int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// entBytes is the accounting cost of a cached row: the float64 payload
// plus fixed per-entry overhead (key + list links + index entry).
func (rc *rowCache) entBytes() int64 {
	return int64(8*rc.dim) + 40
}

// newRowCache builds a cache with the given caps (<= 0 disables a cap).
func newRowCache(maxRows int, maxBytes int64) *rowCache {
	return &rowCache{
		rows:     make(map[int64]int32),
		head:     noSlot,
		tail:     noSlot,
		maxRows:  maxRows,
		maxBytes: maxBytes,
	}
}

// rowCache returns the cache for model, creating it on first use. The
// new cache's layout baseline comes from the currently cached meta, so
// the first syncLayout after a genuine layout change still registers as
// a change.
func (c *Client) rowCache(model string) *rowCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	rc := c.rowCaches[model]
	if rc == nil {
		rc = newRowCache(c.rowCacheRows, c.rowCacheBytes)
		if meta, ok := c.cache[model]; ok {
			rc.layoutEpoch = meta.Epoch
			rc.layoutParts = len(meta.Parts)
		}
		c.rowCaches[model] = rc
	}
	return rc
}

// SetRowCacheLimits configures the per-model row-cache caps for this
// client: at most maxRows rows and maxBytes bytes per model (<= 0
// disables that cap). Existing caches adopt the new caps immediately;
// oversize ones shed LRU entries on their next insert.
func (c *Client) SetRowCacheLimits(maxRows int, maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rowCacheRows = maxRows
	c.rowCacheBytes = maxBytes
	for _, rc := range c.rowCaches {
		rc.mu.Lock()
		rc.maxRows = maxRows
		rc.maxBytes = maxBytes
		rc.mu.Unlock()
	}
}

// syncLayout reconciles the cache with a freshly fetched layout: if the
// epoch or partition count moved since the cached rows were pulled, the
// rows may now live elsewhere (split or migration) and are dropped
// under a version bump so in-flight prefetches cannot re-insert them.
// The first observation is a baseline, not a change.
func (rc *rowCache) syncLayout(epoch int64, nparts int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.layoutEpoch == epoch && rc.layoutParts == nparts {
		return
	}
	fresh := rc.layoutEpoch == 0 && rc.layoutParts == 0
	rc.layoutEpoch = epoch
	rc.layoutParts = nparts
	if !fresh {
		rc.version++
		rc.dropLocked()
	}
}

// dropLocked empties the cache, which keeps its memory — slab, entries,
// index: a training cache refills to the same size every clock window. All
// of it goes with the model (DeleteModel) or the ServeClient that owns the
// cache. Callers hold rc.mu and bump the version to fence in-flight inserts.
func (rc *rowCache) dropLocked() {
	clear(rc.rows)
	rc.ents, rc.data = rc.ents[:0], rc.data[:0]
	rc.head, rc.tail = noSlot, noSlot
}

// invalidate drops every cached row and bumps the version so in-flight
// inserts under the old version cannot land.
func (rc *rowCache) invalidate() {
	rc.mu.Lock()
	rc.version++
	rc.dropLocked()
	rc.mu.Unlock()
}

// unlink removes slot s from the recency list. Callers hold rc.mu.
func (rc *rowCache) unlink(s int32) {
	e := &rc.ents[s]
	if e.prev != noSlot {
		rc.ents[e.prev].next = e.next
	} else {
		rc.head = e.next
	}
	if e.next != noSlot {
		rc.ents[e.next].prev = e.prev
	} else {
		rc.tail = e.prev
	}
}

// pushFront makes slot s the most recently used entry. Callers hold
// rc.mu.
func (rc *rowCache) pushFront(s int32) {
	e := &rc.ents[s]
	e.prev, e.next = noSlot, rc.head
	if rc.head != noSlot {
		rc.ents[rc.head].prev = s
	}
	rc.head = s
	if rc.tail == noSlot {
		rc.tail = s
	}
}

// touch moves an existing entry to the front. Callers hold rc.mu.
func (rc *rowCache) touch(s int32) {
	if rc.head == s {
		return
	}
	rc.unlink(s)
	rc.pushFront(s)
}

// row returns slot s of the slab. Callers hold rc.mu.
func (rc *rowCache) row(s int32) []float64 {
	return rc.data[int(s)*rc.dim : (int(s)+1)*rc.dim]
}

// capRows is the row count both caps allow (<= 0: unbounded). Rows are
// uniform, so the byte cap is a row cap too.
func (rc *rowCache) capRows() int {
	n := rc.maxRows
	if b := int(rc.maxBytes / rc.entBytes()); rc.maxBytes > 0 && (n <= 0 || b < n) {
		n = max(b, 1)
	}
	return n
}

// evictLocked drops the least recently used row and returns its slot.
// Callers hold rc.mu.
func (rc *rowCache) evictLocked() int32 {
	victim := rc.tail
	rc.unlink(victim)
	delete(rc.rows, rc.ents[victim].id)
	rc.evictions.Add(1)
	return victim
}

// cacheTotals is what row caches counted, summed.
type cacheTotals struct{ hits, misses, evictions int64 }

func (t *cacheTotals) add(rc *rowCache) {
	t.hits += rc.hits.Load()
	t.misses += rc.misses.Load()
	t.evictions += rc.evictions.Load()
}

// cacheTotals sums over this agent's model caches, dropped ones (gone) too.
func (c *Client) cacheTotals() cacheTotals {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t := c.gone
	for _, rc := range c.rowCaches {
		t.add(rc)
	}
	return t
}

// CacheStats sums prefetch-cache hits and misses across this agent's
// models, deleted ones included.
func (c *Client) CacheStats() (hits, misses int64) {
	t := c.cacheTotals()
	return t.hits, t.misses
}

// CacheEvictions sums LRU evictions the same way.
func (c *Client) CacheEvictions() int64 { return c.cacheTotals().evictions }

// insert copies rows of a dim-wide block into the cache under the version
// fence — id j of w is row w.row(j) of src — and nothing lands if the
// cache was invalidated after the snapshot was taken. Inserted rows
// become the most recently used; at the cap each takes over the slot of
// the least recently used. (Caps lowered under a fuller cache evict down
// to them here, and the surplus slots idle until the next reset.)
func (rc *rowCache) insert(version int64, w rowWork, dim int, src []float64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.version != version {
		return
	}
	if rc.dim != dim {
		rc.dropLocked() // no fence: a first insert adopts the width, its siblings must land
		rc.dim = dim
	}
	limit := rc.capRows()
	for j, id := range w.ids {
		row := src[w.row(j)*dim : (w.row(j)+1)*dim]
		s, ok := rc.rows[id]
		switch {
		case ok:
			rc.unlink(s)
		case limit > 0 && len(rc.rows) >= limit:
			for s = rc.evictLocked(); len(rc.rows) >= limit; {
				s = rc.evictLocked()
			}
		default:
			s = int32(len(rc.ents))
			rc.ents = append(rc.ents, cacheEnt{})
			rc.data = append(rc.data, row...)
		}
		copy(rc.row(s), row)
		rc.ents[s].id = id
		rc.rows[id] = s
		rc.pushFront(s)
	}
}

// lookup copies the cached rows of ids — which must be distinct — into
// dst, a block of dim-wide rows (id j into row j), and returns the misses
// as pull work against the same block, with the version fence for the
// insert that follows. Hits are promoted to most recently used.
func (rc *rowCache) lookup(ids []int64, dim int, dst []float64) (missing rowWork, version int64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for j, id := range ids {
		if s, ok := rc.rows[id]; ok && rc.dim == dim {
			copy(dst[j*dim:(j+1)*dim], rc.row(s))
			rc.touch(s)
		} else {
			missing.add(id, j, len(ids)-j)
		}
	}
	rc.hits.Add(int64(len(ids) - len(missing.ids)))
	rc.misses.Add(int64(len(missing.ids)))
	return missing, rc.version
}

// InvalidateRows drops every cached row of this model and bumps the
// version so in-flight prefetches cannot re-insert stale rows. Training
// loops wire it to SSPClock.OnAdvance; it is the rule that keeps cached
// parameters no staler than the clock bound k already allows.
func (e *Emb) InvalidateRows() {
	e.c.rowCache(e.Meta.Name).invalidate()
}

// Prefetch is an in-flight asynchronous row pull. Its blocks — rows, ids,
// positions — are on loan from the Emb handle that started it.
type Prefetch struct {
	done chan struct{}
	e    *Emb
	buf  *pullBuf // nil once released
	err  error
}

var errPrefetchReleased = errors.New("ps: prefetch read after its Release")

// Batch blocks until the prefetch resolves and returns what PullBatch
// would have: the distinct rows (cache hits plus freshly pulled misses)
// and every request position's row. Safe to call more than once. The
// blocks are the caller's to read and mutate until Release; after it,
// Batch is an error.
func (p *Prefetch) Batch() (rows RowBatch, pos []int32, err error) {
	<-p.done
	if p.err != nil {
		return RowBatch{}, nil, p.err
	}
	return p.buf.rows, p.buf.pos, nil
}

// Release waits for the prefetch and hands its blocks back to the handle,
// whose next PrefetchRows overwrites them: call it once nothing reads what
// Batch returned any more — a push given a batch that aliases rows.IDs has
// returned (DESIGN.md §11). Optional: an unreleased prefetch's blocks are
// garbage like any other. Not for concurrent use with Batch.
func (p *Prefetch) Release() {
	<-p.done
	if b := p.buf; b != nil {
		p.buf = nil
		if p.err == nil {
			p.err = errPrefetchReleased
		}
		p.e.mu.Lock()
		p.e.free = append(p.e.free, b)
		p.e.mu.Unlock()
	}
}

// PrefetchRows starts pulling ids in the background and returns a handle
// to resolve before the next mini-batch. Cached rows are served without a
// wire round-trip; only misses hit the servers, each distinct id once. It
// works in blocks an earlier prefetch of this handle released, when there
// are any: the handle holds as many as its prefetches were ever in flight
// together. The output block is not cleared — a hit or a pulled row lands
// on every row of it.
func (e *Emb) PrefetchRows(ids []int64) *Prefetch {
	meta := e.c.currentMeta(e.Meta.Name, e.Meta)
	var b *pullBuf
	e.mu.Lock()
	if n := len(e.free); n > 0 {
		b, e.free = e.free[n-1], e.free[:n-1]
	}
	e.mu.Unlock()
	if b == nil {
		b = new(pullBuf)
	}
	b.dedup(ids)
	b.rows.Dim = meta.Dim
	n := len(b.rows.IDs) * meta.Dim
	if cap(b.rows.Data) < n {
		b.rows.Data = make([]float64, n) // exactly: amortised growth would stay resident
	}
	b.rows.Data = b.rows.Data[:n]
	p := &Prefetch{done: make(chan struct{}), e: e, buf: b}
	rc := e.c.rowCache(meta.Name)
	missing, version := rc.lookup(b.rows.IDs, meta.Dim, b.rows.Data)
	if len(missing.ids) == 0 {
		close(p.done)
		return p
	}
	go p.pull(meta, rc, missing, version)
	return p
}

// pull fetches the misses into the block and caches them. (A method, not a
// closure: one would capture the layout, and move it to the heap on every
// prefetch, hit or miss.)
func (p *Prefetch) pull(meta ModelMeta, rc *rowCache, missing rowWork, version int64) {
	defer close(p.done)
	if p.err = p.e.pullInto(meta, missing, p.buf.rows.Data); p.err == nil {
		rc.insert(version, missing, meta.Dim, p.buf.rows.Data)
	}
}

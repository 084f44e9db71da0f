package ps

// The serve cache: the agent-local row cache of a ServeClient (serve.go,
// serveclient.go).
//
// A serving handle answers what it read before from memory instead of the
// snapshot replicas. The cache is versioned: the version is the
// consistency fence. Every insert checks it, and an invalidation (the
// handle adopting a new serving generation) bumps it and clears the cache,
// so a read that was in flight when the generation switched cannot land
// rows of the old one. Rows are copied on both insert and lookup — callers
// routinely mutate pulled vectors in place — but never allocated: the
// cache keeps its rows in one slab of the width its handle serves, and a
// lookup copies hits into the caller's output block.
//
// The cache is a bounded LRU: every lookup hit and insert moves the row
// to the front of an intrusive recency list, and an insert at the cap
// evicts the tail and takes over its slot. Long-lived read traffic has a
// working set past memory, where recency is the whole game. The cache
// dies with its ServeClient; what it counted lives on in the counters of
// the Client that opened it (CacheStats, CacheEvictions).

import (
	"sync"
	"sync/atomic"
)

// defaultRowCacheRows bounds each serve handle's cache when the client does
// not configure limits (SetRowCacheLimits). The byte cap is off by
// default: a handle's rows are uniform, so the row cap governs.
const defaultRowCacheRows = 4096

// cacheEnt is one cached row on the intrusive LRU list; entry s owns row
// s of the slab. Links are slot numbers, noSlot at the ends.
type cacheEnt struct {
	id         int64
	prev, next int32
}

const noSlot = -1

// cacheCounts is what row caches counted, summed: a Client owns one, and
// every cache of a serve handle it opens adds into it.
type cacheCounts struct{ hits, misses, evictions atomic.Int64 }

// rowCache is one serve handle's versioned LRU row cache.
type rowCache struct {
	mu      sync.Mutex
	version int64
	dim     int             // row width
	rows    map[int64]int32 // id → slot
	ents    []cacheEnt      // slot → entry
	data    []float64       // slot s holds data[s*dim:(s+1)*dim]
	head    int32           // most recently used
	tail    int32           // least recently used; next eviction victim

	// maxRows/maxBytes bound the cache; <= 0 means that cap is off.
	maxRows  int
	maxBytes int64

	counts *cacheCounts
}

// entBytes is the accounting cost of a cached row: the float64 payload
// plus fixed per-entry overhead (key + list links + index entry).
func (rc *rowCache) entBytes() int64 {
	return int64(8*rc.dim) + 40
}

// newRowCache builds a cache of dim-wide rows with the given caps (<= 0
// disables a cap) that counts into counts.
func newRowCache(dim, maxRows int, maxBytes int64, counts *cacheCounts) *rowCache {
	return &rowCache{
		dim:      dim,
		rows:     make(map[int64]int32),
		head:     noSlot,
		tail:     noSlot,
		maxRows:  maxRows,
		maxBytes: maxBytes,
		counts:   counts,
	}
}

// SetRowCacheLimits configures the row-cache caps of this client's serve
// handles: at most maxRows rows and maxBytes bytes per handle (<= 0
// disables that cap). The caps apply to handles opened after the call.
func (c *Client) SetRowCacheLimits(maxRows int, maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rowCacheRows = maxRows
	c.rowCacheBytes = maxBytes
}

// CacheStats sums row-cache hits and misses across the serve handles this
// agent opened, closed ones included.
func (c *Client) CacheStats() (hits, misses int64) {
	return c.cacheCounts.hits.Load(), c.cacheCounts.misses.Load()
}

// CacheEvictions sums LRU evictions the same way.
func (c *Client) CacheEvictions() int64 { return c.cacheCounts.evictions.Load() }

// invalidate drops every cached row and bumps the version so in-flight
// inserts under the old version cannot land. The cache keeps its memory —
// slab, entries, index — for the next generation's rows.
func (rc *rowCache) invalidate() {
	rc.mu.Lock()
	rc.version++
	clear(rc.rows)
	rc.ents, rc.data = rc.ents[:0], rc.data[:0]
	rc.head, rc.tail = noSlot, noSlot
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
	rc.counts.evictions.Add(1)
	return victim
}

// insert copies rows of a block of the cache's width into the cache under
// the version fence — id j of w is row w.row(j) of src — and nothing lands
// if the cache was invalidated after the snapshot was taken. Inserted rows
// become the most recently used; at the cap each takes over the slot of
// the least recently used.
func (rc *rowCache) insert(version int64, w rowWork, src []float64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.version != version {
		return
	}
	dim, limit := rc.dim, rc.capRows()
	for j, id := range w.ids {
		row := src[w.row(j)*dim : (w.row(j)+1)*dim]
		s, ok := rc.rows[id]
		switch {
		case ok:
			rc.unlink(s)
		case limit > 0 && len(rc.rows) >= limit:
			s = rc.evictLocked()
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
// dst, a block of rows of the cache's width (id j into row j), and returns
// the misses as pull work against the same block, with the version fence
// for the insert that follows. Hits are promoted to most recently used.
func (rc *rowCache) lookup(ids []int64, dst []float64) (missing rowWork, version int64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	dim := rc.dim
	for j, id := range ids {
		if s, ok := rc.rows[id]; ok {
			copy(dst[j*dim:(j+1)*dim], rc.row(s))
			rc.touch(s)
		} else {
			missing.add(id, j, len(ids)-j)
		}
	}
	rc.counts.hits.Add(int64(len(ids) - len(missing.ids)))
	rc.counts.misses.Add(int64(len(missing.ids)))
	return missing, rc.version
}

package ps

// ServeClient: the read-side handle of the serving tier (DESIGN.md §13). A
// pull resolves in tiers, cheapest first: the agent-local versioned LRU row
// cache (invalidated when the layout's snapshot epoch advances), the
// replicated hot head (any one endpoint), the partition snapshot replicas
// under the PUBLISHED layout (one frame per endpoint), and only when none
// of those can answer, the mutable primaries — whose rows are never cached.
// A stale-snapshot / stale-epoch / range-moved rejection refetches the
// layout and retries (bounded by serveRetries), as the mutation path does;
// an unreachable endpoint fails over to the partitions' other replicas.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"psgraph/internal/rpc"
)

// serveRetries bounds layout-refetch attempts before a pull falls back
// to the mutable primaries.
const serveRetries = 4

// ServeClient is a read-only handle onto one model's serving tier.
type ServeClient struct {
	c     *Client
	model string
	meta  ModelMeta // creation-time meta; primary fallback + kind checks

	mu  sync.RWMutex
	sl  ServeLayout
	has bool
	hot map[int64]bool

	cache *rowCache
	rr    atomic.Uint64

	cacheRows   atomic.Int64 // rows answered by the local LRU
	hotRows     atomic.Int64 // rows answered by the replicated hot head
	snapRows    atomic.Int64 // rows answered by partition snapshots
	primaryRows atomic.Int64 // rows that fell back to the primaries

	hotLookups   atomic.Int64 // hot-head ids requested
	hotCacheHits atomic.Int64 // of those, answered by the local LRU
	refreshes    atomic.Int64 // serve-layout refetches
}

// ServeStats is a point-in-time read of a ServeClient's counters.
type ServeStats struct {
	CacheRows   int64
	HotRows     int64
	SnapRows    int64
	PrimaryRows int64

	HotLookups   int64
	HotCacheHits int64
	Refreshes    int64
}

// OffloadedRows is how many rows were served without touching a mutable
// primary.
func (s ServeStats) OffloadedRows() int64 { return s.CacheRows + s.HotRows + s.SnapRows }

// TotalRows is every row this handle has served.
func (s ServeStats) TotalRows() int64 { return s.OffloadedRows() + s.PrimaryRows }

// PublishSnapshot asks the master to publish a new serving generation of
// model and returns its layout.
func (c *Client) PublishSnapshot(model string) (ServeLayout, error) {
	var sl ServeLayout
	err := c.invoke(c.masterAddr, "PublishSnapshot", modelNameReq{Name: model}, &sl)
	return sl, err
}

// GetServeLayout fetches the model's current serving generation.
func (c *Client) GetServeLayout(model string) (ServeLayout, error) {
	var sl ServeLayout
	err := c.invoke(c.masterAddr, "GetServeLayout", modelNameReq{Name: model}, &sl)
	return sl, err
}

// Serve opens a serving-tier read handle for model. Nothing need be
// published yet: pulls fall back to the primaries until a layout appears.
func (c *Client) Serve(model string) (*ServeClient, error) {
	meta, err := c.GetModel(model)
	if err != nil {
		return nil, err
	}
	if !servable(meta.Kind) {
		return nil, fmt.Errorf("ps: model %q (%s) is not servable", model, meta.Kind)
	}
	c.mu.RLock()
	maxRows, maxBytes := c.rowCacheRows, c.rowCacheBytes
	c.mu.RUnlock()
	sc := &ServeClient{c: c, model: model, meta: meta, cache: newRowCache(maxRows, maxBytes)}
	sc.refresh() // best effort; ok to start unpublished
	return sc, nil
}

// Stats reads the handle's counters.
func (sc *ServeClient) Stats() ServeStats {
	return ServeStats{
		CacheRows:    sc.cacheRows.Load(),
		HotRows:      sc.hotRows.Load(),
		SnapRows:     sc.snapRows.Load(),
		PrimaryRows:  sc.primaryRows.Load(),
		HotLookups:   sc.hotLookups.Load(),
		HotCacheHits: sc.hotCacheHits.Load(),
		Refreshes:    sc.refreshes.Load(),
	}
}

// Refresh refetches the serve layout now. Handles also refresh on their own
// when a pull is rejected stale, so it is only needed to adopt a republished
// generation eagerly: until the epoch advance is observed, cached rows of the
// previous one are served (bounded staleness, as with the SSP clock cache).
func (sc *ServeClient) Refresh() { sc.refresh() }

func (sc *ServeClient) layout() (ServeLayout, bool) {
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	return sc.sl, sc.has
}

// refresh refetches the serve layout — the serving analogue of the
// mutation path's layout resolver.
func (sc *ServeClient) refresh() (ServeLayout, bool) {
	sc.refreshes.Add(1)
	sl, err := sc.c.GetServeLayout(sc.model)
	if err != nil {
		return ServeLayout{}, false
	}
	sc.adopt(sl)
	return sc.layout()
}

// adopt installs a fetched layout. A snapshot-epoch advance invalidates
// the row cache: rows pulled under generation N must never be served as
// generation N+1 answers. Layouts never move backwards.
func (sc *ServeClient) adopt(sl ServeLayout) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.has && sl.SnapEpoch <= sc.sl.SnapEpoch {
		return
	}
	sc.sl = sl
	sc.has = true
	sc.hot = make(map[int64]bool, len(sl.HotIDs))
	for _, id := range sl.HotIDs {
		sc.hot[id] = true
	}
	sc.cache.invalidate()
}

// Pull reads rows through the serving tier, as an id → row map over one
// block. For DenseVector models ids are vector indices and rows are
// 1-wide.
func (sc *ServeClient) Pull(ids []int64) (map[int64][]float64, error) {
	rows, _, err := sc.pullBatch(ids)
	if err != nil {
		return nil, err
	}
	return rows.Map(), nil
}

// pullBatch resolves the distinct ids of a read into one block, cheapest
// tier first; pos maps every request position to its row.
func (sc *ServeClient) pullBatch(ids []int64) (rows RowBatch, pos []int32, err error) {
	dim := serveWidth(sc.meta)
	uniq, pos := dedupIDs(ids)
	rows = RowBatch{IDs: uniq, Dim: dim, Data: make([]float64, len(uniq)*dim)}
	missing, version := sc.cache.lookup(uniq, dim, rows.Data)
	sc.mu.RLock()
	hot := sc.hot
	sc.mu.RUnlock()
	if len(hot) > 0 {
		var lookups, hits int64
		m := 0 // missing.pos is ascending: walk it beside uniq
		for j, id := range uniq {
			miss := m < len(missing.pos) && int(missing.pos[m]) == j
			if miss {
				m++
			}
			if !hot[id] {
				continue
			}
			lookups++
			if !miss {
				hits++
			}
		}
		sc.hotLookups.Add(lookups)
		sc.hotCacheHits.Add(hits)
	}
	sc.cacheRows.Add(int64(len(uniq) - len(missing.ids)))
	if len(missing.ids) == 0 {
		return rows, pos, nil
	}
	cacheable, err := sc.pullMissing(missing, rows.Data)
	if err != nil {
		return RowBatch{}, nil, err
	}
	if cacheable {
		sc.cache.insert(version, missing, dim, rows.Data)
	}
	return rows, pos, nil
}

// pullMissing resolves cache misses into dst: snapshot tiers with
// stale-layout refetch (bounded), then the primary fallback. Only
// snapshot-served rows are safe to cache.
func (sc *ServeClient) pullMissing(w rowWork, dst []float64) (cacheable bool, err error) {
	for attempt := 0; attempt <= serveRetries; attempt++ {
		sl, ok := sc.layout()
		if !ok {
			if sl, ok = sc.refresh(); !ok {
				break // never published: straight to the primaries
			}
		}
		perr := sc.pullSnap(sl, w, dst)
		if perr == nil {
			return true, nil
		}
		if !isServeRouteErr(perr) && !errors.Is(perr, rpc.ErrUnreachable) {
			return false, perr
		}
		// Stale snapshot epoch / moved range / every replica unreachable:
		// refetch the serve layout and retry, exactly like the mutation
		// path's resolve-and-retry on ErrStaleEpoch.
		sc.refresh()
	}
	if err := sc.primaryPull(w, dst); err != nil {
		return false, err
	}
	sc.primaryRows.Add(int64(len(w.ids)))
	return false, nil
}

// pullSnap answers w from one serving generation: hot head first, then the
// partition snapshots, one frame per endpoint, one after another.
func (sc *ServeClient) pullSnap(sl ServeLayout, w rowWork, dst []float64) error {
	dim := serveWidth(sc.meta)
	start := int(sc.rr.Add(1) % uint64(max(len(sl.Endpoints), 1)))
	rest := w
	if len(sl.HotIDs) > 0 && len(sl.Endpoints) > 0 {
		sc.mu.RLock()
		hot := sc.hot
		sc.mu.RUnlock()
		var head, cold rowWork
		for j, id := range w.ids {
			if hot[id] {
				head.add(id, w.row(j), min(len(hot), len(w.ids)))
			} else {
				cold.add(id, w.row(j), len(w.ids))
			}
		}
		if len(head.ids) > 0 {
			// The first reachable endpoint answers for the whole head.
			req := serveHotPullReq{Model: sc.model, SnapEpoch: sl.SnapEpoch, IDs: head.ids}
			reply := &rowScatter{msg: msgServePullResp, model: sc.model, partial: true,
				work: head, dst: dst, width: dim, strd: dim}
			var err error
			for k := range sl.Endpoints {
				err = sc.call(sl.Endpoints[(start+k)%len(sl.Endpoints)], "ServeHotPull", req, reply)
				if !errors.Is(err, rpc.ErrUnreachable) {
					break
				}
			}
			if err != nil {
				return err
			}
			sc.hotRows.Add(int64(len(head.ids) - len(reply.absent)))
			// Ids the head did not carry resolve through the partitions.
			for _, j := range reply.absent {
				cold.add(head.ids[j], head.row(j), len(reply.absent))
			}
		}
		rest = cold
	}
	if len(rest.ids) == 0 {
		return nil
	}
	if err := pullServeParts(&sl, rest, dst, start, sc.call); err != nil {
		return err
	}
	sc.snapRows.Add(int64(len(rest.ids)))
	return nil
}

// serveReplyBound cuts one endpoint's parts into more frames: a reply over
// rpc's pooled bound would be allocated and dropped per read.
const serveReplyBound = 4 << 20

// pullServeParts reads w's full-width rows off generation sl's partition
// snapshots into dst, one ServePull frame per endpoint. Each frame goes to
// the endpoint holding the most partitions still unread — the first such in
// rotation order from start, so equal holders take turns — and asks it for
// all of them; frames go out one after another on the caller's goroutine
// through call, a single-shot RPC. An unreachable endpoint is struck out
// and its parts alone are planned again over the replicas that remain; any
// other error (a rejected part rejects its frame) is the caller's.
func pullServeParts(sl *ServeLayout, w rowWork, dst []float64, start int,
	call func(addr, method string, req, reply any) error) error {
	meta := &sl.Meta
	strd := serveWidth(*meta)
	var by []rowWork // a hash layout's buckets; a column partition reads all of w
	if meta.Kind != ColumnEmbedding {
		by = splitRows(meta, w)
	}
	// pending is what is still unread: each needed partition's reply target.
	pending := make([]rowScatter, 0, len(meta.Parts))
	for slot, p := range meta.Parts {
		target := rowScatter{msg: msgServePullResp, model: sl.Model, part: p.Index,
			work: w, dst: dst, col0: p.Col0, width: p.Col1 - p.Col0, strd: strd}
		if by != nil {
			target.work, target.col0, target.width = by[slot], 0, strd
		}
		if len(target.work.ids) > 0 {
			pending = append(pending, target)
		}
	}
	holds := func(e, part int) bool { return slices.Contains(sl.Replicas[part], sl.Endpoints[e]) }
	req := servePullReq{Model: sl.Model, SnapEpoch: sl.SnapEpoch, Parts: make([]servePart, 0, len(pending))}
	var reply serveReply
	dead := make([]bool, len(sl.Endpoints)) // found unreachable by this read
	var lastErr error
	for len(pending) > 0 {
		best, most := -1, 0
		for k := range sl.Endpoints {
			e := (start + k) % len(sl.Endpoints)
			if dead[e] {
				continue
			}
			n := 0
			for i := range pending {
				if holds(e, pending[i].part) {
					n++
				}
			}
			if n > most {
				best, most = e, n
			}
		}
		if best < 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("%s: no serving endpoints for %s/%d", noServeSnapMsg, sl.Model, pending[0].part)
			}
			return lastErr
		}
		// The frame's parts move to the front of pending: its reply target.
		req.Parts = req.Parts[:0]
		size := 0
		for i := range pending {
			n := len(pending[i].work.ids)*(8*pending[i].width+10) + 32
			if !holds(best, pending[i].part) || (size > 0 && size+n > serveReplyBound) {
				continue
			}
			size += n
			k := len(req.Parts)
			pending[i], pending[k] = pending[k], pending[i]
			req.Parts = append(req.Parts, servePart{Part: pending[k].part, IDs: pending[k].work.ids})
		}
		reply.parts = pending[:len(req.Parts)]
		err := call(sl.Endpoints[best], "ServePull", req, &reply)
		switch {
		case err == nil:
			pending = pending[len(req.Parts):]
		case errors.Is(err, rpc.ErrUnreachable):
			dead[best], lastErr = true, err
		default:
			return err
		}
	}
	return nil
}

// call is a single-shot RPC: serve reads do their own replica failover,
// so the client's retry-until-deadline engine would only add latency.
func (sc *ServeClient) call(addr, method string, req, reply any) error {
	body := enc(req)
	sc.c.sentBytes.Add(int64(len(body)))
	out, err := sc.c.tr.Call(addr, method, body)
	rpc.PutBuf(body)
	if err != nil {
		return err
	}
	sc.c.recvBytes.Add(int64(len(out)))
	err = dec(out, reply)
	rpc.PutBuf(out)
	return err
}

// primaryPull is the last-resort read against the mutable primaries; it
// inherits the mutation path's full reroute/retry machinery.
func (sc *ServeClient) primaryPull(w rowWork, dst []float64) error {
	if sc.meta.Kind == DenseVector {
		v, err := sc.c.Vector(sc.model)
		if err != nil {
			return err
		}
		vals, err := v.Pull(w.ids)
		if err != nil {
			return err
		}
		for j, x := range vals {
			dst[w.row(j)] = x
		}
		return nil
	}
	e, err := sc.c.Embedding(sc.model)
	if err != nil {
		return err
	}
	return e.pullInto(sc.c.currentMeta(sc.model, e.Meta), w, dst)
}

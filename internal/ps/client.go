package ps

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"psgraph/internal/rpc"
)

// Client is the PS agent embedded in every executor (Sec. III-C). It
// caches partition layouts from the master and fans pull/push requests out
// to the owning servers. Calls that hit a dead server are retried with
// backoff until the master's recovery brings the server back — this is
// what "the other executors are blocked by the synchronization controller"
// looks like from the worker's side.
type Client struct {
	tr         rpc.Transport
	masterAddr string

	// id is this agent's process-unique identity in the exactly-once
	// protocol; seq numbers its mutating calls. A sequence is drawn once
	// per logical call, before the retry loop, so every retry of the same
	// push carries the same (id, seq) and the server's dedup window can
	// recognize it.
	id  uint64
	seq atomic.Uint64

	mu    sync.RWMutex
	cache map[string]ModelMeta

	// rowCacheRows/rowCacheBytes are the caps the row caches of newly
	// opened serve handles adopt (SetRowCacheLimits; <= 0 disables a cap);
	// cacheCounts is what those caches counted (rowcache.go).
	rowCacheRows  int
	rowCacheBytes int64
	cacheCounts   cacheCounts

	sentBytes atomic.Int64
	recvBytes atomic.Int64

	// mutSent counts logical mutating calls that succeeded against a
	// server; mutRetried counts those that needed at least one retry. The
	// chaos harness compares the sum of mutSent across agents with the
	// servers' applied counters to prove exactly-once delivery.
	mutSent    atomic.Int64
	mutRetried atomic.Int64

	// RetryTimeout bounds how long a call waits for a recovering server.
	RetryTimeout time.Duration
}

// maxFanOut bounds how many per-partition requests one operation has in
// flight at once: enough to hide per-partition RTTs without spawning a
// goroutine per partition on thousand-partition models.
var maxFanOut = 4 * runtime.GOMAXPROCS(0)

// Comm reports the cumulative request/response payload bytes this agent
// has exchanged with the master and servers — the communication-volume
// metric the paper's partitioning and psFunc optimizations target.
func (c *Client) Comm() (sent, recv int64) {
	return c.sentBytes.Load(), c.recvBytes.Load()
}

// NewClient creates a PS agent talking to the master at masterAddr.
func NewClient(tr rpc.Transport, masterAddr string) *Client {
	return &Client{
		tr:           tr,
		masterAddr:   masterAddr,
		id:           nextClientID.Add(1),
		cache:        make(map[string]ModelMeta),
		RetryTimeout: 30 * time.Second,
		rowCacheRows: defaultRowCacheRows,
	}
}

// MutationStats reports how many logical mutating calls this agent
// completed against servers and how many of those needed a retry.
func (c *Client) MutationStats() (sent, retried int64) {
	return c.mutSent.Load(), c.mutRetried.Load()
}

// resolveFunc re-resolves a partition's address between retries: it
// refetches the model layout from the master and returns the current
// owner and layout epoch ("" when resolution itself failed, keeping the
// previous target). Data-plane calls install one so a retry follows the
// partition to its promoted backup instead of waiting out a restart.
type resolveFunc func() (addr string, epoch int64)

// maxStaleRetries bounds retries triggered by a stale-layout or
// stale-epoch rejection (as opposed to plain unreachability). Transient
// fencing — a server waiting out a heartbeat hiccup — heals within a
// lease; a live migration is slower: the master publishes the
// post-move layout before the destination has imported the partition,
// so a push routed to the new owner bounces with a stale-layout error
// until the transfer lands, and under a saturating stream that window
// can run a few seconds. The ladder (5ms doubling to a 200ms cap)
// covers ~4s at this depth; a rejection that persists past that is a
// real error the caller must see.
const maxStaleRetries = 24

// callE is the retry engine behind every client RPC: it encodes req
// (when non-nil), performs the call, and decodes the response into resp
// (when non-nil). The encode buffer and the response buffer go back to
// the wire pool — decoded messages never alias them — so steady-state
// pull/push traffic reuses framing memory.
//
// A once method (its class in the addressed role's dispatch table) is
// wrapped in the dedup envelope with a sequence drawn ONCE, before the
// retry loop, so every retry of the same logical call replays the same
// (clientID, seq) and a server that already applied the mutation answers
// from its window — even when the retry lands on a different server (the
// promoted backup) or carries a refreshed epoch: the envelope is then
// re-wrapped around the same sequence, never a new one, or an
// already-replicated write could double-apply. The backoff never waits past RetryTimeout, and cancel
// (closed when a sibling partition call of the same fan-out failed)
// ends a wait at once instead of sleeping out the deadline.
func (c *Client) callE(cancel <-chan struct{}, addr, method string, req, resp any, epoch int64, resolve resolveFunc) error {
	var body []byte
	if req != nil {
		body = enc(req)
		defer rpc.PutBuf(body)
	}
	toMaster := addr == c.masterAddr
	guarded := serverHandlers[method].class == once
	if toMaster {
		guarded = masterHandlers[method].class == once
	}
	var seq uint64
	var wrapped []byte
	wire := body
	if guarded && dedupEnabled.Load() {
		seq = c.seq.Add(1)
		wrapped = wrapDedup(c.id, seq, epoch, body)
		wire = wrapped
	}
	defer func() { rpc.PutBuf(wrapped) }()
	retry := rpc.NewBackoff(5*time.Millisecond, 200*time.Millisecond, c.RetryTimeout)
	c.sentBytes.Add(int64(len(wire)))
	retried := false
	staleRetries := 0
	for {
		out, err := c.tr.Call(addr, method, wire)
		if err == nil {
			if guarded && !toMaster {
				c.mutSent.Add(1)
				if retried {
					c.mutRetried.Add(1)
				}
			}
			c.recvBytes.Add(int64(len(out)))
			if resp != nil {
				err = dec(out, resp)
			}
			if r, ok := resp.(*nbrReply); !ok || r.r.b == nil {
				rpc.PutBuf(out)
			}
			return err
		}
		unreachable := errors.Is(err, rpc.ErrUnreachable)
		stale := resolve != nil && (IsStaleEpochErr(err) || staleLayoutErr(err))
		if !unreachable && !stale {
			return err
		}
		if stale {
			if staleRetries++; staleRetries > maxStaleRetries {
				return err
			}
		}
		if !retry.Wait(cancel) {
			return err
		}
		retried = true
		if resolve == nil {
			continue
		}
		// Re-resolve the target: the master may have promoted this
		// partition's backup (new address) and bumped the epoch. The
		// envelope is re-wrapped around the SAME sequence.
		if na, ne := resolve(); na != "" {
			addr = na
			if ne != epoch && wrapped != nil {
				rpc.PutBuf(wrapped)
				wrapped = wrapDedup(c.id, seq, ne, body)
				wire = wrapped
			}
			epoch = ne
		}
	}
}

// invoke is callE for the control plane: one address, no layout to
// follow.
func (c *Client) invoke(addr, method string, req, resp any) error {
	return c.callE(nil, addr, method, req, resp, 0, nil)
}

// staleLayoutErr reports whether err is a server telling us it does not
// hold the model/partition we asked for — the signature of a cached
// layout that went stale when the master moved a partition during
// failover.
func staleLayoutErr(err error) bool {
	var re *rpc.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, notHereMsg)
}

// currentMeta returns the freshest layout this client holds for model:
// the cached copy when present (it may be newer than the snapshot baked
// into a typed handle at construction — splits and moves republish the
// layout), else fallback. Every operation snapshots its layout once
// through this and groups keys against that snapshot, so one request is
// never routed half by an old partition map and half by a new one.
func (c *Client) currentMeta(model string, fallback ModelMeta) ModelMeta {
	c.mu.RLock()
	meta, ok := c.cache[model]
	c.mu.RUnlock()
	if ok {
		return meta
	}
	return fallback
}

// cacheMeta installs a fetched layout.
func (c *Client) cacheMeta(meta ModelMeta) {
	c.mu.Lock()
	c.cache[meta.Name] = meta
	c.mu.Unlock()
}

// refreshMeta drops the cached layout and refetches it from the master.
// When the master is unreachable the stale fallback is returned — the
// caller's next per-partition call will then fail and retry through
// callE's resolver, which keeps refetching with backoff.
func (c *Client) refreshMeta(model string, fallback ModelMeta) ModelMeta {
	c.mu.Lock()
	delete(c.cache, model)
	c.mu.Unlock()
	meta, err := c.GetModel(model)
	if err != nil {
		return fallback
	}
	return meta
}

// partInvoke is callE for per-partition data-plane calls, plus the
// failover path. The partition is addressed by its stable ID
// (Partition.Index), not its slot — slots renumber when a split inserts
// a range. The call prefers the client's cached layout over the
// (possibly older) one p was taken from, carries the cached layout's
// epoch in the envelope, and installs a resolver so callE can refetch
// the layout between retries — when the addressed server is unreachable
// (killed primary), no longer holds the partition, or fences the write
// as stale-epoch, the retry follows the partition to its current owner
// under the current epoch.
func (c *Client) partInvoke(cancel <-chan struct{}, model string, p Partition, method string, req, resp any) error {
	server := p.Server
	var epoch int64
	c.mu.RLock()
	if meta, ok := c.cache[model]; ok {
		if slot := meta.slotByID(p.Index); slot >= 0 {
			server = meta.Parts[slot].Server
			epoch = meta.Epoch
		}
	}
	c.mu.RUnlock()
	resolve := func() (string, int64) {
		meta := c.refreshMeta(model, ModelMeta{})
		slot := meta.slotByID(p.Index)
		if slot < 0 {
			return "", 0
		}
		return meta.Parts[slot].Server, meta.Epoch
	}
	return c.callE(cancel, server, method, req, resp, epoch, resolve)
}

// rerouteRetries bounds how many times one operation re-groups its keys
// under a refreshed layout after a range-moved rejection (a partition
// split while the operation was routing with the old map). Each retry
// covers one layout change; concurrent rebalancing deeper than this is
// a planner runaway the caller should see.
const rerouteRetries = 4

// routed performs one keyed operation against a range- or hash-routed
// model. split buckets the work by partition slot (one bucket per slot
// of the layout it is given, empty where nothing routes) and send
// performs one bucket; both see one layout snapshot, so a request is
// never routed half by an old partition map and half by a new one.
func routed[W any](c *Client, handle ModelMeta, work W,
	split func(meta *ModelMeta, work W) []W,
	send func(cancel <-chan struct{}, p Partition, bucket W) error) error {
	meta := c.currentMeta(handle.Name, handle)
	return routedFrom(c, meta, split(&meta, work), split, send, 0)
}

// routedFrom sends buckets split under meta. It is the one home of the
// re-route rule: a bucket rejected as range-moved straddles a split the
// snapshot predates, and the server — which validates a whole batch before
// touching anything — applied or answered none of it. That bucket alone is
// re-split under a refreshed layout and sent again (pushes draw fresh
// sequences, so nothing can double-apply; pulls are idempotent anyway);
// buckets that landed stay landed.
func routedFrom[W any](c *Client, meta ModelMeta, buckets []W,
	split func(meta *ModelMeta, work W) []W,
	send func(cancel <-chan struct{}, p Partition, bucket W) error, depth int) error {
	// The re-route handles layouts by value (~0.5 KB of frame). It is its
	// own closure so that cost is paid when a bucket is rejected, not by
	// the per-partition closure below, whose frame sits under every
	// data-plane call on a fresh worker stack: with the call inline, stack
	// growth took 3.7% of serve-mixed-tcp's CPU (1% at the parent) and 4%
	// off its mutations_per_s.
	reroute := func(i int) error {
		fresh := c.refreshMeta(meta.Name, meta)
		return routedFrom(c, fresh, split(&fresh, buckets[i]), split, send, depth+1)
	}
	return c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
		err := send(cancel, p, buckets[i])
		if err != nil && IsRangeMovedErr(err) && depth < rerouteRetries {
			return reroute(i)
		}
		return err
	})
}

// bucketMap splits a keyed batch by owning partition slot.
func bucketMap[V any](meta *ModelMeta, m map[int64]V) []map[int64]V {
	by := make([]map[int64]V, len(meta.Parts))
	for k, v := range m {
		p := meta.PartitionFor(k)
		if by[p] == nil {
			by[p] = make(map[int64]V)
		}
		by[p][k] = v
	}
	return by
}

// CreateModel registers a new model with the master and returns its meta.
func (c *Client) CreateModel(meta ModelMeta) (ModelMeta, error) {
	var out getModelResp
	if err := c.invoke(c.masterAddr, "CreateModel", createModelReq{Meta: meta}, &out); err != nil {
		return ModelMeta{}, err
	}
	c.cacheMeta(out.Meta)
	return out.Meta, nil
}

// GetModel fetches (and caches) a model's layout.
func (c *Client) GetModel(name string) (ModelMeta, error) {
	c.mu.RLock()
	meta, ok := c.cache[name]
	c.mu.RUnlock()
	if ok {
		return meta, nil
	}
	var out getModelResp
	if err := c.invoke(c.masterAddr, "GetModel", modelNameReq{Name: name}, &out); err != nil {
		return ModelMeta{}, err
	}
	c.cacheMeta(out.Meta)
	return out.Meta, nil
}

// DeleteModel removes a model from the servers and the master, and with
// it this client's layout of it.
func (c *Client) DeleteModel(name string) error {
	c.mu.Lock()
	delete(c.cache, name)
	c.mu.Unlock()
	return c.invoke(c.masterAddr, "DeleteModel", modelNameReq{Name: name}, nil)
}

// Checkpoint snapshots every partition of the model to the DFS.
func (c *Client) Checkpoint(model string) error {
	return c.invoke(c.masterAddr, "Checkpoint", modelNameReq{Name: model}, nil)
}

// CheckpointModels snapshots a set of models as one atomic unit, fenced
// on the recovery counter: when ifRecoveries >= 0 and a server recovery
// has bumped the counter past it (or a server dies mid-checkpoint), the
// master publishes nothing and raced=true is returned — the previous
// consistent checkpoint set is still intact, so the caller can roll back
// to it and redo the iteration.
func (c *Client) CheckpointModels(models []string, ifRecoveries int64) (raced bool, err error) {
	var resp ckptModelsResp
	if err := c.invoke(c.masterAddr, "CheckpointModels", ckptModelsReq{Names: models, IfRecoveries: ifRecoveries}, &resp); err != nil {
		return false, err
	}
	return resp.Raced, nil
}

// RecoveryCount returns the number of server-recovery events the master
// has performed. Drivers of consistency-critical algorithms compare it
// across an iteration to detect a mid-iteration restore.
func (c *Client) RecoveryCount() (int64, error) {
	var n int64
	err := c.invoke(c.masterAddr, "RecoveryCount", nil, &n)
	return n, err
}

// RestoreModels rolls the named models back as one unit: every partition
// from the latest checkpoint generation, or — when the latest is corrupt
// — every partition from the previous generation, never a mix of fences.
func (c *Client) RestoreModels(models []string) error {
	return c.invoke(c.masterAddr, "RestoreModels", restoreModelsReq{Names: models}, nil)
}

// fanOut runs fn for every partition through a bounded worker pool and
// returns the first error. Workers claim partition indices in order;
// each fn writes only results for its own index, so ordering is
// preserved regardless of completion order. On the first failure the
// remaining unclaimed partitions are skipped (first-error-wins) and the
// cancel channel passed to fn closes, so siblings already parked in a
// retry backoff exit early instead of sleeping out their full
// RetryTimeout against a server that is simply down.
func (c *Client) fanOut(parts []Partition, fn func(i int, p Partition, cancel <-chan struct{}) error) error {
	n := len(parts)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return fn(0, parts[0], nil)
	}
	workers := min(n, maxFanOut)
	cancelCh := make(chan struct{})
	var (
		next     atomic.Int64
		failed   atomic.Bool
		once     sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i, parts[i], cancelCh); err != nil {
					once.Do(func() {
						firstErr = err
						close(cancelCh)
					})
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// ---------------------------------------------------------------------------
// Typed model handles.

// modelOfKind fetches a model's layout for a typed handle and checks it
// is of a kind the handle serves; want names that kind in the error.
func (c *Client) modelOfKind(name, want string, kinds ...Kind) (ModelMeta, error) {
	meta, err := c.GetModel(name)
	if err != nil {
		return ModelMeta{}, err
	}
	for _, k := range kinds {
		if meta.Kind == k {
			return meta, nil
		}
	}
	return ModelMeta{}, fmt.Errorf("ps: model %q is %v, not %s", name, meta.Kind, want)
}

// Vector is a handle to a DenseVector model.
type Vector struct {
	c    *Client
	Meta ModelMeta
}

// DenseVectorSpec describes a DenseVector model to create.
type DenseVectorSpec struct {
	Name               string
	Size               int64
	ConsistentRecovery bool
	// Partitions overrides the partition count (default one per server).
	Partitions int
}

// CreateDenseVector creates a range-partitioned dense vector.
func (c *Client) CreateDenseVector(spec DenseVectorSpec) (*Vector, error) {
	meta, err := c.CreateModel(ModelMeta{
		Name: spec.Name, Kind: DenseVector, Size: spec.Size,
		ConsistentRecovery: spec.ConsistentRecovery,
		NumPartitions:      spec.Partitions,
	})
	if err != nil {
		return nil, err
	}
	return &Vector{c: c, Meta: meta}, nil
}

// Vector returns a handle to an existing DenseVector model.
func (c *Client) Vector(name string) (*Vector, error) {
	meta, err := c.modelOfKind(name, "DenseVector", DenseVector)
	if err != nil {
		return nil, err
	}
	return &Vector{c: c, Meta: meta}, nil
}

// PullAll assembles the full vector from every partition. A full pull
// names no index, so a partition that narrowed under a stale layout (a
// split) answers its kept range without error: a reply that falls short of
// its span is treated as range-moved, and routed re-pulls the rest.
func (v *Vector) PullAll() ([]float64, error) {
	name, out := v.Meta.Name, make([]float64, v.Meta.Size)
	err := routed(v.c, v.Meta, vecSpan{lo: 0, hi: v.Meta.Size, vals: out}, splitSpan, func(cancel <-chan struct{}, p Partition, w vecSpan) error {
		if w.lo == w.hi {
			return nil
		}
		var r vecPullResp
		if err := v.c.partInvoke(cancel, name, p, "VecPull", pullReq{Model: name, Part: p.Index}, &r); err != nil {
			return err
		}
		if hi := r.Lo + int64(len(r.Values)); r.Lo > w.lo || hi < w.hi {
			return fmt.Errorf("%w: %s/%d answered a full pull with [%d,%d), not [%d,%d)", ErrRangeMoved, name, p.Index, r.Lo, hi, w.lo, w.hi)
		}
		copy(w.vals, r.Values[w.lo-r.Lo:])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// vecWork is the routed work of an indexed vector operation: the ids and
// the position in the caller's slices of each — pos[j] for ids[j] or, for a
// window, lo, lo+1, … — with, under kept keys, the ids' vecPullFrame.
type vecWork struct {
	rowWork
	lo   int
	head []byte
}

// splitVec buckets w by partition slot. Ascending ids (PageRank's, KCore's)
// route as one window of the caller's slice per slot, found by binary
// search on the slot — RouteKey's clamp is monotone — and alias it. Other
// input is copied.
func splitVec(meta *ModelMeta, w vecWork) []vecWork {
	by := make([]vecWork, len(meta.Parts))
	if w.pos == nil && slices.IsSorted(w.ids) {
		for p, i := 0, 0; p < len(by) && i < len(w.ids); p++ {
			j := i + sort.Search(len(w.ids)-i, func(k int) bool { return meta.PartitionFor(w.ids[i+k]) > p })
			by[p].ids, by[p].lo = w.ids[i:j], w.lo+i
			i = j
		}
		return by
	}
	for j, id := range w.ids {
		by[meta.PartitionFor(id)].add(id, w.lo+w.row(j), len(w.ids)/len(by)+1)
	}
	return by
}

// frame is b's vecPullFrame at part in a pooled buffer with room for n more
// bytes: a copy of the kept head, or encoded there.
func (b vecWork) frame(model string, part, n int) []byte {
	if b.head != nil {
		return append(rpc.GetBuf(len(b.head)+n), b.head...)
	}
	return vecPullFrame(model, part, b.ids, n)
}

// VecKeys is an index column of a Vector. Kept keys (Keys: PageRank's
// sources and destinations, pulled and pushed every iteration) are routed
// once per layout and keep each bucket's vecPullFrame, which a call sends a
// copy of; a bucket rejected as range-moved is re-routed by routedFrom's
// rule, and the next call routes the column afresh. Keys for one call
// (Pull, Push*) route as routed does. Safe for concurrent use.
type VecKeys struct {
	v     *Vector
	ids   []int64
	once  bool
	route atomic.Pointer[keyRoute]
}

// keyRoute is a VecKeys column under one layout: a bucket per slot.
type keyRoute struct {
	meta ModelMeta
	by   []vecWork
}

// Keys makes kept keys of ids, routed at their first call. The ids are
// kept, not copied: they must not change while the keys are in use.
func (v *Vector) Keys(ids []int64) *VecKeys { return &VecKeys{v: v, ids: ids} }

// call sends the keys' buckets. Kept keys are routed again first when the
// client's layout has split a partition since they were (NextID counts
// splits: a move or a promotion keeps every range, and so the route).
func (k *VecKeys) call(send func(cancel <-chan struct{}, p Partition, b vecWork) error) error {
	if k.once {
		return routed(k.v.c, k.v.Meta, vecWork{rowWork: rowWork{ids: k.ids}}, splitVec, send)
	}
	meta, r := k.v.c.currentMeta(k.v.Meta.Name, k.v.Meta), k.route.Load()
	if r == nil || r.meta.NextID != meta.NextID {
		r = &keyRoute{meta: meta, by: splitVec(&meta, vecWork{rowWork: rowWork{ids: k.ids}})}
		for i, b := range r.by {
			if len(b.ids) > 0 {
				r.by[i].head = vecPullFrame(meta.Name, meta.Parts[i].Index, b.ids, 0) // kept: never returned to the pool
			}
		}
		k.route.Store(r)
	}
	return routedFrom(k.v.c, r.meta, r.by, splitVec, send, 0)
}

// Pull fetches the keys' values, in the order of their ids.
func (k *VecKeys) Pull() ([]float64, error) {
	name, out := k.v.Meta.Name, make([]float64, len(k.ids))
	err := k.call(func(cancel <-chan struct{}, p Partition, b vecWork) error {
		if len(b.ids) == 0 {
			return nil
		}
		// A window's reply decodes into out itself (wreader.value's reuse).
		var r vecPullResp
		if b.pos == nil {
			r.Values = out[b.lo : b.lo : b.lo+len(b.ids)]
		}
		if err := k.v.c.partInvoke(cancel, name, p, "VecPull", encoded(b.frame(name, p.Index, 0)), &r); err != nil {
			return err
		}
		if len(r.Values) != len(b.ids) {
			return fmt.Errorf("ps: %s/%d answered %d indices with %d values", name, p.Index, len(b.ids), len(r.Values))
		}
		if b.pos == nil && &r.Values[0] != &out[b.lo] {
			copy(out[b.lo:], r.Values)
		}
		for j, at := range b.pos {
			out[at] = r.Values[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PushAdd adds vals[i] at the keys' i-th id.
func (k *VecKeys) PushAdd(vals []float64) error { return k.push(vals, vecAdd) }

func (k *VecKeys) push(vals []float64, op vecOp) error {
	if len(vals) != len(k.ids) {
		return fmt.Errorf("ps: push of %d values at %d indices", len(vals), len(k.ids))
	}
	name := k.v.Meta.Name
	return k.call(func(cancel <-chan struct{}, p Partition, b vecWork) error {
		if len(b.ids) == 0 {
			return nil
		}
		at := vals
		if b.pos == nil {
			at = vals[b.lo : b.lo+len(b.ids)]
		}
		req := vecPushFrame(b.frame(name, p.Index, 8*len(b.ids)+16), at, b.pos, op)
		return k.v.c.partInvoke(cancel, name, p, "VecPush", encoded(req), nil)
	})
}

// Pull fetches the given indices, returned in the same order.
func (v *Vector) Pull(indices []int64) ([]float64, error) { return v.once(indices).Pull() }

// once makes keys of indices for one call.
func (v *Vector) once(indices []int64) *VecKeys { return &VecKeys{v: v, ids: indices, once: true} }

// PushAdd adds values at the given indices.
func (v *Vector) PushAdd(indices []int64, values []float64) error {
	return v.once(indices).push(values, vecAdd)
}

// PushSet overwrites values at the given indices.
func (v *Vector) PushSet(indices []int64, values []float64) error {
	return v.once(indices).push(values, vecSet)
}

// PushMin combines values with element-wise minimum (message combiner
// for shortest-path-style vertex programs).
func (v *Vector) PushMin(indices []int64, values []float64) error {
	return v.once(indices).push(values, vecMin)
}

// PushMax combines values with element-wise maximum.
func (v *Vector) PushMax(indices []int64, values []float64) error {
	return v.once(indices).push(values, vecMax)
}

// vecSpan is the routed work of a contiguous overwrite: vals[i] is the
// new value of element lo+i. The zero span is empty.
type vecSpan struct {
	lo, hi int64
	vals   []float64
}

// splitSpan clips w to every partition's range. Ranges only ever narrow
// — splits never merge or shift boundaries — so a fresh layout's
// partitions overlapping a re-split span always lie wholly inside it. A
// clipped span would be a full-range set of the wrong size, which the
// server refuses as range-moved; PullAll copies what its span covers.
func splitSpan(meta *ModelMeta, w vecSpan) []vecSpan {
	by := make([]vecSpan, len(meta.Parts))
	for i, p := range meta.Parts {
		if lo, hi := max(p.Lo, w.lo), min(p.Hi, w.hi); lo < hi {
			by[i] = vecSpan{lo: lo, hi: hi, vals: w.vals[lo-w.lo : hi-w.lo]}
		}
	}
	return by
}

// SetAll overwrites the whole vector, one full-range set a partition. A
// partition that narrowed under the layout snapshot rejects its set as
// range-moved; only its span is re-set, as full-range sets of the refreshed
// partitions that tile it (set is idempotent, so overlap is harmless).
func (v *Vector) SetAll(values []float64) error {
	if int64(len(values)) != v.Meta.Size {
		return fmt.Errorf("ps: SetAll size %d != model size %d", len(values), v.Meta.Size)
	}
	name := v.Meta.Name
	return routed(v.c, v.Meta, vecSpan{lo: 0, hi: v.Meta.Size, vals: values}, splitSpan, func(cancel <-chan struct{}, p Partition, w vecSpan) error {
		if w.lo == w.hi {
			return nil
		}
		return v.c.partInvoke(cancel, name, p, "VecPush", vecPushReq{Model: name, Part: p.Index, Values: w.vals, Op: vecSet}, nil)
	})
}

// Fill sets every element to x.
func (v *Vector) Fill(x float64) error {
	return v.SetAll(slices.Repeat([]float64{x}, int(v.Meta.Size)))
}

// SparseVec is a handle to a sparse vector: an Embedding of one-wide rows
// whose absent keys read 0.
type SparseVec struct {
	emb  *Emb
	Meta ModelMeta
}

// CreateSparseVector creates a hash-partitioned sparse vector.
func (c *Client) CreateSparseVector(name string) (*SparseVec, error) {
	meta, err := c.CreateModel(ModelMeta{Name: name, Kind: Embedding, Dim: 1})
	if err != nil {
		return nil, err
	}
	return &SparseVec{emb: &Emb{c: c, Meta: meta}, Meta: meta}, nil
}

// Pull fetches the given keys, returned in the same order. An absent key
// reads 0 and is materialised, as any embedding row is.
func (s *SparseVec) Pull(keys []int64) ([]float64, error) {
	vals := make([]float64, len(keys))
	if err := s.emb.PullInto(keys, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// PullAll fetches every key the sparse vector holds: each partition is
// asked for all its rows (nil keys), and its reply names them.
func (s *SparseVec) PullAll() (map[int64]float64, error) {
	name := s.Meta.Name
	out := make(map[int64]float64)
	var mu sync.Mutex
	everyPart := func(meta *ModelMeta, _ []int64) [][]int64 { return make([][]int64, len(meta.Parts)) }
	err := routed(s.emb.c, s.Meta, nil, everyPart, func(cancel <-chan struct{}, p Partition, _ []int64) error {
		var r embPullResp
		if err := s.emb.c.partInvoke(cancel, name, p, "EmbPull", pullReq{Model: name, Part: p.Index}, &r); err != nil {
			return err
		}
		if r.Rows.Dim != 1 {
			return fmt.Errorf("ps: %s/%d answered a whole-partition pull with %d-wide rows, want 1", name, p.Index, r.Rows.Dim)
		}
		mu.Lock()
		for i, k := range r.Rows.IDs {
			out[k] = r.Rows.Data[i]
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PushAdd adds vals at the given keys.
func (s *SparseVec) PushAdd(keys []int64, vals []float64) error {
	return s.emb.pushBatch(RowBatch{IDs: keys, Dim: 1, Data: vals}, false, false)
}

// PushSet overwrites the values at the given keys.
func (s *SparseVec) PushSet(keys []int64, vals []float64) error {
	return s.emb.pushBatch(RowBatch{IDs: keys, Dim: 1, Data: vals}, false, true)
}

// Emb is a handle to an Embedding or ColumnEmbedding model.
type Emb struct {
	c    *Client
	Meta ModelMeta
}

// EmbeddingSpec describes an embedding model to create.
type EmbeddingSpec struct {
	Name string
	Dim  int
	// ByColumn selects ColumnEmbedding layout (LINE-style partial dot
	// products) instead of hash-by-vertex.
	ByColumn  bool
	InitScale float64
	// Partitions overrides the partition count (default one per server).
	Partitions int
}

// CreateEmbedding creates an embedding model.
func (c *Client) CreateEmbedding(spec EmbeddingSpec) (*Emb, error) {
	kind := Embedding
	if spec.ByColumn {
		kind = ColumnEmbedding
	}
	meta, err := c.CreateModel(ModelMeta{
		Name: spec.Name, Kind: kind, Dim: spec.Dim,
		InitScale: spec.InitScale, NumPartitions: spec.Partitions,
	})
	if err != nil {
		return nil, err
	}
	return &Emb{c: c, Meta: meta}, nil
}

// Embedding returns a handle to an existing Embedding or ColumnEmbedding
// model.
func (c *Client) Embedding(name string) (*Emb, error) {
	meta, err := c.modelOfKind(name, "an embedding", Embedding, ColumnEmbedding)
	if err != nil {
		return nil, err
	}
	return &Emb{c: c, Meta: meta}, nil
}

// PullBatch fetches full-width rows as one flat batch: the distinct ids of
// the request in first-occurrence order, and for every request position
// the row that holds its id — duplicates cross the wire once.
func (e *Emb) PullBatch(ids []int64) (rows RowBatch, pos []int32, err error) {
	uniq, pos := dedupIDs(ids)
	rows = RowBatch{IDs: uniq, Dim: e.Meta.Dim, Data: make([]float64, len(uniq)*e.Meta.Dim)}
	if err := e.PullInto(uniq, rows.Data); err != nil {
		return RowBatch{}, nil, err
	}
	return rows, pos, nil
}

// PullInto fetches full-width rows into the caller's block, positionally:
// row i of dst, which must hold len(ids) rows of the model's Dim, is the
// row of ids[i]. A repeated id is fetched once per occurrence; nothing is
// allocated for the rows. On an error dst holds no usable rows.
func (e *Emb) PullInto(ids []int64, dst []float64) error {
	meta := e.c.currentMeta(e.Meta.Name, e.Meta)
	if len(dst) != len(ids)*meta.Dim {
		return fmt.Errorf("ps: PullInto of %d ids of %s into %d values, want %d-wide rows", len(ids), meta.Name, len(dst), meta.Dim)
	}
	return e.pullInto(meta, rowWork{ids: ids}, dst)
}

// Pull is PullBatch as an id → row map; the rows are views of one block.
func (e *Emb) Pull(ids []int64) (map[int64][]float64, error) {
	rows, _, err := e.PullBatch(ids)
	if err != nil {
		return nil, err
	}
	return rows.Map(), nil
}

// rowParts runs send, concurrently, for every part of w's full-width rows
// the layout holds: w's positions are routed, never data. A hash layout
// gives each owner its bucket of w whole; a column layout gives every
// partition its columns of all of w — those partitions are structural
// (every row spans all of them, even a partition of no columns) and never
// split or re-range, so that path fans out directly.
func (e *Emb) rowParts(meta ModelMeta, w rowWork, send func(cancel <-chan struct{}, p Partition, w rowWork, col0, col1 int) error) error {
	if meta.Kind == ColumnEmbedding {
		return e.c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
			return send(cancel, p, w, p.Col0, p.Col1)
		})
	}
	return routed(e.c, meta, w, splitRows, func(cancel <-chan struct{}, p Partition, b rowWork) error {
		if len(b.ids) == 0 {
			return nil
		}
		return send(cancel, p, b, 0, meta.Dim)
	})
}

// pullInto fetches the rows of w.ids into dst, a block of meta.Dim-wide
// rows: id j lands in row w.row(j). Every partition's reply is decoded
// straight into its rows (hash) or columns (column layout) of dst — see
// rowScatter.
func (e *Emb) pullInto(meta ModelMeta, w rowWork, dst []float64) error {
	if len(w.ids) == 0 {
		return nil
	}
	name := meta.Name
	return e.rowParts(meta, w, func(cancel <-chan struct{}, p Partition, w rowWork, col0, col1 int) error {
		sc := &rowScatter{msg: msgEmbPullResp, model: name, part: p.Index,
			work: w, dst: dst, col0: col0, width: col1 - col0, strd: meta.Dim}
		return e.c.partInvoke(cancel, name, p, "EmbPull", pullReq{Model: name, Part: p.Index, Keys: w.ids}, sc)
	})
}

// pushBatch sends full-width rows, the mirror of pullInto: each partition's
// request goes from its rows (hash) or columns (column layout) of b straight
// into its frame — see pushFrame.
func (e *Emb) pushBatch(b RowBatch, grad, set bool) error {
	meta := e.c.currentMeta(e.Meta.Name, e.Meta)
	if err := b.check(); err != nil {
		return err
	}
	if b.Dim != meta.Dim {
		return fmt.Errorf("ps: push of %d-wide rows into %s, which has Dim %d", b.Dim, meta.Name, meta.Dim)
	}
	if len(b.IDs) == 0 {
		return nil
	}
	return e.rowParts(meta, rowWork{ids: b.IDs}, func(cancel <-chan struct{}, p Partition, w rowWork, col0, col1 int) error {
		req := pushFrame(meta.Name, p.Index, b, w, col0, col1, grad, set)
		return e.c.partInvoke(cancel, meta.Name, p, "EmbPush", req, nil)
	})
}

// push is pushBatch for the map-shaped methods.
func (e *Emb) push(vecs map[int64][]float64, set bool) error {
	b, err := rowBatchOf(vecs, e.Meta.Dim)
	if err != nil {
		return err
	}
	return e.pushBatch(b, false, set)
}

// PushAddBatch adds the batch's rows into the stored rows; a repeated id
// adds once per occurrence.
func (e *Emb) PushAddBatch(b RowBatch) error { return e.pushBatch(b, false, false) }

// PushAdd adds the vectors into the stored rows.
func (e *Emb) PushAdd(vecs map[int64][]float64) error { return e.push(vecs, false) }

// PushSet overwrites the stored rows.
func (e *Emb) PushSet(vecs map[int64][]float64) error { return e.push(vecs, true) }

// Nbr is a handle to a Neighbor (adjacency) model.
type Nbr struct {
	c    *Client
	Meta ModelMeta
}

// CreateNeighbor creates a hash-partitioned neighbor-table model.
func (c *Client) CreateNeighbor(name string) (*Nbr, error) {
	meta, err := c.CreateModel(ModelMeta{Name: name, Kind: Neighbor})
	if err != nil {
		return nil, err
	}
	return &Nbr{c: c, Meta: meta}, nil
}

// Push appends neighbor lists (concatenating with any existing entries,
// so different executors can push disjoint chunks of the same vertex).
// Appends are not idempotent, but a range-moved bucket appended nothing:
// the engine rejects the whole batch before touching any list.
func (n *Nbr) Push(tables map[int64][]int64) error {
	name := n.Meta.Name
	return routed(n.c, n.Meta, tables, bucketMap[[]int64], func(cancel <-chan struct{}, p Partition, b map[int64][]int64) error {
		if len(b) == 0 {
			return nil
		}
		return n.c.partInvoke(cancel, name, p, "NbrPush", nbrPushReq{Model: name, Part: p.Index, Tables: b}, nil)
	})
}

// nbrReply keeps one partition's NbrPull reply frame past decode (callE
// leaves the frame to it) for nbrBatchOf, which decodes it into place once
// every partition has answered.
type nbrReply struct {
	model string
	part  int
	work  rowWork
	r     wreader
}

func (s *nbrReply) wireMsg() byte { return msgNbrPullResp }

func (s *nbrReply) decode(r wreader) (wreader, error) {
	s.r, r.off = r, len(r.b)
	return r, nil
}

func (s *nbrReply) misshaped() error {
	return fmt.Errorf("ps: %s/%d answered a neighbor pull of %d ids with a mis-shaped batch: %w", s.model, s.part, len(s.work.ids), s.r.err)
}

// nbrBatchOf decodes the replies to a pull of n ids into one batch in
// request order — every reply's degrees, which fix the offsets, then each
// reply's segments straight to their places — and hands the frames back to
// the pool. A reply that does not add up is an error naming its partition.
func nbrBatchOf(n int, replies []*nbrReply) (NbrBatch, error) {
	defer func() {
		for _, s := range replies {
			rpc.PutBuf(s.r.b)
		}
	}()
	out, total := NbrBatch{Off: make([]int32, n+1)}, 0
	for _, s := range replies {
		r := &s.r
		if k := r.uvarint(); r.err == nil && k != uint64(len(s.work.ids)) {
			r.err = fmt.Errorf("ps: wire: neighbour batch answers for %d vertices, want %d", k, len(s.work.ids))
		}
		cnt, _ := r.nbrDegrees(out.Off, s.work, len(s.work.ids))
		if total += cnt; r.err != nil {
			return NbrBatch{}, s.misshaped()
		}
	}
	if total > math.MaxInt32 {
		return NbrBatch{}, fmt.Errorf("ps: a pull of %d neighbours does not fit one batch", total)
	}
	for i := range n {
		out.Off[i+1] += out.Off[i]
	}
	out.Adj = make([]int64, total)
	for _, s := range replies {
		r := &s.r
		if r.nbrSegments(out, s.work, len(s.work.ids)); r.err == nil && r.off != len(r.b) {
			r.err = fmt.Errorf("ps: wire: %d trailing bytes after a neighbour batch", len(r.b)-r.off)
		}
		if r.err != nil {
			return NbrBatch{}, s.misshaped()
		}
	}
	return out, nil
}

// PullBatch fetches the adjacency of ids as one CSR batch in request
// order: segment i is ids[i]'s neighbours, empty when the vertex is
// unknown or has none. A repeated id is answered once per occurrence.
func (n *Nbr) PullBatch(ids []int64) (NbrBatch, error) {
	name := n.Meta.Name
	var mu sync.Mutex
	var parts []*nbrReply
	err := routed(n.c, n.Meta, rowWork{ids: ids}, splitRows, func(cancel <-chan struct{}, p Partition, b rowWork) error {
		if len(b.ids) == 0 {
			return nil
		}
		r := &nbrReply{model: name, part: p.Index, work: b}
		if err := n.c.partInvoke(cancel, name, p, "NbrPull", pullReq{Model: name, Part: p.Index, Keys: b.ids}, r); err != nil {
			return err
		}
		mu.Lock()
		parts = append(parts, r)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return NbrBatch{}, err
	}
	return nbrBatchOf(len(ids), parts)
}

// Pull is PullBatch as an id → neighbours map: a repeated id crosses the
// wire once, vertices with no neighbors are omitted, and the lists are
// views of one block.
func (n *Nbr) Pull(ids []int64) (map[int64][]int64, error) {
	uniq, _ := dedupIDs(ids)
	b, err := n.PullBatch(uniq)
	if err != nil {
		return nil, err
	}
	out := make(map[int64][]int64, len(uniq))
	for i, id := range uniq {
		if ns := b.Nbrs(i); len(ns) > 0 {
			out[id] = ns
		}
	}
	return out, nil
}

// Mat is a handle to a dense matrix (e.g. GNN layer weights): a
// ColumnEmbedding over row ids [0, Size), every partition a column range
// of every row.
type Mat struct {
	emb  *Emb
	ids  []int64 // 0 … Size−1
	Meta ModelMeta
}

// MatrixSpec describes a dense matrix model to create.
type MatrixSpec struct {
	Name string
	Rows int64
	Cols int
	Opt  Optimizer
}

// CreateMatrix creates a column-partitioned dense matrix, zero until
// written.
func (c *Client) CreateMatrix(spec MatrixSpec) (*Mat, error) {
	meta, err := c.CreateModel(ModelMeta{
		Name: spec.Name, Kind: ColumnEmbedding, Size: spec.Rows, Dim: spec.Cols, Opt: spec.Opt,
	})
	if err != nil {
		return nil, err
	}
	return newMat(c, meta), nil
}

func newMat(c *Client, meta ModelMeta) *Mat {
	ids := make([]int64, meta.Size)
	for i := range ids {
		ids[i] = int64(i)
	}
	return &Mat{emb: &Emb{c: c, Meta: meta}, ids: ids, Meta: meta}
}

// PullAll assembles the full rows×cols matrix (row-major).
func (m *Mat) PullAll() ([]float64, error) {
	out := make([]float64, len(m.ids)*m.Meta.Dim)
	if err := m.emb.PullInto(m.ids, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (m *Mat) push(data []float64, grad, set bool) error {
	return m.emb.pushBatch(RowBatch{IDs: m.ids, Dim: m.Meta.Dim, Data: data}, grad, set)
}

// PushSet overwrites the matrix (driver pushing the initial model).
func (m *Mat) PushSet(data []float64) error { return m.push(data, false, true) }

// PushGrad applies the server-side optimizer to a full-matrix gradient.
func (m *Mat) PushGrad(grad []float64) error { return m.push(grad, true, false) }

// CallFunc invokes a registered psFunc on every partition of model,
// passing argFor(partition) as the argument, and returns the raw
// per-partition outputs ordered by partition index.
func (c *Client) CallFunc(model, fn string, argFor func(p Partition) []byte) ([][]byte, error) {
	meta, err := c.GetModel(model)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(meta.Parts))
	err = c.fanOut(meta.Parts, func(i int, p Partition, cancel <-chan struct{}) error {
		req := funcReq{Model: model, Part: p.Index, Name: fn, Arg: argFor(p)}
		var r funcResp
		if err := c.partInvoke(cancel, model, p, "Func", req, &r); err != nil {
			return err
		}
		out[i] = r.Out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

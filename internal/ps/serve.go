package ps

// Server-side serving tier (DESIGN.md §13): immutable, epoch-tagged
// snapshot replicas, read without touching a mutable primary.
//
//   - Publication is driven by the master (serve_master.go): each primary
//     exports a consistent cut under the replication write gate — a
//     multi-shard push is fully inside or fully outside it — and installs it
//     on the target endpoints itself; data never flows through the master.
//   - A generation is a frozen engine tagged with a per-model snapshot
//     epoch, kept out of the Store so no push can reach it; absent rows
//     still materialize on read, deterministically. Servers keep the two
//     newest per partition; a pull at any other epoch is a staleSnapMsg
//     error, which the client answers by refetching the layout.
//   - The hot head (HotKey counters fed from engine and serve pulls) is
//     replicated to EVERY endpoint, so the first one asked answers for it.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"psgraph/internal/f64le"
)

// staleSnapMsg marks a serve pull whose snapshot epoch no longer (or not
// yet) matches what the server holds. Like staleEpochMsg it crosses the
// wire as an error-string substring.
const staleSnapMsg = "ps: stale serve snapshot"

// noServeSnapMsg marks a serve pull for a partition this server holds no
// snapshot of (never published, dropped, or moved elsewhere).
const noServeSnapMsg = "ps: no serve snapshot"

// IsStaleSnapErr classifies a serving-tier staleness rejection.
func IsStaleSnapErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), staleSnapMsg)
}

// isNoServeSnapErr classifies a missing-snapshot rejection.
func isNoServeSnapErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), noServeSnapMsg)
}

// isServeRouteErr reports whether a serve-pull failure is a routing
// staleness signal (any flavor) that a layout refetch may cure.
func isServeRouteErr(err error) bool {
	return IsStaleSnapErr(err) || isNoServeSnapErr(err) ||
		IsRangeMovedErr(err) || IsStaleEpochErr(err)
}

// HotKey is one row id with its observed pull count.
type HotKey struct {
	ID    int64
	Count int64
}

// partStatHotK is how many hot keys each partition reports in PartStats.
const partStatHotK = 64

// topHot sums the counts of repeated ids, sorts by count, descending, and
// keeps the first k (all when k <= 0).
func topHot(keys []HotKey, k int) []HotKey {
	slices.SortFunc(keys, func(a, b HotKey) int { return cmp.Compare(a.ID, b.ID) })
	merged := keys[:0]
	for _, hk := range keys {
		if n := len(merged); n > 0 && merged[n-1].ID == hk.ID {
			merged[n-1].Count += hk.Count
		} else {
			merged = append(merged, hk)
		}
	}
	keys = merged
	slices.SortFunc(keys, func(a, b HotKey) int { return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.ID, b.ID)) })
	if k > 0 && len(keys) > k {
		keys = keys[:k]
	}
	return keys
}

// serveSeedReq asks a partition's primary to export a consistent cut and
// install it on Targets as the SnapEpoch generation. Meta, the layout the
// publication was planned under, travels with the snapshot: a replica
// validates routes against the partition table its data corresponds to.
type serveSeedReq struct {
	Meta      ModelMeta
	Part      int
	SnapEpoch int64
	Targets   []string
}

// serveInstallReq delivers one partition snapshot to a serving endpoint.
type serveInstallReq struct {
	Meta      ModelMeta
	Part      int
	SnapEpoch int64
	Image     partImage
}

// servePullReq reads one generation's rows off every partition the endpoint
// holds for the caller: it is answered with the parts' row batches back to
// back, in request order, in one frame.
type servePullReq struct {
	Model     string
	SnapEpoch int64
	Parts     []servePart
}

// servePart is one partition's share: its stable index and the ids to read.
type servePart struct {
	Part int
	IDs  []int64
}

// serveHotInstallReq replicates the assembled hot-head rows (full-width,
// reassembled across column partitions by the master) to one endpoint.
type serveHotInstallReq struct {
	Model     string
	SnapEpoch int64
	Rows      RowBatch
}

type serveHotPullReq struct {
	Model     string
	SnapEpoch int64
	IDs       []int64
}

type serveHotStatsReq struct {
	Model string
}

type serveHotStatsResp struct {
	Hot []HotKey
}

func init() {
	serverHandlers["ServeSeed"] = entry[*Server]{idempotent, handleNoResp((*Server).serveSeed)}
	serverHandlers["ServeInstall"] = entry[*Server]{idempotent, handleNoResp((*Server).serveInstall)}
	serverHandlers["ServePull"] = entry[*Server]{idempotent, handle((*Server).servePull)}
	serverHandlers["ServeHotInstall"] = entry[*Server]{idempotent, handleNoResp((*Server).serveHotInstall)}
	serverHandlers["ServeHotPull"] = entry[*Server]{idempotent, handle((*Server).serveHotPull)}
	serverHandlers["ServeHotStats"] = entry[*Server]{idempotent, handle((*Server).serveHotStats)}
}

// serveSnap is one partition snapshot generation: a frozen engine that
// lives here and never in the Store. Route validation, range errors,
// lazy row init and the hot counter are the engine's own.
type serveSnap struct {
	snapEpoch int64
	e         rowEngine
}

// rowEngine is the engine of a servable kind. It answers a keyed read as a
// row batch in two halves, so that one frame can hold several engines'
// batches: rowsLen validates the ids (a rejection names model and partition)
// and sizes the batch, appendRows writes it behind b and counts the pulls.
// A DenseVector's ids are indices and its rows one value wide.
type rowEngine interface {
	engine
	rowsLen(ids []int64) (int, error)
	appendRows(b []byte, ids []int64) []byte
	hotTop(k int) []HotKey
}

// hotReplica is the model-wide hot head replicated to this endpoint.
type hotReplica struct {
	snapEpoch int64
	rows      rowStore // immutable after install, read without a lock
}

// serveState is a server's serving-tier store.
type serveState struct {
	mu    sync.Mutex
	snaps map[partKey][]*serveSnap // newest generation first, at most 2
	hot   map[string]*hotReplica

	snapRows atomic.Int64 // rows served from partition snapshots
}

// serveGenerations is how many snapshot epochs a server retains per partition:
// the newest plus one, so holders of the previous layout keep reading.
const serveGenerations = 2

// serveSeed exports a consistent cut of the partition and installs it on
// every target endpoint. The export runs under the replication write gate
// (exclusive), so an in-flight multi-shard push is fully in the cut or fully
// out — a push locks shards one at a time, so shard locks cannot give that.
// The gate is released before the installs: the image owns its memory, and
// holding it across N network installs would stall training for all of them.
func (s *Server) serveSeed(req serveSeedReq) error {
	e, err := s.store.get(req.Meta.Name, req.Part)
	if err != nil {
		return err
	}
	s.repl.gate.Lock()
	img := exportAll(e)
	s.repl.gate.Unlock()
	inst := serveInstallReq{Meta: req.Meta, Part: req.Part, SnapEpoch: req.SnapEpoch, Image: img}
	var encoded []byte
	for _, target := range req.Targets {
		if target == s.Addr {
			if err := s.serveInstall(inst); err != nil {
				return err
			}
			continue
		}
		if s.repl.out == nil {
			return fmt.Errorf("ps: serve seed %s/%d: server %s has no outbound transport",
				req.Meta.Name, req.Part, s.Addr)
		}
		if encoded == nil {
			encoded = enc(inst)
		}
		if _, err := s.repl.out.Call(target, "ServeInstall", encoded); err != nil {
			return fmt.Errorf("ps: serve install %s/%d on %s: %w", req.Meta.Name, req.Part, target, err)
		}
	}
	return nil
}

// serveInstall stands one snapshot generation up locally, as a restore
// would, and publishes it to this server's readers. An embedding
// generation is one shard: shards let writers run in parallel, and a
// generation has none — reads only, and the materialising of an absent
// row — while one shard's slabs round a partition up by one chunk, not 32.
func (s *Server) serveInstall(req serveInstallReq) error {
	if !servable(req.Meta.Kind) {
		return fmt.Errorf("ps: serve install %s/%d: kind %s is not servable", req.Meta.Name, req.Part, req.Meta.Kind)
	}
	built, err := engineFromImage(req.Meta, req.Part, req.Image, 1)
	if err != nil {
		return fmt.Errorf("ps: serve install %s/%d: %w", req.Meta.Name, req.Part, err)
	}
	e := built.(rowEngine) // every servable kind's engine is one
	k := partKey{model: req.Meta.Name, part: req.Part}
	s.serve.mu.Lock()
	if s.serve.snaps == nil {
		s.serve.snaps = make(map[partKey][]*serveSnap)
	}
	// A re-install replaces the generation of its epoch (idempotent).
	gens := []*serveSnap{{snapEpoch: req.SnapEpoch, e: e}}
	for _, g := range s.serve.snaps[k] {
		if g.snapEpoch != req.SnapEpoch {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].snapEpoch > gens[j].snapEpoch })
	if len(gens) > serveGenerations {
		gens = gens[:serveGenerations]
	}
	s.serve.snaps[k] = gens
	s.serve.mu.Unlock()
	return nil
}

// servePull answers every part from the generation the caller's layout was
// published under, as one exactly sized frame. All parts are resolved (one
// lock), validated and sized before the frame is taken: a rejection of one
// part rejects the read, names that part and writes nothing.
func (s *Server) servePull(req servePullReq) (encoded, error) {
	snaps := make([]*serveSnap, len(req.Parts))
	s.serve.mu.Lock()
	for i, p := range req.Parts {
		gens := s.serve.snaps[partKey{model: req.Model, part: p.Part}]
		for _, g := range gens {
			if g.snapEpoch == req.SnapEpoch {
				snaps[i] = g
				break
			}
		}
		if snaps[i] != nil {
			continue
		}
		s.serve.mu.Unlock()
		if len(gens) == 0 {
			return nil, fmt.Errorf("%s for %s/%d on this server", noServeSnapMsg, req.Model, p.Part)
		}
		return nil, fmt.Errorf("%s: %s/%d pull at snap epoch %d, server holds %d",
			staleSnapMsg, req.Model, p.Part, req.SnapEpoch, gens[0].snapEpoch)
	}
	s.serve.mu.Unlock()
	size, rows := 2, 0
	for i, p := range req.Parts {
		n, err := snaps[i].e.rowsLen(p.IDs)
		if err != nil {
			return nil, err
		}
		size += n
		rows += len(p.IDs)
	}
	b := frame(msgServePullResp, size)
	for i, p := range req.Parts {
		b = snaps[i].e.appendRows(b, p.IDs)
	}
	s.serve.snapRows.Add(int64(rows))
	return b, nil
}

// serveHotInstall replaces this endpoint's replicated hot head for a
// model. Older generations never overwrite newer ones.
func (s *Server) serveHotInstall(req serveHotInstallReq) error {
	s.serve.mu.Lock()
	defer s.serve.mu.Unlock()
	if s.serve.hot == nil {
		s.serve.hot = make(map[string]*hotReplica)
	}
	if cur, ok := s.serve.hot[req.Model]; ok && cur.snapEpoch > req.SnapEpoch {
		return nil
	}
	hr := &hotReplica{snapEpoch: req.SnapEpoch, rows: newRowStore(req.Rows.Dim)}
	for i, id := range req.Rows.IDs {
		ord, _ := hr.rows.put(id)
		copy(hr.rows.row(ord), req.Rows.Row(i))
	}
	s.serve.hot[req.Model] = hr
	return nil
}

// serveHotPull serves the subset of ids present in the replicated hot
// head. Ids not in the head are simply omitted — the client routes them
// through the per-partition snapshot path; absence is not an error.
func (s *Server) serveHotPull(req serveHotPullReq) (encoded, error) {
	s.serve.mu.Lock()
	hr := s.serve.hot[req.Model]
	s.serve.mu.Unlock()
	if hr == nil {
		return nil, fmt.Errorf("%s: no hot head of %s on this server", noServeSnapMsg, req.Model)
	}
	if hr.snapEpoch != req.SnapEpoch {
		return nil, fmt.Errorf("%s: hot pull of %s at snap epoch %d, server holds %d",
			staleSnapMsg, req.Model, req.SnapEpoch, hr.snapEpoch)
	}
	held := make([]int64, 0, len(req.IDs))
	for _, id := range req.IDs {
		if hr.rows.get(id, false) != nil {
			held = append(held, id)
		}
	}
	dim := hr.rows.width
	b, off := rowBlock(frame(msgServePullResp, 2+rowBatchLen(held, dim)), held, dim)
	for k, id := range held {
		f64le.Put(b[off+8*k*dim:], hr.rows.get(id, false))
	}
	return b, nil
}

// serveHotStats reports the hottest keys this server's snapshot generations
// of a model have served: the serve-traffic half of the hot-set signal (the
// training half comes from the engine counters via PartStats).
func (s *Server) serveHotStats(req serveHotStatsReq) (serveHotStatsResp, error) {
	var hot []HotKey
	s.serve.mu.Lock()
	for k, gens := range s.serve.snaps {
		if k.model != req.Model {
			continue
		}
		// All retained generations: publication seeds the new (empty)
		// generation before mining, so the traffic signal lives on the
		// previous one.
		for _, g := range gens {
			hot = append(hot, g.e.hotTop(0)...)
		}
	}
	s.serve.mu.Unlock()
	return serveHotStatsResp{Hot: topHot(hot, 256)}, nil
}

// serveDrop discards every snapshot generation and the hot head of a
// model (model deletion).
func (s *Server) serveDrop(model string) {
	s.serve.mu.Lock()
	for k := range s.serve.snaps {
		if k.model == model {
			delete(s.serve.snaps, k)
		}
	}
	delete(s.serve.hot, model)
	s.serve.mu.Unlock()
}

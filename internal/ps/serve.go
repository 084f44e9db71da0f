package ps

// Server-side serving tier: immutable, epoch-tagged snapshot replicas.
//
// Training reads and writes go through the mutable primaries and contend
// on the engine locks. Recommendation-style read traffic wants the
// opposite trade: slightly stale rows, no lock contention, and fan-out
// across every server that holds a copy. The serving tier therefore
// publishes read-only snapshots of embedding/vector partitions out of
// band:
//
//   - The master drives publication at an epoch fence (serve_master.go):
//     it sends each partition's primary a ServeSeed naming the target
//     endpoints. The primary exports a consistent cut of the partition
//     under the replication write gate — the same exclusion seedBackup
//     uses, so a concurrent multi-shard push is either fully inside or
//     fully outside the cut — and pushes a ServeInstall to every target.
//     Snapshot data never flows through the master.
//
//   - Each snapshot is tagged with a per-model snapshot epoch. Pull
//     requests carry the epoch the client's serve layout was published
//     under; a mismatch is a staleSnapMsg error, the serving analogue of
//     ErrStaleEpoch, and the client reacts the same way: refetch the
//     layout and retry. Servers keep the two newest generations per
//     partition so readers on layout N-1 are served while N rolls out.
//
//   - Absent embedding rows are materialized with the deterministic
//     rowIniter — pure function of (id, column), so a snapshot replica
//     answers for never-pushed rows without consulting the primary.
//
//   - The power-law hot head (HotKey counters fed from engine pulls and
//     serve pulls) is replicated to EVERY serving endpoint via
//     ServeHotInstall, so a hot-head read is always satisfiable by the
//     first endpoint asked.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// hotTrackCap bounds each counter's tracked key set. Once full, new keys
// are not admitted — under power-law traffic the head keys are seen long
// before the tracker fills, so the head is never the part that's dropped.
const hotTrackCap = 8192

// partStatHotK is how many hot keys each partition reports in PartStats.
const partStatHotK = 64

// hotCounter is a bounded per-partition pull-frequency counter.
type hotCounter struct {
	mu     sync.Mutex
	counts map[int64]int64
}

func (h *hotCounter) bump(ids []int64) {
	h.mu.Lock()
	if h.counts == nil {
		h.counts = make(map[int64]int64)
	}
	for _, id := range ids {
		if _, ok := h.counts[id]; !ok && len(h.counts) >= hotTrackCap {
			continue
		}
		h.counts[id]++
	}
	h.mu.Unlock()
}

// top returns the k highest-count keys, descending.
func (h *hotCounter) top(k int) []HotKey {
	h.mu.Lock()
	out := make([]HotKey, 0, len(h.counts))
	for id, n := range h.counts {
		out = append(out, HotKey{ID: id, Count: n})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ID < out[j].ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// --- wire messages ---------------------------------------------------

// serveSeedReq asks a partition's primary to export a consistent cut and
// install it on Targets as the SnapEpoch generation. Meta is the layout
// the publication was planned under; it travels with the snapshot so a
// replica can validate routes against the exact partition table its data
// corresponds to (the "consistent layout + data pair").
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
	Data      []byte // ckptSnapshot
}

type servePullReq struct {
	Model     string
	Part      int
	SnapEpoch int64
	IDs       []int64
}

// servePullResp answers a ServePull with the request's ids in request
// order, and a ServeHotPull with the subsequence of them the head holds.
type servePullResp struct {
	Rows RowBatch
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
	TopK  int
}

type serveHotStatsResp struct {
	Hot []HotKey
}

// ServeServerStats is one server's serving-tier counters.
type ServeServerStats struct {
	Snaps    int   // snapshot generations currently held
	SnapRows int64 // rows served from partition snapshots
	HotRows  int64 // rows served from the replicated hot head
}

func init() {
	serverHandlers["ServeSeed"] = handleNoResp((*Server).serveSeed)
	serverHandlers["ServeInstall"] = handleNoResp((*Server).serveInstall)
	serverHandlers["ServePull"] = handle((*Server).servePull)
	serverHandlers["ServeHotInstall"] = handleNoResp((*Server).serveHotInstall)
	serverHandlers["ServeHotPull"] = handle((*Server).serveHotPull)
	serverHandlers["ServeHotStats"] = handle((*Server).serveHotStats)
	serverHandlers["ServeStats"] = func(s *Server, _ []byte) ([]byte, error) {
		return enc(s.serveStats()), nil
	}
}

// --- server-side state ------------------------------------------------

// serveSnap is one immutable partition snapshot generation. Its row data
// is never mutated after install, so pulls read it without a lock.
type serveSnap struct {
	model     string
	part      int
	snapEpoch int64
	kind      Kind

	// ranged route validation: the partition's route span in the layout
	// the snapshot was published under. An id routing outside it means
	// the reader's layout and this snapshot disagree — rangeMovedMsg,
	// exactly like the mutable path.
	meta   ModelMeta
	lo, hi int64
	ranged bool

	rows    map[int64][]float64 // Embedding / ColumnEmbedding
	initer  rowIniter
	canInit bool

	vec      []float64 // DenseVector
	vlo, vhi int64

	pulls atomic.Int64
	hot   hotCounter
}

// width is the snapshot's row width: the partition's stored columns, or
// 1 for a DenseVector, whose ids are indices.
func (sn *serveSnap) width() int {
	if sn.kind == DenseVector {
		return 1
	}
	return sn.initer.col1 - sn.initer.col0
}

// pullRows serves ids from the snapshot, in request order, as one block.
// Embedding rows absent from the snapshot are materialized
// deterministically, in place.
func (sn *serveSnap) pullRows(ids []int64) (RowBatch, error) {
	w := sn.width()
	data := make([]float64, len(ids)*w)
	for j, id := range ids {
		if sn.ranged {
			if rk := sn.meta.RouteKey(id); rk < sn.lo || rk >= sn.hi {
				return RowBatch{}, fmt.Errorf("%s: serve key %d (route %d) not in [%d,%d) of %s/%d",
					rangeMovedMsg, id, rk, sn.lo, sn.hi, sn.model, sn.part)
			}
		}
		dst := data[j*w : (j+1)*w]
		switch sn.kind {
		case DenseVector:
			if id < sn.vlo || id >= sn.vhi {
				return RowBatch{}, fmt.Errorf("%s: serve index %d not in [%d,%d) of %s/%d",
					rangeMovedMsg, id, sn.vlo, sn.vhi, sn.model, sn.part)
			}
			dst[0] = sn.vec[id-sn.vlo]
		default:
			if row, ok := sn.rows[id]; ok {
				copy(dst, row)
			} else if sn.canInit {
				sn.initer.initRowInto(dst, id)
			} else {
				return RowBatch{}, fmt.Errorf("ps: serve %s/%d: no row %d", sn.model, sn.part, id)
			}
		}
	}
	sn.pulls.Add(int64(len(ids)))
	sn.hot.bump(ids)
	return RowBatch{IDs: ids, Dim: w, Data: data}, nil
}

// hotReplica is the model-wide hot head replicated to this endpoint.
type hotReplica struct {
	snapEpoch int64
	dim       int
	rows      map[int64][]float64 // views of the installed batch's block
}

// serveState is a server's serving-tier store.
type serveState struct {
	mu    sync.Mutex
	snaps map[partKey][]*serveSnap // newest generation first, at most 2
	hot   map[string]*hotReplica

	snapRows atomic.Int64
	hotRows  atomic.Int64
}

// serveGenerations is how many snapshot epochs a server retains per
// partition: the newest plus one predecessor, so clients holding the
// previous serve layout keep reading while a republish rolls out.
const serveGenerations = 2

// --- handlers ---------------------------------------------------------

// serveSeed exports a consistent cut of the partition and installs it on
// every target endpoint. The export runs under the replication write
// gate (exclusive), so an in-flight multi-shard push is either fully in
// the cut or fully out — engine shard locks alone cannot give that,
// because a push locks shards one at a time. The gate is released before
// the installs: once the bytes exist the cut is sealed, and holding the
// gate across N network installs would stall training for the whole
// fan-out.
func (s *Server) serveSeed(req serveSeedReq) error {
	e, err := s.store.get(req.Meta.Name, req.Part)
	if err != nil {
		return err
	}
	s.repl.gate.Lock()
	data := e.checkpointData()
	s.repl.gate.Unlock()
	inst := serveInstallReq{Meta: req.Meta, Part: req.Part, SnapEpoch: req.SnapEpoch, Data: data}
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

// serveInstall decodes and publishes one snapshot generation locally.
func (s *Server) serveInstall(req serveInstallReq) error {
	var snap ckptSnapshot
	if err := dec(req.Data, &snap); err != nil {
		return fmt.Errorf("ps: serve install %s/%d: %w", req.Meta.Name, req.Part, err)
	}
	sn := &serveSnap{
		model:     req.Meta.Name,
		part:      req.Part,
		snapEpoch: req.SnapEpoch,
		kind:      snap.Kind,
		meta:      req.Meta,
	}
	if p, ok := req.Meta.partByID(req.Part); ok && req.Meta.routed() {
		sn.lo, sn.hi, sn.ranged = p.Lo, p.Hi, true
	}
	switch snap.Kind {
	case Embedding, ColumnEmbedding:
		sn.rows = snap.Emb
		if sn.rows == nil {
			sn.rows = map[int64][]float64{}
		}
		col0, col1 := snap.Col0, snap.Col1
		if col1 <= col0 {
			col0, col1 = 0, req.Meta.Dim
		}
		sn.initer = newRowIniter(req.Meta, col0, col1)
		sn.canInit = true
	case DenseVector:
		sn.vec, sn.vlo, sn.vhi = snap.Vec, snap.Lo, snap.Hi
	default:
		return fmt.Errorf("ps: serve install %s/%d: kind %s is not servable", req.Meta.Name, req.Part, snap.Kind)
	}
	k := partKey{model: req.Meta.Name, part: req.Part}
	s.serve.mu.Lock()
	if s.serve.snaps == nil {
		s.serve.snaps = make(map[partKey][]*serveSnap)
	}
	gens := s.serve.snaps[k][:0:0]
	replaced := false
	for _, g := range s.serve.snaps[k] {
		if g.snapEpoch == sn.snapEpoch {
			gens = append(gens, sn) // idempotent re-install
			replaced = true
		} else {
			gens = append(gens, g)
		}
	}
	if !replaced {
		gens = append(gens, sn)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].snapEpoch > gens[j].snapEpoch })
	if len(gens) > serveGenerations {
		gens = gens[:serveGenerations]
	}
	s.serve.snaps[k] = gens
	s.serve.mu.Unlock()
	return nil
}

// servePull answers a read from the snapshot generation the caller's
// serve layout was published under.
func (s *Server) servePull(req servePullReq) (servePullResp, error) {
	k := partKey{model: req.Model, part: req.Part}
	s.serve.mu.Lock()
	gens := s.serve.snaps[k]
	var sn *serveSnap
	for _, g := range gens {
		if g.snapEpoch == req.SnapEpoch {
			sn = g
			break
		}
	}
	s.serve.mu.Unlock()
	if sn == nil {
		if len(gens) == 0 {
			return servePullResp{}, fmt.Errorf("%s for %s/%d on this server", noServeSnapMsg, req.Model, req.Part)
		}
		return servePullResp{}, fmt.Errorf("%s: %s/%d pull at snap epoch %d, server holds %d",
			staleSnapMsg, req.Model, req.Part, req.SnapEpoch, gens[0].snapEpoch)
	}
	rows, err := sn.pullRows(req.IDs)
	if err != nil {
		return servePullResp{}, err
	}
	s.serve.snapRows.Add(int64(len(rows.IDs)))
	return servePullResp{Rows: rows}, nil
}

// serveHotInstall replaces this endpoint's replicated hot head for a
// model. Older generations never overwrite newer ones.
func (s *Server) serveHotInstall(req serveHotInstallReq) error {
	if err := req.Rows.check(); err != nil {
		return fmt.Errorf("ps: hot install of %s: %w", req.Model, err)
	}
	s.serve.mu.Lock()
	defer s.serve.mu.Unlock()
	if s.serve.hot == nil {
		s.serve.hot = make(map[string]*hotReplica)
	}
	if cur, ok := s.serve.hot[req.Model]; ok && cur.snapEpoch > req.SnapEpoch {
		return nil
	}
	s.serve.hot[req.Model] = &hotReplica{snapEpoch: req.SnapEpoch, dim: req.Rows.Dim, rows: req.Rows.Map()}
	return nil
}

// serveHotPull serves the subset of ids present in the replicated hot
// head. Ids not in the head are simply omitted — the client routes them
// through the per-partition snapshot path; absence is not an error.
func (s *Server) serveHotPull(req serveHotPullReq) (servePullResp, error) {
	s.serve.mu.Lock()
	hr := s.serve.hot[req.Model]
	s.serve.mu.Unlock()
	if hr == nil {
		return servePullResp{}, fmt.Errorf("%s: no hot head of %s on this server", noServeSnapMsg, req.Model)
	}
	if hr.snapEpoch != req.SnapEpoch {
		return servePullResp{}, fmt.Errorf("%s: hot pull of %s at snap epoch %d, server holds %d",
			staleSnapMsg, req.Model, req.SnapEpoch, hr.snapEpoch)
	}
	out := RowBatch{
		IDs:  make([]int64, 0, len(req.IDs)),
		Dim:  hr.dim,
		Data: make([]float64, 0, len(req.IDs)*hr.dim),
	}
	for _, id := range req.IDs {
		if row, ok := hr.rows[id]; ok {
			out.IDs = append(out.IDs, id)
			out.Data = append(out.Data, row...)
		}
	}
	s.serve.hotRows.Add(int64(len(out.IDs)))
	return servePullResp{Rows: out}, nil
}

// serveHotStats reports the hottest keys observed by this server's
// newest snapshot generations of a model — the serve-traffic half of the
// hot-set signal (the training half comes from the engine counters via
// PartStats).
func (s *Server) serveHotStats(req serveHotStatsReq) (serveHotStatsResp, error) {
	merged := make(map[int64]int64)
	s.serve.mu.Lock()
	for k, gens := range s.serve.snaps {
		if k.model != req.Model {
			continue
		}
		// All retained generations: publication seeds the new (empty)
		// generation before mining, so the traffic signal lives on the
		// previous one.
		for _, g := range gens {
			for _, hk := range g.hot.top(0) {
				merged[hk.ID] += hk.Count
			}
		}
	}
	s.serve.mu.Unlock()
	var hc hotCounter
	hc.counts = merged
	topK := req.TopK
	if topK <= 0 {
		topK = 256
	}
	return serveHotStatsResp{Hot: hc.top(topK)}, nil
}

// serveStats reports this server's serving-tier counters.
func (s *Server) serveStats() ServeServerStats {
	s.serve.mu.Lock()
	n := 0
	for _, gens := range s.serve.snaps {
		n += len(gens)
	}
	s.serve.mu.Unlock()
	return ServeServerStats{
		Snaps:    n,
		SnapRows: s.serve.snapRows.Load(),
		HotRows:  s.serve.hotRows.Load(),
	}
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

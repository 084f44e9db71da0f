package ps

// Elastic partitions: live splitting, migration, and load-aware
// rebalancing (master planner half here; the engines' export / merge /
// splitAt primitives live in engine_*.go).
//
// Partition identity is the stable Partition.Index, not the slot in the
// Parts slice, so the master can split a hot partition at its range
// midpoint or move a partition to another server without renumbering
// anything the clients or checkpoints refer to. A cutover is fenced the
// same way a failover is:
//
//	1. Under recMu, the master bumps the layout epoch and PUBLISHES the
//	   post-migration layout (narrowed source + new partition for a
//	   split; re-homed partition for a move), with the affected backups
//	   cleared — degraded single-copy mode, honestly counted in
//	   FailoverStats until reseed repairs it.
//	2. The master asks the source server to MigratePart: the source
//	   write-gates mutations (the seedBackup gate), exports the range
//	   with optimizer state and its dedup window, and installs both on
//	   the destination. Only after the destination acknowledged does the
//	   source splitAt/delete — so an aborted migration leaves the source
//	   intact.
//	3. On failure the master rolls the layout edit back (targeted
//	   inverse, so concurrent failover edits survive) and best-effort
//	   drops the half-installed destination partition.
//
// Writes routed from the pre-migration layout are rejected by the epoch
// fence and transparently retried by the client against the new owner
// under the SAME (clientID, seq); a push that was applied at the source
// before the cutover and retried after it replays its cached ack from
// the dedup window the migration transferred — exactly-once holds
// across the move. Reads routed from the post-migration layout before
// the destination installed fail "not on this server" and heal through
// the client's resolve-retry loop.

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"psgraph/internal/dfs"
)

// ---------------------------------------------------------------------------
// Wire messages.

// migratePartReq asks the SOURCE server to hand the route range [Lo, Hi)
// of partition Part to Dest, which installs it under NewPart (== Part
// for a move, a fresh identity for a split). Meta is the post-cutover
// layout the master already published.
type migratePartReq struct {
	Meta    ModelMeta
	Part    int
	NewPart int
	Lo, Hi  int64
	Split   bool
	Dest    string
	Epoch   int64
}

// installPartReq ships partition state to the server that is to hold
// it, together with the sender's dedup window (exactly-once across the
// hand-over): an exported range to a migration destination — with the
// apply counter for whole-partition moves — or, with Replica set, a full
// snapshot and the apply counter to a backup being seeded.
type installPartReq struct {
	Meta    ModelMeta
	Part    int
	Replica bool
	Image   partImage
	Dedup   []dedupExport
	Muts    int64
	Epoch   int64
}

// dropPartReq removes one partition from a server: cleanup of an
// aborted migration's half-installed destination, or of the stray
// replica a moved partition left on its old backup.
type dropPartReq struct {
	Model string
	Part  int
	Epoch int64
}

// partStat is one partition's load sample in a PartStats response.
type partStat struct {
	Model   string
	Part    int
	Replica bool
	Muts    int64
	Bytes   int64
	// Hot is the partition's pull-frequency head (engine counters),
	// mined by the serving tier's hot-key replication (serve.go).
	Hot []HotKey
}

type partStatsResp struct {
	Parts []partStat
}

// partOpReq addresses one explicit split/move request to the master.
// Dest may be "" to let the master pick the least-loaded live server.
type partOpReq struct {
	Model string
	Part  int
	Dest  string
}

type drainReq struct {
	Addr string
}

// ---------------------------------------------------------------------------
// Server half.

func init() {
	serverHandlers["MigratePart"] = entry[*Server]{idempotent, handleNoResp((*Server).migratePart)}
	serverHandlers["InstallPart"] = entry[*Server]{idempotent, handleNoResp((*Server).installPart)}
	serverHandlers["DropPart"] = entry[*Server]{idempotent, handleNoResp((*Server).dropPart)}
	serverHandlers["PartStats"] = entry[*Server]{idempotent, func(s *Server, _ []byte) ([]byte, error) {
		return enc(s.partStats()), nil
	}}
}

// migratePart exports [req.Lo, req.Hi) of a partition this server is
// primary for and installs it on req.Dest, holding the write gate across
// export + install so no mutation can fall between the snapshot and the
// cutover. Nothing is dropped locally unless the destination
// acknowledged, which makes an abort atomic: either the destination has
// everything and the source truncates, or the source still has
// everything and the master rolls the layout back.
//
// The handler is idempotent so the master may retry it through a lost
// ack: a source already narrowed past req.Lo (split) or no longer
// holding the partition (move) completed a previous attempt.
func (s *Server) migratePart(req migratePartReq) error {
	if s.repl.out == nil {
		return fmt.Errorf("ps: migrate %s/%d: server %s has no outbound transport", req.Meta.Name, req.Part, s.Addr)
	}
	s.epochMax(req.Epoch)
	e, err := s.store.get(req.Meta.Name, req.Part)
	if err != nil {
		if !req.Split {
			return nil // already moved by a previous attempt
		}
		return err
	}
	if req.Split {
		if b, ok := e.(interface{ rangeHi() int64 }); ok && b.rangeHi() <= req.Lo {
			return nil // already split by a previous attempt
		}
	}
	s.repl.gate.Lock()
	defer s.repl.gate.Unlock()
	inst := installPartReq{
		Meta:  req.Meta,
		Part:  req.NewPart,
		Image: e.export(req.Lo, req.Hi),
		Dedup: s.dedup.export(),
		Epoch: req.Epoch,
	}
	if !req.Split {
		// A move transfers the apply counter with the partition; a split
		// keeps it at the source (the new partition starts at zero), so the
		// cluster-wide sum — what applied==sent accounting checks — is
		// preserved either way.
		inst.Muts = s.role(req.Meta.Name, req.Part).muts.Load()
	}
	if _, err := s.repl.out.Call(req.Dest, "InstallPart", enc(inst)); err != nil {
		return fmt.Errorf("ps: migrate %s/%d to %s: %w", req.Meta.Name, req.Part, req.Dest, err)
	}
	if req.Split {
		return e.splitAt(req.Lo)
	}
	s.store.deletePart(req.Meta.Name, req.Part)
	s.dropRole(req.Meta.Name, req.Part)
	return nil
}

// installPart installs shipped partition state: a fresh engine under
// req.Meta (so it enforces the post-cutover range) + merge. A migrated
// range merges into the partition when it is already here, which keeps a
// retried install idempotent. A seeded replica REPLACES whatever copy
// was here — after a split or dropped forwards that copy is a stale
// superset — and takes the primary's apply counter, which must stand in
// for the primary's if this replica is promoted. Either way the sender's
// dedup window merges into this server's, so a client retry of a push
// the sender already applied replays its cached ack here.
func (s *Server) installPart(req installPartReq) error {
	s.epochMax(req.Epoch)
	e, err := s.store.get(req.Meta.Name, req.Part)
	if req.Replica || err != nil {
		if e, err = newEngine(req.Meta, req.Part, 0); err != nil {
			return err
		}
	}
	if err := e.merge(req.Image); err != nil {
		return fmt.Errorf("ps: install %s/%d: %w", req.Meta.Name, req.Part, err)
	}
	s.store.put(e)
	r := s.role(req.Meta.Name, req.Part)
	r.replica.Store(req.Replica)
	if req.Replica || req.Muts > 0 {
		r.muts.Store(req.Muts)
	}
	s.dedup.merge(req.Dedup)
	return nil
}

func (s *Server) dropPart(req dropPartReq) error {
	s.epochMax(req.Epoch)
	s.store.deletePart(req.Model, req.Part)
	s.dropRole(req.Model, req.Part)
	return nil
}

// partStats samples every partition's apply counter and resident bytes —
// the per-partition load signal the master's rebalance planner joins
// with the layout.
func (s *Server) partStats() partStatsResp {
	bytes := make(map[partKey]int64)
	hot := make(map[partKey][]HotKey)
	s.store.mu.RLock()
	for model, parts := range s.store.parts {
		for idx, e := range parts {
			bytes[partKey{model, idx}] = e.sizeBytes()
			if ht, ok := e.(interface{ hotTop(int) []HotKey }); ok {
				if hk := ht.hotTop(partStatHotK); len(hk) > 0 {
					hot[partKey{model, idx}] = hk
				}
			}
		}
	}
	s.store.mu.RUnlock()
	var resp partStatsResp
	s.repl.pmu.RLock()
	for k, r := range s.repl.roles {
		b, held := bytes[k]
		if !held {
			continue // role outlived its engine (deleted model)
		}
		resp.Parts = append(resp.Parts, partStat{
			Model:   k.model,
			Part:    k.part,
			Replica: r.replica.Load(),
			Muts:    r.muts.Load(),
			Bytes:   b,
			Hot:     hot[k],
		})
		delete(bytes, k)
	}
	s.repl.pmu.RUnlock()
	// Partitions never pushed to have no role yet; report them at zero.
	for k, b := range bytes {
		resp.Parts = append(resp.Parts, partStat{Model: k.model, Part: k.part, Bytes: b, Hot: hot[k]})
	}
	slices.SortFunc(resp.Parts, func(a, b partStat) int { return cmp.Or(cmp.Compare(a.Model, b.Model), a.Part-b.Part) })
	return resp
}

// ---------------------------------------------------------------------------
// Master half: load report.

// PartLoad is one primary partition's load sample joined with its
// layout entry.
type PartLoad struct {
	Model  string
	Part   int // stable partition identity (Partition.Index)
	Server string
	Backup string
	Lo, Hi int64
	Muts   int64
	Bytes  int64
	// Hot is the partition's pull-frequency head, the training-side
	// signal the serving tier's hot-key replication is seeded from.
	Hot []HotKey
}

// LoadReport is the master's cluster-wide per-partition load view,
// sorted by (model, Lo, Part).
type LoadReport struct {
	Epoch int64
	Parts []PartLoad
}

// loadReport joins every live server's PartStats sample with the
// current layout. Primaries only: replica load mirrors its primary and
// would double-count. Unreachable servers are skipped — a load report
// is a planning signal, not a consistency surface.
func (m *Master) loadReport() LoadReport {
	m.mu.Lock()
	servers := m.liveRingLocked()
	for addr := range m.drained {
		if !m.dead[addr] {
			servers = append(servers, addr) // still serving until its moves finish
		}
	}
	metas := maps.Clone(m.models)
	rep := LoadReport{Epoch: m.epoch}
	m.mu.Unlock()
	stats := make(map[partKey]partStat)
	for _, addr := range servers {
		body, err := m.tr.Call(addr, "PartStats", nil)
		if err != nil {
			continue
		}
		var resp partStatsResp
		if dec(body, &resp) != nil {
			continue
		}
		for _, st := range resp.Parts {
			if st.Replica {
				continue
			}
			stats[partKey{st.Model, st.Part}] = st
		}
	}
	for name, meta := range metas {
		for _, p := range meta.Parts {
			st := stats[partKey{name, p.Index}]
			rep.Parts = append(rep.Parts, PartLoad{
				Model: name, Part: p.Index, Server: p.Server, Backup: p.Backup,
				Lo: p.Lo, Hi: p.Hi, Muts: st.Muts, Bytes: st.Bytes, Hot: st.Hot,
			})
		}
	}
	slices.SortFunc(rep.Parts, func(a, b PartLoad) int {
		return cmp.Or(cmp.Compare(a.Model, b.Model), cmp.Compare(a.Lo, b.Lo), a.Part-b.Part)
	})
	return rep
}

// ---------------------------------------------------------------------------
// Master half: fenced cutover.

// pickDestLocked returns the live, non-drained server owning the fewest
// primary partitions, excluding exclude (may be ""). Callers hold m.mu.
func (m *Master) pickDestLocked(exclude string) string {
	counts := make(map[string]int)
	ring := m.liveRingLocked()
	for _, s := range ring {
		counts[s] = 0
	}
	for _, meta := range m.models {
		for _, p := range meta.Parts {
			if _, ok := counts[p.Server]; ok {
				counts[p.Server]++
			}
		}
	}
	best, bestN := "", -1
	for _, s := range ring {
		if s == exclude {
			continue
		}
		if n := counts[s]; bestN < 0 || n < bestN {
			best, bestN = s, n
		}
	}
	return best
}

// rollbackPart undoes one published migration edit by targeted inverse:
// the slot of id is restored to prev and (for a split) the partition
// addedID is removed. Concurrent edits to other partitions — a
// heartbeat clearing a backup, a failover re-homing a different slot —
// survive untouched.
func (m *Master) rollbackPart(model string, prev Partition, addedID int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	meta, ok := m.models[model]
	if !ok {
		return
	}
	parts := make([]Partition, 0, len(meta.Parts))
	for _, p := range meta.Parts {
		if addedID >= 0 && p.Index == addedID {
			continue
		}
		if p.Index == prev.Index {
			p = prev
		}
		parts = append(parts, p)
	}
	sortParts(parts)
	meta.Parts = parts
	m.models[model] = meta
	m.journalModelLocked(meta)
}

// splitOne splits partition id of model at its range midpoint, homing
// the new upper-half partition on dest (least-loaded server when "").
// Callers hold recMu.
func (m *Master) splitOne(model string, id int, dest string) error {
	m.mu.Lock()
	meta, ok := m.models[model]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("ps: model %q does not exist", model)
	}
	if !meta.routed() {
		m.mu.Unlock()
		return fmt.Errorf("ps: cannot split column-partitioned model %s", model)
	}
	slot := meta.slotByID(id)
	if slot < 0 {
		m.mu.Unlock()
		return fmt.Errorf("ps: model %q has no partition %d", model, id)
	}
	src := meta.Parts[slot]
	if src.Hi-src.Lo < 2 {
		m.mu.Unlock()
		return fmt.Errorf("ps: partition %s/%d range [%d,%d) too narrow to split", model, id, src.Lo, src.Hi)
	}
	if dest == "" {
		dest = m.pickDestLocked("")
	}
	if dest == "" || m.dead[dest] {
		m.mu.Unlock()
		return fmt.Errorf("ps: no destination server for split of %s/%d", model, id)
	}
	mid := src.Lo + (src.Hi-src.Lo)/2
	m.epoch++
	epoch := m.epoch
	newID := meta.NextID
	meta.NextID++
	parts := append([]Partition(nil), meta.Parts...)
	parts[slot].Hi = mid
	parts[slot].Backup = "" // its replica now holds a superset; reseed refreshes it
	parts = append(parts, Partition{Index: newID, Server: dest, Lo: mid, Hi: src.Hi})
	sortParts(parts)
	meta.Parts = parts
	meta.Epoch = epoch
	m.models[model] = meta
	m.journalModelLocked(meta)
	m.mu.Unlock()
	mtrace("split %s/%d at %d -> new part %d on %s, epoch -> %d", model, id, mid, newID, dest, epoch)

	req := migratePartReq{Meta: meta, Part: id, NewPart: newID, Lo: mid, Hi: src.Hi, Split: true, Dest: dest, Epoch: epoch}
	if _, err := m.callWithRetry(src.Server, "MigratePart", enc(req)); err != nil {
		mtrace("split %s/%d aborted: %v", model, id, err)
		m.rollbackPart(model, src, newID)
		m.tr.Call(dest, "DropPart", enc(dropPartReq{Model: model, Part: newID, Epoch: epoch}))
		return fmt.Errorf("ps: split %s/%d: %w", model, id, err)
	}
	m.mu.Lock()
	m.splits++
	m.mu.Unlock()
	m.kickReseed()
	return nil
}

// moveOne migrates partition id of model to dest (least-loaded server
// when ""). Callers hold recMu.
func (m *Master) moveOne(model string, id int, dest string) error {
	m.mu.Lock()
	meta, ok := m.models[model]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("ps: model %q does not exist", model)
	}
	slot := meta.slotByID(id)
	if slot < 0 {
		m.mu.Unlock()
		return fmt.Errorf("ps: model %q has no partition %d", model, id)
	}
	src := meta.Parts[slot]
	if dest == "" {
		dest = m.pickDestLocked(src.Server)
	}
	if dest == src.Server {
		m.mu.Unlock()
		return nil
	}
	if dest == "" || m.dead[dest] {
		m.mu.Unlock()
		return fmt.Errorf("ps: no destination server for move of %s/%d", model, id)
	}
	m.epoch++
	epoch := m.epoch
	parts := append([]Partition(nil), meta.Parts...)
	parts[slot].Server = dest
	parts[slot].Backup = "" // degraded until reseed follows the move
	meta.Parts = parts
	meta.Epoch = epoch
	m.models[model] = meta
	m.journalModelLocked(meta)
	m.mu.Unlock()
	mtrace("move %s/%d: %s -> %s, epoch -> %d", model, id, src.Server, dest, epoch)

	req := migratePartReq{Meta: meta, Part: id, NewPart: id, Lo: src.Lo, Hi: src.Hi, Split: false, Dest: dest, Epoch: epoch}
	if _, err := m.callWithRetry(src.Server, "MigratePart", enc(req)); err != nil {
		mtrace("move %s/%d aborted: %v", model, id, err)
		m.rollbackPart(model, src, -1)
		m.tr.Call(dest, "DropPart", enc(dropPartReq{Model: model, Part: id, Epoch: epoch}))
		return fmt.Errorf("ps: move %s/%d: %w", model, id, err)
	}
	// The old backup's replica no longer tracks anything; drop it so a
	// later reseed installs fresh instead of leaving a stray superset.
	if src.Backup != "" && src.Backup != dest {
		m.tr.Call(src.Backup, "DropPart", enc(dropPartReq{Model: model, Part: id, Epoch: epoch}))
	}
	m.mu.Lock()
	m.moves++
	m.mu.Unlock()
	m.kickReseed()
	return nil
}

// SplitPartition splits partition id of model at its range midpoint and
// homes the new partition on dest ("" picks the least-loaded server).
func (m *Master) SplitPartition(model string, id int, dest string) error {
	m.recMu.Lock()
	defer m.recMu.Unlock()
	return m.splitOne(model, id, dest)
}

// MovePartition migrates partition id of model to dest ("" picks the
// least-loaded server), preserving exactly-once across the move.
func (m *Master) MovePartition(model string, id int, dest string) error {
	m.recMu.Lock()
	defer m.recMu.Unlock()
	return m.moveOne(model, id, dest)
}

// DrainServer moves every primary partition off addr (scale-in): the
// server is excluded from future placement first, then drained one
// partition at a time. It keeps serving — and keeps its lease — until
// the moves complete; the caller decommissions the process afterwards.
func (m *Master) DrainServer(addr string) error {
	m.recMu.Lock()
	defer m.recMu.Unlock()
	m.mu.Lock()
	if !slices.Contains(m.servers, addr) || m.dead[addr] {
		m.mu.Unlock()
		return fmt.Errorf("ps: cannot drain %s: not a live registered server", addr)
	}
	if m.drained == nil {
		m.drained = make(map[string]bool)
	}
	m.drained[addr] = true
	m.journalStateLocked()
	type mv struct {
		model string
		part  int
	}
	var mvs []mv
	for name, meta := range m.models {
		for _, p := range meta.Parts {
			if p.Server == addr {
				mvs = append(mvs, mv{name, p.Index})
			}
		}
	}
	m.mu.Unlock()
	for _, v := range mvs {
		if err := m.moveOne(v.model, v.part, ""); err != nil {
			m.mu.Lock()
			delete(m.drained, addr)
			m.journalStateLocked()
			m.mu.Unlock()
			return fmt.Errorf("ps: drain %s: %w", addr, err)
		}
	}
	mtrace("drained %s: moved %d partitions", addr, len(mvs))
	return nil
}

// ---------------------------------------------------------------------------
// Master half: rebalance planner.

// RebalanceOptions tunes the automatic planner.
type RebalanceOptions struct {
	// SplitFactor: a partition is hot when its load since the last pass
	// exceeds SplitFactor × the mean partition load. Default 2.
	SplitFactor float64
	// MinLoad is the minimum absolute load (mutations since the last
	// pass) before any partition counts as hot. Default 64.
	MinLoad int64
}

// RebalanceResult summarizes one planner pass.
type RebalanceResult struct {
	Moves   int
	Splits  int
	Actions []string
}

// SetRebalanceOptions overrides the planner thresholds.
func (m *Master) SetRebalanceOptions(o RebalanceOptions) {
	m.mu.Lock()
	m.rebOpts = o
	m.mu.Unlock()
}

// Rebalance runs one planner pass over per-partition load deltas since
// the previous pass: servers with no primary partitions (typically
// registered after CreateModel) each receive the hottest partition of a
// multi-partition server, then the hottest partition — if it exceeds the
// hot threshold and is range-splittable — is split at its midpoint with
// the upper half homed on the least-loaded server. At most one split per
// pass keeps cutover disruption bounded; the next pass re-evaluates.
func (m *Master) Rebalance() (RebalanceResult, error) {
	rep := m.loadReport()
	m.recMu.Lock()
	defer m.recMu.Unlock()
	m.mu.Lock()
	opts := m.rebOpts
	opts.SplitFactor, opts.MinLoad = cmp.Or(max(opts.SplitFactor, 0), 2), cmp.Or(max(opts.MinLoad, 0), 64)
	if m.loadPrev == nil {
		m.loadPrev = make(map[string]map[int]int64)
	}
	type cand struct {
		model    string
		part     int
		server   string
		delta    int64
		canSplit bool
	}
	var cands []cand
	serverParts := make(map[string]int)
	var total int64
	for _, pl := range rep.Parts {
		byPart := m.loadPrev[pl.Model]
		if byPart == nil {
			byPart = make(map[int]int64)
			m.loadPrev[pl.Model] = byPart
		}
		delta := pl.Muts - byPart[pl.Part]
		if delta < 0 {
			delta = pl.Muts // counter restarted with the server
		}
		byPart[pl.Part] = pl.Muts
		meta := m.models[pl.Model]
		cands = append(cands, cand{
			model: pl.Model, part: pl.Part, server: pl.Server, delta: delta,
			canSplit: meta.routed() && pl.Hi-pl.Lo >= 2,
		})
		serverParts[pl.Server]++
		total += delta
	}
	ring := m.liveRingLocked()
	m.mu.Unlock()
	if len(cands) == 0 {
		return RebalanceResult{}, nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].delta > cands[j].delta })
	mean := total / int64(len(cands))

	var res RebalanceResult
	moved := make(map[partKey]bool) // partitions already acted on this pass
	for _, s := range ring {
		if serverParts[s] > 0 {
			continue
		}
		// Empty server: hand it the hottest partition of a server that
		// keeps at least one.
		for _, c := range cands {
			if moved[partKey{c.model, c.part}] || c.server == s || serverParts[c.server] <= 1 {
				continue
			}
			if err := m.moveOne(c.model, c.part, s); err != nil {
				mtrace("rebalance: move %s/%d -> %s: %v", c.model, c.part, s, err)
				break
			}
			moved[partKey{c.model, c.part}] = true
			serverParts[c.server]--
			serverParts[s]++
			res.Moves++
			res.Actions = append(res.Actions, fmt.Sprintf("move %s/%d %s -> %s", c.model, c.part, c.server, s))
			break
		}
	}
	threshold := max(opts.MinLoad, int64(opts.SplitFactor*float64(mean)))
	for _, c := range cands {
		if moved[partKey{c.model, c.part}] || !c.canSplit || c.delta <= threshold {
			continue
		}
		m.mu.Lock()
		dest := m.pickDestLocked(c.server)
		m.mu.Unlock()
		if dest == "" {
			dest = c.server // single-server cluster: split in place
		}
		if err := m.splitOne(c.model, c.part, dest); err != nil {
			mtrace("rebalance: split %s/%d: %v", c.model, c.part, err)
			break
		}
		res.Splits++
		res.Actions = append(res.Actions, fmt.Sprintf("split %s/%d -> %s", c.model, c.part, dest))
		break // at most one split per pass
	}
	return res, nil
}

// EnableAutoRebalance runs a planner pass every interval until
// StopAutoRebalance (or forever). Triggered rebalancing is what turns
// the load report into elasticity: a hot shard splits without an
// operator in the loop.
func (m *Master) EnableAutoRebalance(interval time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rebLoop != nil {
		return
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	m.rebLoop = startLoop(interval, func() {
		if _, err := m.Rebalance(); err != nil {
			mtrace("auto-rebalance: %v", err)
		}
	})
}

// StopAutoRebalance halts the automatic planner loop.
func (m *Master) StopAutoRebalance() { m.stopLoop(&m.rebLoop) }

// ---------------------------------------------------------------------------
// Checkpoint layout manifest.

// layoutManifestPath is where a checkpointed model's partition table
// lives in the DFS. A checkpoint taken after a split records the
// post-split table; restoring that checkpoint must restore the table
// too, or partition files and layout would disagree.
func layoutManifestPath(model string) string {
	return fmt.Sprintf("/ps/ckpt/%s/layout", model)
}

func writeLayoutManifest(fs *dfs.FS, meta ModelMeta) error {
	data := append([]byte(nil), enc(getModelResp{Meta: meta})...)
	return fs.WriteFileSummed(layoutManifestPath(meta.Name), data)
}

func readLayoutManifest(fs *dfs.FS, model string) (ModelMeta, bool) {
	if fs == nil || !fs.Exists(layoutManifestPath(model)) {
		return ModelMeta{}, false
	}
	data, err := fs.ReadFileSummed(layoutManifestPath(model))
	if err != nil {
		return ModelMeta{}, false
	}
	var resp getModelResp
	if err := dec(data, &resp); err != nil {
		return ModelMeta{}, false
	}
	return resp.Meta, true
}

// sameRangeStructure reports whether two partition tables agree on
// partition identities and ranges (server homes and backups are
// placement, not structure — failover legitimately changes them after a
// checkpoint, and a restore must not undo a promotion).
func sameRangeStructure(a, b []Partition) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Lo != b[i].Lo || a[i].Hi != b[i].Hi ||
			a[i].Col0 != b[i].Col0 || a[i].Col1 != b[i].Col1 {
			return false
		}
	}
	return true
}

// adoptManifest reconciles a model's in-memory layout with the
// checkpoint's manifest before a restore: when the range structure
// diverged (a split or merge happened after the checkpoint was taken),
// the manifest's structure wins — the partition files on the DFS were
// written under it. Placement is preserved where the partition identity
// survives and is re-homed onto live servers otherwise. Partitions the
// current layout has but the manifest lacks are dropped from the
// servers. Returns the meta to restore under and whether it changed.
// Callers hold recMu.
func (m *Master) adoptManifest(meta ModelMeta) (ModelMeta, bool) {
	m.mu.Lock()
	fs := m.fs
	m.mu.Unlock()
	man, ok := readLayoutManifest(fs, meta.Name)
	if !ok {
		return meta, false
	}
	sortParts(man.Parts)
	if sameRangeStructure(man.Parts, meta.Parts) {
		return meta, false
	}
	m.mu.Lock()
	cur, ok := m.models[meta.Name]
	if !ok {
		m.mu.Unlock()
		return meta, false
	}
	curHome := make(map[int]string, len(cur.Parts))
	for _, p := range cur.Parts {
		curHome[p.Index] = p.Server
	}
	ring := m.liveRingLocked()
	if len(ring) == 0 {
		m.mu.Unlock()
		return meta, false
	}
	adopted := man
	adopted.Parts = append([]Partition(nil), man.Parts...)
	manIDs := make(map[int]bool, len(adopted.Parts))
	for i := range adopted.Parts {
		p := &adopted.Parts[i]
		manIDs[p.Index] = true
		p.Backup = "" // reseed rebuilds replication under the adopted table
		if home, ok := curHome[p.Index]; ok && !m.dead[home] {
			p.Server = home
		} else if m.dead[p.Server] || !m.registeredLocked(p.Server) {
			p.Server = ring[i%len(ring)]
		}
	}
	var strays []Partition
	for _, p := range cur.Parts {
		if !manIDs[p.Index] {
			strays = append(strays, p)
		}
	}
	m.epoch++
	adopted.Epoch = m.epoch
	epoch := m.epoch
	m.models[meta.Name] = adopted
	m.journalModelLocked(adopted)
	m.mu.Unlock()
	mtrace("restore %s: adopted checkpoint layout (%d parts, epoch -> %d)", meta.Name, len(adopted.Parts), epoch)
	for _, p := range strays {
		m.tr.Call(p.Server, "DropPart", enc(dropPartReq{Model: meta.Name, Part: p.Index, Epoch: epoch}))
	}
	m.kickReseed()
	return adopted, true
}

// registeredLocked reports whether addr is a registered server. Callers
// hold m.mu.
func (m *Master) registeredLocked(addr string) bool {
	for _, s := range m.servers {
		if s == addr {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Client wrappers for the elastic control plane.

// LoadReport fetches the master's per-partition load report: every
// primary partition with its apply counter and resident bytes, joined
// against the current layout.
func (c *Client) LoadReport() (LoadReport, error) {
	var rep LoadReport
	err := c.invoke(c.masterAddr, "LoadReport", nil, &rep)
	return rep, err
}

// SplitPartition splits partition id of model at its range midpoint,
// placing the upper half on dest ("" lets the master pick the
// least-loaded server).
func (c *Client) SplitPartition(model string, id int, dest string) error {
	return c.invoke(c.masterAddr, "SplitPartition", partOpReq{Model: model, Part: id, Dest: dest}, nil)
}

// MovePartition moves partition id of model to dest ("" lets the
// master pick).
func (c *Client) MovePartition(model string, id int, dest string) error {
	return c.invoke(c.masterAddr, "MovePartition", partOpReq{Model: model, Part: id, Dest: dest}, nil)
}

// DrainServer migrates every primary partition off addr and excludes it
// from future placements — scale-in without losing a single update.
func (c *Client) DrainServer(addr string) error {
	return c.invoke(c.masterAddr, "DrainServer", drainReq{Addr: addr}, nil)
}

package ps

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"psgraph/internal/dfs"
	"psgraph/internal/rpc"
)

var psTrace = os.Getenv("PSG_TRACE") != ""

func mtrace(format string, args ...any) {
	if psTrace {
		fmt.Fprintf(os.Stderr, "[%d] master: "+format+"\n", append([]any{time.Now().UnixMicro()}, args...)...)
	}
}

// Master is the control plane of the parameter server (Sec. III-B):
// it allocates model partitions over servers, answers layout queries,
// keeps the SSP clock rings (BSP is staleness 0), holds the servers'
// heartbeat leases, and drives recovery when a lease expires.
type Master struct {
	Addr string

	tr rpc.Transport
	fs *dfs.FS

	mu         sync.Mutex
	servers    []string
	models     map[string]ModelMeta
	recoveries int64

	// clocks holds the SSP vector clocks (clock.go).
	clocks *clockTable

	// Live-failover state (failover.go): the current layout epoch,
	// whether primary/backup replication is on, per-server heartbeat
	// lease timestamps, the set of servers declared dead, and the
	// promotion/reseed counters surfaced by FailoverStats.
	epoch      int64
	replicate  bool
	leases     map[string]time.Time
	dead       map[string]bool
	promotions int64
	reseeds    int64
	leaseDur   time.Duration
	leaseLoop  *loop
	// dropSeen is the last dropped-forward count each server reported in
	// a heartbeat; an increase marks its replicas stale (failover.go).
	// reseedQueued coalesces concurrent reseed triggers into one pass.
	dropSeen     map[string]int64
	reseedQueued bool

	// Elastic-partition state (elastic.go): servers being drained for
	// scale-in (excluded from placement but still serving), completed
	// split/move counters, the per-partition load baseline of the last
	// rebalance pass, planner thresholds, and the auto-rebalance loop.
	drained  map[string]bool
	splits   int64
	moves    int64
	loadPrev map[string]map[int]int64
	rebOpts  RebalanceOptions
	rebLoop  *loop

	// Serving-tier state (serve_master.go): options and the current
	// published serving generation per model.
	serveOpts    ServeOptions
	serveLayouts map[string]ServeLayout

	// Durable-metadata state (masterwal.go): the open metadata WAL (nil
	// until EnableWAL) and the end of the post-restart grace window
	// during which expired leases do not trigger failover.
	wal        *dfs.WAL
	graceUntil time.Time

	// dedup replays retried control-plane mutations (CreateModel,
	// Checkpoint, SplitPartition...) from their cached acks — the same
	// exactly-once window the servers keep for pushes.
	dedup *dedupTable

	// recMu serializes server recovery against model checkpoints. A
	// checkpoint that interleaves with a recovery can publish a mixed
	// snapshot set (some partitions from before the restore, some after)
	// which the consistent-recovery rollback would then trust; holding
	// recMu across the whole of either operation makes that impossible.
	recMu sync.Mutex

	// restart recreates a server process at the given address after a
	// failure, re-registering its RPC handler. Provided by the Cluster.
	restart func(addr string) error
	// pending holds the addresses whose recovery has not completed: dead
	// ones still to be restarted (or reassigned), and live ones whose
	// partitions still have to be restored. Every detector tick retries
	// them (recoverPending).
	pending map[string]bool

	// ckptLoop snapshots every model periodically (SetCheckpointInterval).
	ckptLoop *loop
}

// NewMaster creates a master reachable at addr over tr.
func NewMaster(addr string, tr rpc.Transport) *Master {
	return &Master{
		Addr:     addr,
		tr:       tr,
		models:   make(map[string]ModelMeta),
		clocks:   newClockTable(),
		dedup:    newDedupTable(),
		leases:   make(map[string]time.Time),
		dead:     make(map[string]bool),
		pending:  make(map[string]bool),
		dropSeen: make(map[string]int64),
	}
}

// SetRestartFunc installs the server-restart callback used by recovery.
func (m *Master) SetRestartFunc(f func(addr string) error) {
	m.mu.Lock()
	m.restart = f
	m.mu.Unlock()
}

// SetFS hands the master the checkpoint DFS so fenced checkpoints can
// publish (rename) prepared snapshots without going through a server
// that may die mid-checkpoint. Without it, CheckpointModels falls back
// to server-side single-shot checkpoints.
func (m *Master) SetFS(fs *dfs.FS) {
	m.mu.Lock()
	m.fs = fs
	m.mu.Unlock()
}

// Handle dispatches one RPC. It is the rpc.Handler of the master. A once
// method's tagSeqE envelope routes through the dedup window (dedup.go).
func (m *Master) Handle(method string, body []byte) ([]byte, error) {
	clientID, seq, _, payload, ok := unwrapDedup(body)
	e, err := entryOf(masterHandlers, "master", method, ok)
	if err != nil {
		return nil, err
	}
	if !ok {
		return e.run(m, body)
	}
	return m.dedup.handle(clientID, seq, false, func(bool) ([]byte, error) {
		return e.run(m, payload)
	})
}

// masterHandlers is the method dispatch table of the master: the one
// place that binds a wire request to its retry class and the method
// serving it.
var masterHandlers = map[string]entry[*Master]{
	"Ping": {idempotent, func(*Master, []byte) ([]byte, error) { return nil, nil }},
	"RegisterServer": {idempotent, handleNoResp(func(m *Master, r registerServerReq) error {
		return m.registerServer(r.Addr)
	})},
	"CreateModel": {once, handle(func(m *Master, r createModelReq) (getModelResp, error) {
		meta, err := m.createModel(r.Meta)
		return getModelResp{Meta: meta}, err
	})},
	"GetModel":    {idempotent, handle((*Master).getModel)},
	"DeleteModel": {once, handleNoResp(func(m *Master, r modelNameReq) error { return m.deleteModel(r.Name) })},
	"Heartbeat": {idempotent, handle(func(m *Master, r heartbeatReq) (heartbeatResp, error) {
		return m.heartbeat(r), nil
	})},
	"FailoverStats": {idempotent, func(m *Master, _ []byte) ([]byte, error) { return enc(m.failoverStats()), nil }},
	"RecoveryCount": {idempotent, func(m *Master, _ []byte) ([]byte, error) { return enc(m.recoveryCount()), nil }},
	"LoadReport":    {idempotent, func(m *Master, _ []byte) ([]byte, error) { return enc(m.loadReport()), nil }},
	"Rebalance": {once, func(m *Master, _ []byte) ([]byte, error) {
		res, err := m.Rebalance()
		if err != nil {
			return nil, err
		}
		return enc(res), nil
	}},
	"SplitPartition": {once, handleNoResp(func(m *Master, r partOpReq) error {
		return m.SplitPartition(r.Model, r.Part, r.Dest)
	})},
	"MovePartition": {once, handleNoResp(func(m *Master, r partOpReq) error {
		return m.MovePartition(r.Model, r.Part, r.Dest)
	})},
	"DrainServer": {once, handleNoResp(func(m *Master, r drainReq) error { return m.DrainServer(r.Addr) })},
	"PublishSnapshot": {once, handle(func(m *Master, r modelNameReq) (ServeLayout, error) {
		return m.PublishSnapshot(r.Name)
	})},
	"GetServeLayout": {idempotent, handle(func(m *Master, r modelNameReq) (ServeLayout, error) {
		return m.GetServeLayout(r.Name)
	})},
	"ClockWait":   {idempotent, handleNoResp(func(m *Master, r clockReq) error { return m.clocks.wait(r) })},
	"ClockRetire": {idempotent, handleNoResp(func(m *Master, r clockReq) error { m.clocks.retire(r); return nil })},
	"Checkpoint":  {once, handleNoResp(func(m *Master, r modelNameReq) error { return m.checkpointModel(r.Name) })},
	"CheckpointModels": {once, handle(func(m *Master, r ckptModelsReq) (ckptModelsResp, error) {
		raced, err := m.checkpointModels(r.Names, r.IfRecoveries)
		return ckptModelsResp{Raced: raced}, err
	})},
	"RestoreModels": {once, handleNoResp(func(m *Master, r restoreModelsReq) error { return m.restoreModels(r.Names) })},
}

func (m *Master) getModel(req modelNameReq) (getModelResp, error) {
	m.mu.Lock()
	meta, ok := m.models[req.Name]
	// Stamp the layout with the CURRENT epoch, not the epoch of the
	// model's last mutation: servers fence against their global learned
	// epoch, so a refetched layout must always carry a value no server
	// considers stale — otherwise a client could loop on ErrStaleEpoch
	// forever.
	meta.Epoch = m.epoch
	m.mu.Unlock()
	if !ok {
		return getModelResp{}, fmt.Errorf("ps: model %q does not exist", req.Name)
	}
	return getModelResp{Meta: meta}, nil
}

func (m *Master) recoveryCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recoveries
}

func (m *Master) createModel(meta ModelMeta) (ModelMeta, error) {
	m.mu.Lock()
	if _, exists := m.models[meta.Name]; exists {
		m.mu.Unlock()
		return ModelMeta{}, fmt.Errorf("ps: model %q already exists", meta.Name)
	}
	servers := m.liveRingLocked()
	replicate := m.replicate
	meta.Epoch = m.epoch
	m.mu.Unlock()
	if len(servers) == 0 {
		return ModelMeta{}, fmt.Errorf("ps: no servers registered")
	}
	meta = layout(meta, servers)
	if replicate && len(servers) > 1 {
		// Each partition's backup is the ring successor of its primary.
		// One forward target per server (not per partition) keeps the
		// primary's forwarding decision O(1), and co-located partitions
		// share a backup — so psFuncs that read across partitions see the
		// same co-location on the replica side.
		next := make(map[string]string, len(servers))
		for i, s := range servers {
			next[s] = servers[(i+1)%len(servers)]
		}
		for i := range meta.Parts {
			meta.Parts[i].Backup = next[meta.Parts[i].Server]
		}
		// Point every primary at its forward target before any partition
		// exists: the first mutation after CreateModel must already be
		// mirrored, or a failover right after it would lose an acked write.
		for s, b := range next {
			if _, err := m.tr.Call(s, "SetBackup", enc(setBackupReq{Addr: b, Epoch: meta.Epoch})); err != nil {
				return ModelMeta{}, fmt.Errorf("ps: set backup of %s: %w", s, err)
			}
		}
	}
	for _, part := range meta.Parts {
		// Partitions are addressed by their stable identity (Partition.Index),
		// which a later split or migration preserves — not by slot.
		body := enc(createPartReq{Meta: meta, Part: part.Index})
		if _, err := m.tr.Call(part.Server, "CreatePart", body); err != nil {
			return ModelMeta{}, fmt.Errorf("ps: create partition %d on %s: %w", part.Index, part.Server, err)
		}
		if part.Backup != "" {
			body := enc(createPartReq{Meta: meta, Part: part.Index, Replica: true})
			if _, err := m.tr.Call(part.Backup, "CreatePart", body); err != nil {
				return ModelMeta{}, fmt.Errorf("ps: create replica %d on %s: %w", part.Index, part.Backup, err)
			}
		}
	}
	m.mu.Lock()
	m.models[meta.Name] = meta
	m.journalModelLocked(meta)
	m.mu.Unlock()
	return meta, nil
}

// deleteModel drops a model from the layout, from every server, and from
// the DFS: its checkpoint generations, staging files, layout manifest and
// serve manifest go with it, or a later model of the same name would
// restore a dead model's state and ranges. It holds recMu so no
// checkpoint or recovery of the model can interleave and write them back.
func (m *Master) deleteModel(name string) error {
	m.recMu.Lock()
	defer m.recMu.Unlock()
	m.mu.Lock()
	_, ok := m.models[name]
	delete(m.models, name)
	delete(m.serveLayouts, name)
	if ok {
		m.journalModelDeleteLocked(name)
	}
	// Broadcast to every live server, not only the primaries: with
	// replication on, backups hold replica partitions of the model too.
	servers := m.liveRingLocked()
	fs := m.fs
	m.mu.Unlock()
	if !ok {
		return nil
	}
	for _, s := range servers {
		m.tr.Call(s, "DeleteModel", enc(modelNameReq{Name: name}))
	}
	if fs != nil {
		fs.DeletePrefix(fmt.Sprintf("/ps/ckpt/%s/", name))
		fs.DeletePrefix(fmt.Sprintf("/ps/serve/%s/", name))
	}
	return nil
}

// callWithRetry calls a server, waiting out transient unreachability (a
// server being restarted by this master's own recovery path).
func (m *Master) callWithRetry(addr, method string, body []byte) ([]byte, error) {
	retry := rpc.NewBackoff(5*time.Millisecond, 200*time.Millisecond, 10*time.Second)
	return retry.Call(m.tr, addr, method, body)
}

// retryBudget is how long a recovery or checkpoint call rides out an
// unreachable server: one lease, or 10 s without leases. A server silent
// for longer is dead, and waiting on it only delays its recovery.
func (m *Master) retryBudget() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.leaseDur > 0 {
		return m.leaseDur
	}
	return 10 * time.Second
}

// metasLocked returns the current layouts of the named models. Callers
// hold m.mu.
func (m *Master) metasLocked(names []string) ([]ModelMeta, error) {
	metas := make([]ModelMeta, 0, len(names))
	for _, name := range names {
		meta, ok := m.models[name]
		if !ok {
			return nil, fmt.Errorf("ps: model %q does not exist", name)
		}
		metas = append(metas, meta)
	}
	return metas, nil
}

// checkpointModel asks every partition's server to snapshot.
func (m *Master) checkpointModel(name string) error {
	raced, err := m.checkpointModels([]string{name}, -1)
	if err == nil && raced {
		err = fmt.Errorf("ps: checkpoint %s: raced with a server recovery", name)
	}
	return err
}

// checkpointModels snapshots a set of models as one atomic unit. It
// holds recMu for the duration, so it can never interleave with a server
// recovery, and when fence >= 0 it refuses to run (returning raced=true,
// with the previous checkpoint set untouched) if the recovery counter no
// longer matches — closing the window where a recovery lands after the
// driver's detection read but before its checkpoint writes.
//
// The snapshot itself is two-phase: every partition of every model first
// stages its encoded state next to the live checkpoint (CkptPrepare),
// and only when all stages succeed does the master publish them with
// local DFS renames. A stage is idempotent, so an unreachable server is
// retried for about one lease (retryBudget): a lost reply from a live
// server costs a retry, not a rolled-back iteration. Only a server still
// unreachable then aborts the checkpoint (raced=true) — recovery, excluded
// by recMu, could never restart it while the checkpoint waited longer.
func (m *Master) checkpointModels(names []string, fence int64) (raced bool, err error) {
	m.recMu.Lock()
	defer m.recMu.Unlock()
	m.mu.Lock()
	count := m.recoveries
	fs := m.fs
	metas, err := m.metasLocked(names)
	m.mu.Unlock()
	if err != nil {
		return false, err
	}
	if fence >= 0 && count != fence {
		mtrace("checkpoint %v fenced off: recoveries %d != %d", names, count, fence)
		return true, nil
	}
	// A manually wired master without a DFS handle cannot publish, so its
	// servers checkpoint single-shot — still serialized against recovery.
	stage := "CkptPrepare"
	if fs == nil {
		stage = "Checkpoint"
	}
	budget := m.retryBudget()
	for _, meta := range metas {
		for _, p := range meta.Parts {
			retry := rpc.NewBackoff(5*time.Millisecond, 200*time.Millisecond, budget)
			if _, err := retry.Call(m.tr, p.Server, stage, enc(ckptReq{Model: meta.Name, Part: p.Index})); err != nil {
				if errors.Is(err, rpc.ErrUnreachable) {
					mtrace("checkpoint %v aborted: %s unreachable", names, p.Server)
					return true, nil
				}
				return false, fmt.Errorf("ps: checkpoint %s partition %d: %w", meta.Name, p.Index, err)
			}
		}
	}
	if fs == nil {
		return false, nil
	}
	for _, meta := range metas {
		for _, p := range meta.Parts {
			if err := publishCheckpoint(fs, meta.Name, p.Index); err != nil {
				return false, fmt.Errorf("ps: publish checkpoint %s partition %d: %w", meta.Name, p.Index, err)
			}
			mtrace("checkpointed %s/%d", meta.Name, p.Index)
		}
		// Record the partition table the files were written under: a
		// checkpoint taken after a split must restore post-split, and one
		// taken before must roll the table back along with the data.
		if err := writeLayoutManifest(fs, meta); err != nil {
			return false, fmt.Errorf("ps: write layout manifest of %s: %w", meta.Name, err)
		}
	}
	return false, nil
}

// restoreParts restores the partitions of one model that keep selects
// (nil selects all; ConsistentRecovery models always restore whole) from
// the checkpoint generation prev selects. The restore lands on the
// partition's CURRENT server per meta — which is how a reassigned
// partition comes back on its new home. Each Restore rides out an
// unreachable server for at most budget.
func (m *Master) restoreParts(meta ModelMeta, keep func(Partition) bool, prev bool, budget time.Duration) error {
	for _, p := range meta.Parts {
		if keep != nil && !keep(p) && !meta.ConsistentRecovery {
			continue
		}
		body := enc(restoreReq{Meta: meta, Part: p.Index, Prev: prev})
		retry := rpc.NewBackoff(5*time.Millisecond, 200*time.Millisecond, budget)
		if _, err := retry.Call(m.tr, p.Server, "Restore", body); err != nil {
			return fmt.Errorf("ps: restore %s/%d on %s: %w", meta.Name, p.Index, p.Server, err)
		}
	}
	return nil
}

// restoreUnit is the restore ladder: the partitions keep selects come
// back from the latest checkpoint generation, and if any latest file is
// corrupt or torn, EVERY partition of every model in the unit comes back
// from the previous generation instead — memory never mixes two fences,
// even for partitions whose server stayed alive. A unit is one model on
// the recovery path and the caller's whole set for RestoreModels.
func (m *Master) restoreUnit(metas []ModelMeta, keep func(Partition) bool, budget time.Duration) error {
	var latestErr error
	for _, meta := range metas {
		if latestErr = m.restoreParts(meta, keep, false, budget); latestErr != nil {
			break
		}
	}
	if latestErr == nil || !isCorruptCheckpointErr(latestErr) {
		return latestErr
	}
	mtrace("restore: latest generation corrupt (%v), falling back to previous", latestErr)
	for _, meta := range metas {
		if err := m.restoreParts(meta, nil, true, budget); err != nil {
			return fmt.Errorf("%w (previous-generation fallback also failed: %v)", latestErr, err)
		}
	}
	return nil
}

// restoreModels rolls every partition of the named models back to a
// checkpoint, as one unit: all partitions from the latest generation,
// or — if any latest file is corrupt or torn — ALL partitions from the
// previous generation, never a mix of fences. Drivers of
// consistency-critical algorithms call this after observing a recovery
// to discard updates that raced with the restore.
func (m *Master) restoreModels(names []string) error {
	m.mu.Lock()
	metas, err := m.metasLocked(names)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	// Reconcile each model's layout with its checkpoint manifest first:
	// when a split or migration happened after the checkpoint was taken,
	// the partition files on the DFS were written under the manifest's
	// table and must be restored under it. Adoption is a layout edit and
	// holds recMu so it serializes with recoveries and checkpoints — but
	// only the adoption: the restore RPCs below must run outside recMu,
	// or a restore addressed at a dead server would block the very
	// recovery that restarts it.
	m.recMu.Lock()
	for i := range metas {
		if adopted, changed := m.adoptManifest(metas[i]); changed {
			metas[i] = adopted
		}
	}
	m.recMu.Unlock()
	return m.restoreUnit(metas, nil, 10*time.Second)
}

// SetCheckpointInterval snapshots every model each d, on a ticker of its
// own ("each parameter server periodically stores the local data
// partition to HDFS", Sec. III-A); d <= 0 stops it, waiting out a
// checkpoint in flight.
func (m *Master) SetCheckpointInterval(d time.Duration) {
	m.stopLoop(&m.ckptLoop)
	if d > 0 {
		m.mu.Lock()
		m.ckptLoop = startLoop(d, m.checkpointAll)
		m.mu.Unlock()
	}
}

// checkpointAll snapshots every model. Best effort: a failed snapshot of
// one model must not stop the others; the next tick retries.
func (m *Master) checkpointAll() {
	m.mu.Lock()
	names := make([]string, 0, len(m.models))
	for name := range m.models {
		names = append(names, name)
	}
	m.mu.Unlock()
	for _, name := range names {
		_ = m.checkpointModel(name)
	}
}

// loop is one of the master's background tickers (lease checker,
// periodic checkpoints, auto-rebalance).
type loop struct{ stop, done chan struct{} }

// startLoop runs tick every interval until the loop is stopped.
func startLoop(every time.Duration, tick func()) *loop {
	l := &loop{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
				tick()
			}
		}
	}()
	return l
}

// stopLoop halts the loop *l, if one runs, and waits out its tick in
// flight.
func (m *Master) stopLoop(l **loop) {
	m.mu.Lock()
	cur := *l
	*l = nil
	m.mu.Unlock()
	if cur != nil {
		close(cur.stop)
		<-cur.done
	}
}

// recoverPending recovers every pending address as one batch (Sec.
// III-B: restart, then restore from checkpoint). Dead addresses are all
// restarted first — or, with no restart hook, their partitions are
// reassigned to the survivors — and only then is anything restored: each
// model once, a ConsistentRecovery model whole, however many servers the
// batch holds. recoveries moves when the batch starts restoring, so a
// driver rolls back even when a restore then fails; a failed batch stays
// pending for the next tick. A Restore gives up after about one lease, so
// a server that died mid-batch costs that long and joins a later batch
// when its own lease expires. Caller holds recMu, so recovery never
// interleaves with a checkpoint. It returns the addresses recovered.
func (m *Master) recoverPending() ([]string, error) {
	budget := m.retryBudget()
	m.mu.Lock()
	restart := m.restart
	var dead, up, gone []string
	for _, s := range m.servers {
		switch {
		case !m.pending[s]:
		case !m.dead[s]:
			up = append(up, s) // restarted or rejoined; its restore is outstanding
		case restart == nil:
			gone = append(gone, s)
		default:
			dead = append(dead, s)
		}
	}
	m.mu.Unlock()
	for _, addr := range dead {
		err := restart(addr)
		if err != nil && !errors.Is(err, errStillLive) {
			mtrace("restart %s: %v", addr, err)
			continue
		}
		m.mu.Lock()
		// The address is back in the ring. A refused restart means the
		// process never died: its memory is intact and needs no restore.
		delete(m.dead, addr)
		if m.leaseLoop != nil {
			m.leases[addr] = time.Now()
		}
		if err != nil {
			delete(m.pending, addr)
		} else {
			up = append(up, addr)
		}
		m.journalStateLocked()
		m.mu.Unlock()
	}
	moved, err := m.reassign(gone)
	if err != nil {
		return nil, err
	}
	if len(up)+len(moved) > 0 {
		m.mu.Lock()
		m.recoveries++
		m.journalStateLocked()
		mtrace("recovering %v, reassigning %v: recoveries -> %d", up, gone, m.recoveries)
		models := make([]ModelMeta, 0, len(m.models))
		for _, meta := range m.models {
			models = append(models, meta)
		}
		m.mu.Unlock()
		for _, meta := range models {
			onto := moved[meta.Name]
			keep := func(p Partition) bool { return onto[p.Index] || slices.Contains(up, p.Server) }
			if len(onto) == 0 {
				if adopted, changed := m.adoptManifest(meta); changed {
					// The checkpoint was taken under a different partition
					// table (pre-split, say): every partition must come back
					// from it, or ranges would mix two layouts.
					meta, keep = adopted, nil
				}
			}
			if err := m.restoreUnit([]ModelMeta{meta}, keep, budget); err != nil {
				return nil, err
			}
		}
	}
	done := append(up, gone...)
	m.mu.Lock()
	for _, addr := range done {
		delete(m.pending, addr)
	}
	m.mu.Unlock()
	return done, nil
}

// registerServer is the join AND rejoin path. A new address joins the
// ring; a re-registration of an address the master had declared dead is
// the crash-restart rejoin (clear the mark, reseed replication around
// it). The subtle case is a re-registration of an address the master
// still believes is ALIVE: the process behind it crashed and was
// relaunched faster than failure detection could notice, so the new
// incarnation is empty while the layout still routes its old partitions
// to it. The master must run the same ladder a lease expiry would —
// promote those partitions onto their backups (replicated mode) or
// restore them from checkpoints onto the relaunched process (checkpoint
// mode) — BEFORE welcoming the address back, or every push to those
// partitions would chase a layout that points at empty state forever.
func (m *Master) registerServer(addr string) error {
	m.mu.Lock()
	known := false
	for _, s := range m.servers {
		if s == addr {
			known = true
			break
		}
	}
	wasDead := m.dead[addr]
	replicate := m.replicate
	fs := m.fs
	m.mu.Unlock()

	if known && !wasDead {
		if replicate {
			// failover is idempotent against the lease checker racing this
			// same conclusion: whoever marks the address dead first runs
			// the promotions, the other is a no-op.
			m.failover([]string{addr})
			wasDead = true
		} else if fs != nil {
			m.mu.Lock()
			m.pending[addr] = true
			m.mu.Unlock()
			if _, err := m.failover(nil); err != nil {
				return fmt.Errorf("ps: restore rejoined %s: %w", addr, err)
			}
		}
	}

	m.mu.Lock()
	// A crash-restarted process re-registers under the address it
	// already holds; appending blindly would double-count it in every
	// ring walk and placement round-robin.
	if !known {
		dup := false
		for _, s := range m.servers {
			if s == addr {
				dup = true
				break
			}
		}
		if !dup {
			m.servers = append(m.servers, addr)
		}
	}
	// A returning server starts with a clean slate: if it was drained
	// out before, registering again opts it back into placements, and
	// if it was declared dead by a lease expiry, registration IS the
	// rejoin — the relaunched process has a fresh engine and a live
	// listener, so it goes back into the ring.
	delete(m.drained, addr)
	delete(m.dead, addr)
	// Seed the lease of a late-registered server (mirroring what
	// EnableLeases does for pre-registered ones): without an entry the
	// checker would skip it, and a server whose heartbeats never arrive
	// would silently escape lease-based failure detection.
	if m.leaseLoop != nil {
		m.leases[addr] = time.Now()
	}
	m.journalStateLocked()
	m.mu.Unlock()
	// Under replication the ring just changed shape: re-point backups
	// so the joiner both protects its ring-next and is protected. The
	// reseed is the same background ladder a failover uses, so a rejoin
	// mid-promotion serializes behind it instead of racing it.
	if replicate && (wasDead || !known) {
		m.kickReseed()
	}
	return nil
}

// reassign moves the partitions of the dead addresses round-robin onto
// the surviving ring and returns the moved partition ids per model, for
// the restore. It is the recovery when no restart hook is configured:
// a real crashed process can only be relaunched by an external
// supervisor, and it rejoins under RegisterServer with a fresh engine, so
// waiting for an in-place restart would stall recovery forever.
// Checkpoint manifests are NOT adopted for moved models: a manifest
// records the partition table of checkpoint time, which still names the
// dead address. Caller holds recMu.
func (m *Master) reassign(gone []string) (map[string]map[int]bool, error) {
	if len(gone) == 0 {
		return nil, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ring := m.liveRingLocked()
	if len(ring) == 0 {
		return nil, fmt.Errorf("ps: no live servers left to take over partitions of %v", gone)
	}
	dead := make(map[string]bool, len(gone))
	for _, s := range gone {
		dead[s] = true
	}
	m.epoch++
	moved := map[string]map[int]bool{}
	rr := 0
	for name, meta := range m.models {
		parts := append([]Partition(nil), meta.Parts...)
		changed := false
		for i := range parts {
			switch {
			case dead[parts[i].Server]:
				parts[i].Server = ring[rr%len(ring)]
				rr++
				parts[i].Backup = ""
				if moved[name] == nil {
					moved[name] = map[int]bool{}
				}
				moved[name][parts[i].Index] = true
				changed = true
			case dead[parts[i].Backup]:
				parts[i].Backup = ""
				changed = true
			}
		}
		if changed {
			meta.Parts = parts
			meta.Epoch = m.epoch
			m.models[name] = meta
			m.journalModelLocked(meta)
		}
	}
	m.journalStateLocked()
	return moved, nil
}

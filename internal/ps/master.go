package ps

import (
	"errors"
	"fmt"
	"os"
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
// keeps the SSP clock rings (BSP is staleness 0), monitors server health,
// and drives recovery when a server dies.
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
	stopLeases chan struct{}
	leaseDone  chan struct{}
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
	rebStop  chan struct{}
	rebDone  chan struct{}

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

	// checkpointEvery, when positive, makes the monitor loop snapshot
	// every model periodically ("each parameter server periodically
	// stores the local data partition to HDFS", Sec. III-A).
	checkpointEvery time.Duration
	lastCheckpoint  time.Time

	stopMonitor chan struct{}
	monitorDone chan struct{}
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
// local DFS renames. Server calls are made without retry: a dead server
// aborts the checkpoint fast (raced=true) instead of blocking on a
// restart that recovery — excluded by recMu — could never deliver.
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
	for _, meta := range metas {
		for _, p := range meta.Parts {
			if _, err := m.tr.Call(p.Server, stage, enc(ckptReq{Model: meta.Name, Part: p.Index})); err != nil {
				if errors.Is(err, rpc.ErrUnreachable) {
					mtrace("checkpoint %v aborted: %s unreachable", names, p.Server)
					return true, nil
				}
				return false, fmt.Errorf("ps: checkpoint %s partition %d: %w", meta.Name, p.Index, err)
			}
		}
	}
	if fs == nil {
		m.maybeAutoPublishLocked(metas)
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
	m.maybeAutoPublishLocked(metas)
	return false, nil
}

// restoreParts restores the partitions of one model that keep selects
// (nil selects all; ConsistentRecovery models always restore whole) from
// the checkpoint generation prev selects. The restore lands on the
// partition's CURRENT server per meta — which is how a reassigned
// partition comes back on its new home.
func (m *Master) restoreParts(meta ModelMeta, keep func(Partition) bool, prev bool) error {
	for _, p := range meta.Parts {
		if keep != nil && !keep(p) && !meta.ConsistentRecovery {
			continue
		}
		body := enc(restoreReq{Meta: meta, Part: p.Index, Prev: prev})
		if _, err := m.callWithRetry(p.Server, "Restore", body); err != nil {
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
// the recovery paths and the caller's whole set for RestoreModels.
func (m *Master) restoreUnit(metas []ModelMeta, keep func(Partition) bool) error {
	var latestErr error
	for _, meta := range metas {
		if latestErr = m.restoreParts(meta, keep, false); latestErr != nil {
			break
		}
	}
	if latestErr == nil || !isCorruptCheckpointErr(latestErr) {
		return latestErr
	}
	mtrace("restore: latest generation corrupt (%v), falling back to previous", latestErr)
	for _, meta := range metas {
		if err := m.restoreParts(meta, nil, true); err != nil {
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
	return m.restoreUnit(metas, nil)
}

// StartMonitor begins periodic health checking of the servers. On a
// failed ping the master restarts the server via the restart callback and
// restores its partitions from the latest checkpoints; models flagged
// ConsistentRecovery are restored on *every* server so partitions stay
// mutually consistent (Sec. III-B).
func (m *Master) StartMonitor(interval time.Duration) {
	m.mu.Lock()
	if m.stopMonitor != nil {
		m.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.stopMonitor = stop
	m.monitorDone = done
	m.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.CheckServers()
				m.maybeCheckpointAll()
			}
		}
	}()
}

// SetCheckpointInterval enables periodic checkpointing of every model
// from the monitor loop (which must be running).
func (m *Master) SetCheckpointInterval(d time.Duration) {
	m.mu.Lock()
	m.checkpointEvery = d
	m.lastCheckpoint = time.Now()
	m.mu.Unlock()
}

// maybeCheckpointAll snapshots every model when the checkpoint interval
// has elapsed.
func (m *Master) maybeCheckpointAll() {
	m.mu.Lock()
	due := m.checkpointEvery > 0 && time.Since(m.lastCheckpoint) >= m.checkpointEvery
	if due {
		m.lastCheckpoint = time.Now()
	}
	var names []string
	if due {
		for name := range m.models {
			names = append(names, name)
		}
	}
	m.mu.Unlock()
	for _, name := range names {
		// Best effort: a failed snapshot of one model must not stop the
		// others; the next interval retries.
		_ = m.checkpointModel(name)
	}
}

// StopMonitor halts the health-check loop.
func (m *Master) StopMonitor() {
	m.mu.Lock()
	stop := m.stopMonitor
	done := m.monitorDone
	m.stopMonitor = nil
	m.monitorDone = nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// CheckServers pings every server once and recovers any that are down.
// It returns the addresses that were recovered. Exposed so tests and the
// experiment harness can trigger recovery deterministically. With
// replication on it is the fallback failure detector behind the
// heartbeat leases: a dead server found by the probe takes the same
// promotion path as a lease expiry.
func (m *Master) CheckServers() []string {
	m.mu.Lock()
	servers := m.liveRingLocked()
	replicate := m.replicate
	m.mu.Unlock()
	var dead []string
	for _, addr := range servers {
		if _, err := m.tr.Call(addr, "Ping", nil); err != nil {
			dead = append(dead, addr)
		}
	}
	if len(dead) == 0 {
		return nil
	}
	if replicate {
		var handled []string
		for _, addr := range dead {
			mtrace("probe found %s dead, failing over", addr)
			m.failoverServer(addr)
			handled = append(handled, addr)
		}
		return handled
	}
	// Restoring partitions while a multi-model checkpoint is mid-flight
	// would poison the snapshot set the rollback protocol trusts, so
	// recovery and checkpoints exclude each other. The recovery counter
	// is bumped under the same lock so the checkpoint fence observes an
	// exact count.
	m.recMu.Lock()
	defer m.recMu.Unlock()
	var recovered []string
	for _, addr := range dead {
		mtrace("server %s dead, recovering", addr)
		if err := m.recoverServer(addr); err == nil {
			recovered = append(recovered, addr)
			mtrace("server %s recovered", addr)
		} else {
			mtrace("server %s recovery failed: %v", addr, err)
		}
	}
	if len(recovered) > 0 {
		m.mu.Lock()
		m.recoveries++
		m.journalStateLocked()
		mtrace("recoveries -> %d", m.recoveries)
		m.mu.Unlock()
	}
	return recovered
}

func (m *Master) recoverServer(addr string) error {
	m.mu.Lock()
	restart := m.restart
	m.mu.Unlock()
	if restart == nil {
		// No restart hook means the master cannot exec the dead server
		// back into existence — the multi-process deployment, where an
		// external supervisor owns the process table. Recover by moving
		// the dead address's partitions onto the survivors instead; the
		// relaunched process rejoins empty via RegisterServer later.
		return m.reassignDead(addr)
	}
	if err := restart(addr); err != nil {
		return fmt.Errorf("ps: restart %s: %w", addr, err)
	}
	return m.restoreForServer(addr)
}

// restoreForServer restores every partition mapped to addr from the
// latest CRC-checked checkpoints onto the (empty) process now serving
// that address, falling back to the previous generation when the latest
// is torn. Checkpoint manifests whose partition table predates the
// current layout are adopted first, in which case EVERY partition of
// the model comes back from the manifest's table — never a mix of two
// layouts. Caller holds recMu.
func (m *Master) restoreForServer(addr string) error {
	m.mu.Lock()
	models := make([]ModelMeta, 0, len(m.models))
	for _, meta := range m.models {
		models = append(models, meta)
	}
	m.mu.Unlock()
	for _, meta := range models {
		keep := func(p Partition) bool { return p.Server == addr }
		if adopted, changed := m.adoptManifest(meta); changed {
			// The checkpoint was taken under a different partition table
			// (pre-split, say): every partition must come back from it, not
			// just the dead server's, or ranges would mix two layouts.
			meta = adopted
			keep = nil
		}
		if err := m.restoreUnit([]ModelMeta{meta}, keep); err != nil {
			return err
		}
		mtrace("recover: restored %s for %s", meta.Name, addr)
	}
	return nil
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
			// failoverServer is idempotent against the lease checker racing
			// this same conclusion: whoever marks the address dead first
			// runs the promotions, the other is a no-op.
			m.failoverServer(addr)
			wasDead = true
		} else if fs != nil {
			m.recMu.Lock()
			err := m.restoreForServer(addr)
			m.recMu.Unlock()
			if err != nil {
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
	// if it was declared dead by a lease expiry or probe, registration
	// IS the rejoin — the relaunched process has a fresh engine and a
	// live listener, so it goes back into the ring.
	delete(m.drained, addr)
	delete(m.dead, addr)
	// Seed the lease of a late-registered server (mirroring what
	// EnableLeases does for pre-registered ones): without an entry the
	// checker would skip it, and a server whose heartbeats never arrive
	// would silently escape lease-based failure detection.
	if m.stopLeases != nil {
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

// reassignDead recovers the partitions of a dead server without
// restarting it: the dead address's partitions are re-placed
// round-robin across the surviving ring and restored there from the
// latest CRC-checked checkpoints (previous generation if the latest is
// torn). Used when no restart hook is configured — a real crashed
// process can only be relaunched by an external supervisor, and it
// rejoins under RegisterServer with a fresh engine, so waiting for an
// in-place restart would stall recovery forever. Checkpoint manifests
// are NOT adopted here: a manifest records the partition table of
// checkpoint time, which still names the dead address. Callers hold
// recMu (both call sites — CheckServers and the failover orphan path —
// already do), so reassignment never interleaves with a checkpoint.
func (m *Master) reassignDead(deadAddr string) error {
	m.mu.Lock()
	m.dead[deadAddr] = true
	ring := m.liveRingLocked()
	if len(ring) == 0 {
		m.mu.Unlock()
		return fmt.Errorf("ps: no live servers left to take over partitions of %s", deadAddr)
	}
	m.epoch++
	epoch := m.epoch
	type job struct {
		meta  ModelMeta
		moved map[int]bool
	}
	var jobs []job
	rr := 0
	for name, meta := range m.models {
		parts := append([]Partition(nil), meta.Parts...)
		moved := map[int]bool{}
		changed := false
		for i := range parts {
			switch {
			case parts[i].Server == deadAddr:
				parts[i].Server = ring[rr%len(ring)]
				rr++
				parts[i].Backup = ""
				moved[parts[i].Index] = true
				changed = true
			case parts[i].Backup == deadAddr:
				parts[i].Backup = ""
				changed = true
			}
		}
		if changed {
			meta.Parts = parts
			meta.Epoch = epoch
			m.models[name] = meta
			m.journalModelLocked(meta)
		}
		if len(moved) > 0 {
			jobs = append(jobs, job{meta: m.models[name], moved: moved})
		}
	}
	m.journalStateLocked()
	m.mu.Unlock()
	for _, j := range jobs {
		moved := func(p Partition) bool { return j.moved[p.Index] }
		if err := m.restoreUnit([]ModelMeta{j.meta}, moved); err != nil {
			return err
		}
		mtrace("reassign: restored %s partitions of %s across %d survivors", j.meta.Name, deadAddr, len(ring))
	}
	return nil
}

package ps

// Live failover for the parameter server: heartbeat leases, epoch-fenced
// layouts and primary/backup replication.
//
// The paper's recovery protocol (Sec. III-B) restores a dead server from
// the last checkpoint after a container-provisioning delay, losing every
// push since the snapshot. This file closes that gap on the master side:
//
//   - Servers push heartbeats ("Heartbeat" RPC); the master tracks one
//     lease per server and declares a server dead the moment its lease
//     expires — no waiting for the poll monitor's next ping round.
//     CheckServers stays as a fallback probe for lease-less clusters.
//   - Every layout the master hands out carries a monotone epoch. A
//     failover bumps it; mutating client calls carry their layout's
//     epoch in the dedup envelope and servers reject older epochs with
//     ErrStaleEpoch (server side in replica.go), so a zombie or
//     partitioned old primary can never apply a write after its
//     partitions moved.
//   - With replication enabled, every partition has a backup on the
//     ring-next server that mirrors applied mutations. Lease expiry
//     promotes the backups in place — no restart delay, no lost
//     acknowledged updates — and a background pass re-seeds new backups
//     from the promoted primaries. Partitions that end up with no live
//     backup candidate run in degraded single-copy mode, counted in
//     FailoverStats, until the ring can be repaired.

import (
	"fmt"
	"strings"
	"time"
)

// staleEpochMsg is the wire-stable marker of an epoch-fence rejection.
// It is matched against RemoteError text client-side because errors.Is
// does not survive the wire (same convention as corruptCheckpointMsg).
const staleEpochMsg = "ps: stale layout epoch"

// ErrStaleEpoch reports that a mutating call carried a layout epoch
// older than the receiving server's, or hit a server that lost its
// heartbeat lease and self-fenced. The write was NOT applied; the caller
// must refetch the layout from the master and retry (the client does
// this automatically, reusing the same dedup sequence so the retry
// composes with the exactly-once window).
var ErrStaleEpoch = fmt.Errorf(staleEpochMsg)

// IsStaleEpochErr classifies an error — local or remote — as an
// epoch-fence rejection.
func IsStaleEpochErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), staleEpochMsg)
}

// Failover wire messages.

// heartbeatReq is a server's lease renewal. Dropped is the server's
// cumulative dropped-forward counter: an increase since the last beat
// means at least one applied mutation never reached a replica, so the
// master must treat this primary's backups as stale and reseed them —
// the reconciliation that keeps the master's backup metadata from
// silently diverging from the server's actual forwarding state.
type heartbeatReq struct {
	Addr    string
	Dropped int64
}

// heartbeatResp acknowledges a heartbeat and teaches the server the
// current layout epoch, which it fences stale writes against.
type heartbeatResp struct {
	Epoch int64
}

// replicateReq forwards one applied mutation from a primary to its
// backup. It carries the ORIGINAL client's (ClientID, Seq) so the backup
// records the mutation in its own dedup window under the client's
// identity: after a promotion, a client retry of an already-replicated
// push replays from the window instead of double-applying.
type replicateReq struct {
	Method   string
	ClientID uint64
	Seq      uint64
	Epoch    int64
	Body     []byte
}

// promoteReq tells a backup it is now the primary of a partition.
type promoteReq struct {
	Model string
	Part  int
	Epoch int64
}

// setBackupReq re-points a server's replication target after the live
// ring changed. Addr may be "" to stop forwarding.
type setBackupReq struct {
	Addr  string
	Epoch int64
}

// seedBackupReq asks a primary to snapshot one partition and install it
// on Backup as a replica, atomically with the start of mutation
// forwarding (the primary gates mutations for the duration).
type seedBackupReq struct {
	Meta   ModelMeta
	Part   int
	Backup string
	Epoch  int64
}

// FailoverStats is the master's failover observability surface.
type FailoverStats struct {
	// Epoch is the current layout epoch (bumped once per failover).
	Epoch int64
	// Promotions counts partitions promoted from backup to primary.
	Promotions int64
	// Reseeds counts partitions that got a fresh backup re-seeded after
	// a failover consumed (or killed) their previous one.
	Reseeds int64
	// Degraded counts partitions currently running without a backup
	// (single-copy mode) while replication is enabled.
	Degraded int64
	// Replicating reports whether primary/backup replication is on.
	Replicating bool
	// Splits and Moves count completed elastic-partition cutovers
	// (elastic.go): hot-partition midpoint splits and whole-partition
	// migrations, including drains.
	Splits int64
	Moves  int64
}

// SetReplication enables primary/backup replication: CreateModel assigns
// every partition a backup on the ring-next server and failover promotes
// backups in place instead of restarting from checkpoints.
func (m *Master) SetReplication(on bool) {
	m.mu.Lock()
	m.replicate = on
	m.mu.Unlock()
}

// heartbeat renews a server's lease and returns the current epoch. A
// server already declared dead keeps its (expired) lease: its partitions
// moved, and the epoch in the response lets it fence stale clients.
//
// It also reconciles replication state: when the beat reports a grown
// dropped-forward counter, the sender's replicas are missing mutations —
// they are dropped from the layout (degraded single-copy, visible in
// FailoverStats) and a background reseed rebuilds them from the
// primary's gated snapshot. A counter that shrank means the server was
// restarted fresh; just resynchronize the baseline.
func (m *Master) heartbeat(req heartbeatReq) heartbeatResp {
	m.mu.Lock()
	alive := !m.dead[req.Addr]
	if alive {
		m.leases[req.Addr] = time.Now()
	}
	stale := false
	if m.replicate && alive && req.Dropped != m.dropSeen[req.Addr] {
		stale = req.Dropped > m.dropSeen[req.Addr]
		m.dropSeen[req.Addr] = req.Dropped
	}
	if stale {
		for name, meta := range m.models {
			parts := meta.Parts
			changed := false
			for i := range parts {
				if parts[i].Server == req.Addr && parts[i].Backup != "" {
					if !changed {
						parts = append([]Partition(nil), parts...)
						changed = true
					}
					parts[i].Backup = ""
				}
			}
			if changed {
				meta.Parts = parts
				m.models[name] = meta
				m.journalModelLocked(meta)
			}
		}
	}
	resp := heartbeatResp{Epoch: m.epoch}
	m.mu.Unlock()
	if stale {
		m.kickReseed()
	}
	return resp
}

// EnableLeases starts the lease checker: a server whose last heartbeat
// is older than lease is declared dead immediately and failed over. The
// checker ticks at lease/4 so detection latency is bounded by ~1.25x
// the lease, not by a coarse monitor interval.
func (m *Master) EnableLeases(lease time.Duration) {
	m.mu.Lock()
	if m.stopLeases != nil {
		m.mu.Unlock()
		return
	}
	if lease <= 0 {
		lease = 100 * time.Millisecond
	}
	m.leaseDur = lease
	now := time.Now()
	for _, s := range m.servers {
		if _, ok := m.leases[s]; !ok {
			m.leases[s] = now
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.stopLeases = stop
	m.leaseDone = done
	m.mu.Unlock()
	tick := lease / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	go func() {
		defer close(done)
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.checkLeases()
			}
		}
	}()
}

// StopLeases halts the lease checker.
func (m *Master) StopLeases() {
	m.mu.Lock()
	stop := m.stopLeases
	done := m.leaseDone
	m.stopLeases = nil
	m.leaseDone = nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// checkLeases declares every lease-expired server dead and fails it
// over.
func (m *Master) checkLeases() {
	now := time.Now()
	m.mu.Lock()
	if now.Before(m.graceUntil) {
		// Post-restart grace window (masterwal.go): every replayed lease
		// is nominally expired, but that is the restart's silence, not the
		// servers'. Give the fleet one heartbeat interval to re-announce
		// before expiry means death.
		m.mu.Unlock()
		return
	}
	var expired []string
	for _, s := range m.servers {
		if m.dead[s] {
			continue
		}
		if beat, ok := m.leases[s]; ok && now.Sub(beat) > m.leaseDur {
			expired = append(expired, s)
		}
	}
	m.mu.Unlock()
	for _, addr := range expired {
		mtrace("lease of %s expired, failing over", addr)
		m.failoverServer(addr)
	}
}

// liveRingLocked returns the registered servers, in registration order,
// minus the ones declared dead or being drained for scale-in (a drained
// server keeps serving what it still holds but receives no new
// placements). Callers hold m.mu.
func (m *Master) liveRingLocked() []string {
	out := make([]string, 0, len(m.servers))
	for _, s := range m.servers {
		if !m.dead[s] && !m.drained[s] {
			out = append(out, s)
		}
	}
	return out
}

// failoverServer handles the death of one server: partitions with a live
// backup are promoted in place under a bumped epoch; partitions whose
// backup is also gone fall back to the checkpoint-restart path. Returns
// the number of promoted partitions. Idempotent per dead server.
func (m *Master) failoverServer(deadAddr string) int {
	m.recMu.Lock()
	defer m.recMu.Unlock()
	m.mu.Lock()
	if m.dead[deadAddr] {
		m.mu.Unlock()
		return 0
	}
	m.dead[deadAddr] = true
	m.epoch++
	epoch := m.epoch
	type promo struct {
		addr  string
		model string
		part  int
	}
	var promos []promo
	orphans := false
	for name, meta := range m.models {
		parts := append([]Partition(nil), meta.Parts...)
		changed := false
		for i := range parts {
			switch {
			case parts[i].Server == deadAddr:
				if b := parts[i].Backup; b != "" && !m.dead[b] {
					parts[i].Server, parts[i].Backup = b, ""
					promos = append(promos, promo{addr: b, model: name, part: parts[i].Index})
				} else {
					orphans = true
				}
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
	}
	m.promotions += int64(len(promos))
	m.journalStateLocked()
	m.mu.Unlock()
	mtrace("failover %s: epoch -> %d, promoting %d partitions", deadAddr, epoch, len(promos))
	for _, p := range promos {
		body := enc(promoteReq{Model: p.model, Part: p.part, Epoch: epoch})
		if _, err := m.callWithRetry(p.addr, "Promote", body); err != nil {
			mtrace("promote %s/%d on %s: %v", p.model, p.part, p.addr, err)
		}
	}
	if orphans {
		// Primary and backup both gone: only the checkpoint-restart path
		// can bring those partitions back. recoverServer restores just the
		// partitions still mapped to deadAddr (the promoted ones moved).
		if err := m.recoverServer(deadAddr); err == nil {
			m.mu.Lock()
			// Only an in-place restart brings the ADDRESS back to life;
			// the reassignment path (no restart hook) moved the orphans
			// elsewhere and the address stays dead until the relaunched
			// process re-registers it.
			if m.restart != nil {
				delete(m.dead, deadAddr)
				m.leases[deadAddr] = time.Now()
			}
			m.recoveries++
			m.journalStateLocked()
			m.mu.Unlock()
			mtrace("failover %s: orphaned partitions restored from checkpoints", deadAddr)
		} else {
			mtrace("failover %s: orphan recovery failed: %v", deadAddr, err)
		}
	}
	if len(promos) > 0 || orphans {
		m.kickReseed()
	}
	return len(promos)
}

// kickReseed schedules a background reseed pass, coalescing concurrent
// triggers (failovers, heartbeat drop reports) into one queued run. The
// queued flag clears before the pass starts, so a trigger arriving
// mid-run queues exactly one follow-up instead of being lost.
func (m *Master) kickReseed() {
	m.mu.Lock()
	if m.reseedQueued {
		m.mu.Unlock()
		return
	}
	m.reseedQueued = true
	m.mu.Unlock()
	go func() {
		m.mu.Lock()
		m.reseedQueued = false
		m.mu.Unlock()
		m.reseed()
	}()
}

// reseed repairs replication after the live ring changed: every live
// server's forward target is re-pointed to its new ring successor, and
// every partition whose backup no longer matches the ring gets a fresh
// replica seeded from its primary (snapshot + install, gated against
// concurrent mutations by the primary). Runs in the background after a
// failover; holds recMu so it never interleaves with checkpoints or
// another recovery.
func (m *Master) reseed() {
	m.recMu.Lock()
	defer m.recMu.Unlock()
	m.mu.Lock()
	if !m.replicate {
		m.mu.Unlock()
		return
	}
	epoch := m.epoch
	ring := m.liveRingLocked()
	next := make(map[string]string, len(ring))
	if len(ring) > 1 {
		for i, s := range ring {
			next[s] = ring[(i+1)%len(ring)]
		}
	}
	type seed struct {
		meta    ModelMeta
		part    int
		primary string
		backup  string
	}
	var seeds []seed
	for _, meta := range m.models {
		for _, p := range meta.Parts {
			if m.dead[p.Server] {
				continue
			}
			b := next[p.Server]
			if b == "" || p.Backup == b {
				continue
			}
			seeds = append(seeds, seed{meta: meta, part: p.Index, primary: p.Server, backup: b})
		}
	}
	m.mu.Unlock()
	for _, s := range ring {
		body := enc(setBackupReq{Addr: next[s], Epoch: epoch})
		if _, err := m.callWithRetry(s, "SetBackup", body); err != nil {
			mtrace("reseed: set backup of %s -> %s: %v", s, next[s], err)
		}
	}
	for _, sd := range seeds {
		body := enc(seedBackupReq{Meta: sd.meta, Part: sd.part, Backup: sd.backup, Epoch: epoch})
		if _, err := m.callWithRetry(sd.primary, "SeedBackup", body); err != nil {
			mtrace("reseed %s/%d from %s to %s: %v", sd.meta.Name, sd.part, sd.primary, sd.backup, err)
			continue
		}
		m.mu.Lock()
		if meta, ok := m.models[sd.meta.Name]; ok {
			if slot := meta.slotByID(sd.part); slot >= 0 && meta.Parts[slot].Server == sd.primary {
				// Layouts already handed out share the slice: edit a copy.
				meta.Parts = append([]Partition(nil), meta.Parts...)
				meta.Parts[slot].Backup = sd.backup
				m.models[sd.meta.Name] = meta
				m.reseeds++
				m.journalModelLocked(meta)
			}
		}
		m.mu.Unlock()
		mtrace("reseeded %s/%d: %s -> %s", sd.meta.Name, sd.part, sd.primary, sd.backup)
	}
}

// failoverStats snapshots the failover counters.
func (m *Master) failoverStats() FailoverStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := FailoverStats{
		Epoch:       m.epoch,
		Promotions:  m.promotions,
		Reseeds:     m.reseeds,
		Replicating: m.replicate,
		Splits:      m.splits,
		Moves:       m.moves,
	}
	if m.replicate {
		for _, meta := range m.models {
			for _, p := range meta.Parts {
				if p.Backup == "" || m.dead[p.Backup] {
					st.Degraded++
				}
			}
		}
	}
	return st
}

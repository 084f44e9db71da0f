package ps

// Master metadata durability (the tentpole of the master crash-restart
// work). Every metadata transition the master performs — model
// create/delete, layout publish with its epoch bump, split/move/drain,
// backup assignment, serve-layout publish, the recovery sequence
// number — is journaled to a write-ahead log on the DFS (dfs.WAL:
// CRC-framed records, torn-tail truncation) BEFORE any server or client
// can observe the new state. A kill -9 of the master process then loses
// nothing that matters:
//
//   - EnableWAL replays the log on restart and restores the epoch
//     high-water mark, so a restarted master can never re-publish a
//     layout under a stale epoch (servers fence on epochs learned from
//     heartbeat acks; handing out an old epoch would make every write
//     look stale forever).
//   - Membership (servers / dead / drained) is restored from the log
//     because live servers do NOT re-register after a master restart —
//     they only keep heartbeating — so without replay the master would
//     believe the fleet is empty.
//   - Replayed leases are seeded with a zero sentinel ("nominally
//     expired") and StartGrace opens a window in which expired leases do
//     not trigger failover: the fleet gets one heartbeat interval to
//     re-announce before silence is treated as death. Without the
//     window, a restarted master would mass-fail-over every server it
//     just replayed.
//   - SSP clock rings are deliberately NOT journaled: a ClockWait
//     carries the worker's absolute clock and max-merges it, so each
//     worker's next Tick rebuilds the ring at its cached value (clock.go).
//
// Ordering invariant: journal appends for epoch-bearing transitions run
// inside the same m.mu critical section as the bump itself, before the
// lock is released and before any fan-out RPC. heartbeat() reads
// m.epoch under m.mu, so no server can learn epoch N before the WAL
// durably holds a record carrying N. Lock order: m.mu -> WAL.mu (leaf).

import (
	"fmt"
	"time"
)

// MasterWALPath is where the master journals its metadata on the DFS.
const MasterWALPath = "/ps/master/wal"

// walRecord kinds. A record journals either a full control-plane state
// snapshot or one model/serve-layout transition.
const (
	walKindState = 1 + iota
	walKindModel
	walKindModelDelete
	walKindServe
)

// walRecord is one journaled metadata transition, a walked message like
// any other (wire.go); unused fields stay at their zero values per kind.
// A record the build cannot decode — one journaled in gob, tag 0x00,
// before the wire had one format — is skipped by EnableWAL, not read, and
// so is a model of a retired Kind.
type walRecord struct {
	Kind  int
	Epoch int64 // epoch at append time; replay max-merges it

	// walKindModel / walKindServe payloads.
	Meta  ModelMeta
	Serve ServeLayout
	// walKindModelDelete payload.
	Name string

	// walKindState payload: the membership snapshot and the recovery
	// sequence number the checkpoint fence compares against.
	Servers    []string
	Dead       []string
	Drained    []string
	Recoveries int64
}

// EnableWAL opens (replaying) the master metadata WAL at MasterWALPath
// and turns on journaling for every subsequent transition. It must run
// BEFORE the master's transport handler is registered: replay is pure
// filesystem + memory work, and doing it pre-listen means no client can
// ever observe the pre-replay "model does not exist" state. recovered
// reports whether the log held prior state (a crash-restart, as opposed
// to a first boot).
func (m *Master) EnableWAL() (recovered bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fs == nil {
		return false, fmt.Errorf("ps: EnableWAL requires a DFS (call SetFS first)")
	}
	if m.wal != nil {
		return false, nil
	}
	wal, recs, err := m.fs.OpenWAL(MasterWALPath)
	if err != nil {
		return false, fmt.Errorf("ps: open master wal: %w", err)
	}
	for _, raw := range recs {
		var rec walRecord
		if derr := dec(raw, &rec); derr != nil {
			// The frame's CRC passed, so the bytes are intact but from an
			// incompatible build (a gob-era record included). Skipping one
			// record beats wedging the restart of the whole control plane.
			mtrace("wal replay: undecodable record skipped: %v", derr)
			continue
		}
		if rec.Epoch > m.epoch {
			m.epoch = rec.Epoch
		}
		switch rec.Kind {
		case walKindState:
			m.servers = append([]string(nil), rec.Servers...)
			m.dead = make(map[string]bool, len(rec.Dead))
			for _, s := range rec.Dead {
				m.dead[s] = true
			}
			m.drained = make(map[string]bool, len(rec.Drained))
			for _, s := range rec.Drained {
				m.drained[s] = true
			}
			if rec.Recoveries > m.recoveries {
				m.recoveries = rec.Recoveries
			}
		case walKindModel:
			if !rec.Meta.Kind.known() { // SparseVector or DenseMatrix, retired
				mtrace("wal replay: model %q of retired kind %d skipped", rec.Meta.Name, rec.Meta.Kind)
				continue
			}
			if rec.Meta.Epoch > m.epoch {
				m.epoch = rec.Meta.Epoch
			}
			m.models[rec.Meta.Name] = rec.Meta
		case walKindModelDelete:
			delete(m.models, rec.Name)
			delete(m.serveLayouts, rec.Name)
		case walKindServe:
			if m.serveLayouts == nil {
				m.serveLayouts = make(map[string]ServeLayout)
			}
			m.serveLayouts[rec.Serve.Model] = rec.Serve
		default:
			mtrace("wal replay: unknown record kind %d skipped", rec.Kind)
		}
	}
	recovered = len(m.servers) > 0 || len(m.models) > 0
	if recovered {
		// Replayed servers have not heartbeated this incarnation: seed
		// their leases with the zero sentinel so they are "nominally
		// expired" — the grace window (StartGrace) decides whether that
		// means dead. EnableLeases only seeds MISSING entries, so the
		// sentinels survive it.
		for _, s := range m.servers {
			if !m.dead[s] {
				m.leases[s] = time.Time{}
			}
		}
	}
	m.wal = wal
	// Collapse the replayed history into a snapshot so the log does not
	// grow without bound across restarts.
	m.compactWALLocked()
	mtrace("wal enabled: replayed %d records (%d models, %d servers, epoch %d)",
		len(recs), len(m.models), len(m.servers), m.epoch)
	return recovered, nil
}

// StartGrace opens the post-restart failover grace window: until it
// elapses, expired leases do NOT trigger failover (checkLeases returns
// early). A restarted master replays every lease as nominally expired;
// the window gives live servers one heartbeat interval to re-announce
// before silence is treated as death.
func (m *Master) StartGrace(d time.Duration) {
	m.mu.Lock()
	m.graceUntil = time.Now().Add(d)
	m.mu.Unlock()
	mtrace("failover grace window open for %v", d)
}

// stateRecordLocked snapshots the control-plane state into a
// walKindState record. Callers hold m.mu.
func (m *Master) stateRecordLocked() walRecord {
	rec := walRecord{Kind: walKindState, Epoch: m.epoch, Recoveries: m.recoveries}
	rec.Servers = append([]string(nil), m.servers...)
	for s, d := range m.dead {
		if d {
			rec.Dead = append(rec.Dead, s)
		}
	}
	for s, d := range m.drained {
		if d {
			rec.Drained = append(rec.Drained, s)
		}
	}
	return rec
}

// journalLocked appends one record to the WAL. Callers hold m.mu, which
// is exactly the point: the record is durable (Append fsyncs) before
// any reader of the guarded state — heartbeat acks handing out the
// epoch, GetModel stamping layouts — can run. A journaling failure is
// traced and tolerated: the master keeps serving on its in-memory
// state, degraded to PR-9 semantics (restart loses metadata) rather
// than taking the control plane down.
func (m *Master) journalLocked(rec walRecord) {
	if m.wal == nil {
		return
	}
	if err := m.wal.Append(enc(rec)); err != nil {
		mtrace("wal append (kind %d): %v", rec.Kind, err)
	}
}

// journalStateLocked journals the membership/epoch/recovery snapshot.
func (m *Master) journalStateLocked() {
	if m.wal == nil {
		return
	}
	m.journalLocked(m.stateRecordLocked())
}

// journalModelLocked journals one model's full meta (layout edits,
// backup assignments, epoch bumps ride the meta itself).
func (m *Master) journalModelLocked(meta ModelMeta) {
	m.journalLocked(walRecord{Kind: walKindModel, Epoch: m.epoch, Meta: meta})
}

// journalModelDeleteLocked journals a model deletion.
func (m *Master) journalModelDeleteLocked(name string) {
	m.journalLocked(walRecord{Kind: walKindModelDelete, Epoch: m.epoch, Name: name})
}

// journalServeLocked journals a serve-layout publication.
func (m *Master) journalServeLocked(sl ServeLayout) {
	m.journalLocked(walRecord{Kind: walKindServe, Epoch: m.epoch, Serve: sl})
}

// compactWALLocked rewrites the log as one state snapshot plus one
// record per model and serve layout. Callers hold m.mu.
func (m *Master) compactWALLocked() {
	if m.wal == nil {
		return
	}
	recs := [][]byte{enc(m.stateRecordLocked())}
	for _, meta := range m.models {
		recs = append(recs, enc(walRecord{Kind: walKindModel, Epoch: m.epoch, Meta: meta}))
	}
	for _, sl := range m.serveLayouts {
		recs = append(recs, enc(walRecord{Kind: walKindServe, Epoch: m.epoch, Serve: sl}))
	}
	if err := m.wal.Rewrite(recs); err != nil {
		mtrace("wal compact: %v", err)
	}
}

package ps

// Server-side half of live failover (master half in failover.go):
// per-partition primary/replica roles, the epoch/lease write fence,
// mutation forwarding to the backup, and the heartbeat loop.
//
// Replication rides the exactly-once envelope: a primary forwards every
// applied mutation to its backup together with the ORIGINAL client's
// (clientID, seq), and the backup applies it through its own dedup
// window. After a promotion, a client retry of an already-replicated
// push therefore replays from the window instead of double-applying —
// exactly-once holds across the failover. Forwarding preserves
// per-(client, seq) idempotence, not cross-operation ordering; that is
// sound for the PS data plane, whose mutations are commutative
// (additive pushes, optimizer steps under ASP semantics).
//
// Replica partitions are invisible to MutApplied until promoted: each
// partition carries a role with its own apply counter, and stats sums
// only primary roles, so cluster-wide applied == the clients' logical
// mutation count even while every mutation is applied twice.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"psgraph/internal/rpc"
)

// partRole tracks one partition's replication role and its private
// apply counter.
type partRole struct {
	replica atomic.Bool
	muts    atomic.Int64
}

type partKey struct {
	model string
	part  int
}

// replState groups the failover fields of a Server, zero-valued usable
// so bare NewServer construction (tests, single-node use) needs no
// wiring: without SetOutbound there is no forwarding and no heartbeat,
// and with fence duration 0 the lease fence is off.
type replState struct {
	// out is the transport the server originates calls on (heartbeats,
	// forwards, seeding). It is the server's OWN caller view so that
	// injected network partitions apply to its outbound traffic too.
	out rpc.Transport

	// epoch is the highest layout epoch this server has learned (from
	// heartbeat acks, client envelopes, or promotion RPCs). Mutating
	// calls with an older epoch are fenced.
	epoch atomic.Int64
	// lastAckNs is when the last heartbeat ack arrived; fenceNs is the
	// self-fence horizon: with no ack for that long the server must
	// assume the master declared it dead and stop applying writes, even
	// though — being partitioned — it cannot have heard the new epoch.
	lastAckNs atomic.Int64
	fenceNs   atomic.Int64

	// backup is the ring-successor address mutations are forwarded to
	// ("" = degraded single-copy mode).
	backup atomic.Value // string

	hbMu   sync.Mutex
	hbStop chan struct{}
	hbDone chan struct{}

	pmu   sync.RWMutex
	roles map[partKey]*partRole

	// gate serializes backup seeding against mutation application:
	// SeedBackup write-locks it across snapshot + install so no mutation
	// can land between the snapshot and the start of forwarding.
	gate sync.RWMutex

	replicated  atomic.Int64
	replDropped atomic.Int64
}

// SetOutbound installs the transport the server originates calls on.
// The cluster passes the fault injector's per-source caller view so
// partitions cut the server's heartbeats and forwards, not only its
// inbound traffic.
func (s *Server) SetOutbound(tr rpc.Transport) { s.repl.out = tr }

// role returns (lazily creating) the partition's role. Partitions
// created before replication wiring default to primary, matching the
// old single-counter accounting.
func (s *Server) role(model string, part int) *partRole {
	k := partKey{model, part}
	s.repl.pmu.RLock()
	r := s.repl.roles[k]
	s.repl.pmu.RUnlock()
	if r != nil {
		return r
	}
	s.repl.pmu.Lock()
	defer s.repl.pmu.Unlock()
	if r = s.repl.roles[k]; r == nil {
		if s.repl.roles == nil {
			s.repl.roles = make(map[partKey]*partRole)
		}
		r = &partRole{}
		s.repl.roles[k] = r
	}
	return r
}

// bump counts one applied mutation against the partition's role.
func (s *Server) bump(model string, part int) { s.role(model, part).muts.Add(1) }

// dropRole forgets one partition's role (the source side of a completed
// migration hands its apply counter to the destination first).
func (s *Server) dropRole(model string, part int) {
	s.repl.pmu.Lock()
	delete(s.repl.roles, partKey{model, part})
	s.repl.pmu.Unlock()
}

// dropRoles forgets the roles of a deleted model.
func (s *Server) dropRoles(model string) {
	s.repl.pmu.Lock()
	defer s.repl.pmu.Unlock()
	for k := range s.repl.roles {
		if k.model == model {
			delete(s.repl.roles, k)
		}
	}
}

// epochMax advances the server's epoch to e if it is newer.
func (s *Server) epochMax(e int64) {
	for {
		cur := s.repl.epoch.Load()
		if e <= cur || s.repl.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Epoch returns the highest layout epoch the server has learned.
func (s *Server) Epoch() int64 { return s.repl.epoch.Load() }

// fenceCheck rejects a mutating call that must not be applied: the
// caller's layout epoch is older than the server's (its partitions may
// have moved), or the server lost its master lease and has to assume it
// was declared dead (a partitioned zombie cannot hear the new epoch, so
// it fences itself by time instead). Runs BEFORE the dedup window so a
// rejection is never cached and replayed to the client's post-refetch
// retry.
func (s *Server) fenceCheck(epoch int64) error {
	if f := s.repl.fenceNs.Load(); f > 0 {
		if last := s.repl.lastAckNs.Load(); last > 0 && time.Now().UnixNano()-last > f {
			return fmt.Errorf("%s: server %s lost its master lease", staleEpochMsg, s.Addr)
		}
	}
	// Epoch 0 means a pre-failover layout, which is older than any
	// positive epoch: once this server has learned one, a failover has
	// happened somewhere and an epoch-less write may be addressed from a
	// layout that predates it — fence it and make the client refetch.
	if cur := s.repl.epoch.Load(); epoch < cur {
		return fmt.Errorf("%s: call at epoch %d, server %s at epoch %d", staleEpochMsg, epoch, s.Addr, cur)
	}
	s.epochMax(epoch)
	return nil
}

// forward mirrors one applied once call to the backup, synchronously:
// the client's ack is withheld until the backup applied (or the forward
// was abandoned), which is what makes "acked implies replicated" — and
// therefore zero acked loss on failover — true.
//
// Brief unreachability is ridden out. If the backup stays unreachable
// the server degrades itself to single-copy mode (clears the target,
// counts the drop) rather than stalling every mutation. A
// non-unreachable error is a per-partition application failure
// (typically "partition not on this server" right after a promotion,
// before reseed installed the replica): only that one forward is
// dropped — clearing the whole target would silently stop forwarding
// for every healthy partition too. Either way the drop counter rides
// the next heartbeat, so the master marks this primary's replicas stale
// and reseeds them; forwarding state never diverges silently from the
// master's metadata.
func (s *Server) forward(method string, clientID, seq uint64, epoch int64, payload []byte) {
	if s.repl.out == nil {
		return
	}
	target, _ := s.repl.backup.Load().(string)
	if target == "" {
		return
	}
	body := enc(replicateReq{Method: method, ClientID: clientID, Seq: seq, Epoch: epoch, Body: payload})
	defer rpc.PutBuf(body)
	retry := rpc.NewBackoff(2*time.Millisecond, 50*time.Millisecond, 250*time.Millisecond)
	_, err := retry.Call(s.repl.out, target, "Replicate", body)
	if err == nil {
		s.repl.replicated.Add(1)
		return
	}
	s.repl.replDropped.Add(1)
	if errors.Is(err, rpc.ErrUnreachable) {
		s.repl.backup.CompareAndSwap(target, "")
	}
}

// handleReplicate applies one forwarded mutation on the backup, through
// the backup's own dedup window under the original client's identity —
// the piece that keeps exactly-once across a later promotion. The window
// keeps what the primary's keeps; a repeated forward answers nobody, so
// it never runs a replay-safe call again. Only a once call is forwarded.
func (s *Server) handleReplicate(body []byte) ([]byte, error) {
	var req replicateReq
	if err := dec(body, &req); err != nil {
		return nil, err
	}
	e, err := entryOf(serverHandlers, "server", req.Method, true)
	if err != nil {
		return nil, err
	}
	s.epochMax(req.Epoch)
	_, err = s.dedup.handle(req.ClientID, req.Seq, replaySafeCall(req.Method, req.Body), func(replay bool) ([]byte, error) {
		if replay {
			return nil, nil
		}
		s.repl.gate.RLock()
		defer s.repl.gate.RUnlock()
		return e.run(s, req.Body)
	})
	return nil, err
}

// promote flips a replica partition to primary, making its applied
// mutations visible to the exactly-once accounting. Sent by the master
// after the old primary's lease expired.
func (s *Server) promote(req promoteReq) error {
	if _, err := s.store.get(req.Model, req.Part); err != nil {
		return fmt.Errorf("ps: promote %s/%d on %s: %w", req.Model, req.Part, s.Addr, err)
	}
	s.epochMax(req.Epoch)
	s.role(req.Model, req.Part).replica.Store(false)
	return nil
}

// setBackup re-points the server's forward target after the live ring
// changed ("" stops forwarding).
func (s *Server) setBackup(req setBackupReq) error {
	s.epochMax(req.Epoch)
	s.repl.backup.Store(req.Addr)
	return nil
}

// seedBackup snapshots one partition this server is primary for and
// installs it on the (new) backup. The write gate is held across
// snapshot AND install, so every mutation either precedes the snapshot
// or is forwarded after the replica exists — none can fall between.
func (s *Server) seedBackup(req seedBackupReq) error {
	if s.repl.out == nil {
		return fmt.Errorf("ps: seed %s/%d: server %s has no outbound transport", req.Meta.Name, req.Part, s.Addr)
	}
	e, err := s.store.get(req.Meta.Name, req.Part)
	if err != nil {
		return err
	}
	s.epochMax(req.Epoch)
	s.repl.gate.Lock()
	defer s.repl.gate.Unlock()
	// The dedup window rides along as it does in a migration: a push this
	// primary applied before the snapshot whose ack was lost must replay
	// its cached ack from the promoted replica, not re-apply onto a
	// snapshot that already contains it.
	inst := installPartReq{
		Meta:    req.Meta,
		Part:    req.Part,
		Replica: true,
		Image:   exportAll(e),
		Dedup:   s.dedup.export(),
		Muts:    s.role(req.Meta.Name, req.Part).muts.Load(),
		Epoch:   req.Epoch,
	}
	if _, err := s.repl.out.Call(req.Backup, "InstallPart", enc(inst)); err != nil {
		return fmt.Errorf("ps: seed %s/%d on %s: %w", req.Meta.Name, req.Part, req.Backup, err)
	}
	// Adopt the seeded backup as the forward target while still holding
	// the write gate: the first mutation after the gate releases already
	// forwards, so a target cleared by an earlier degrade can never leave
	// the fresh replica silently stale.
	s.repl.backup.Store(req.Backup)
	return nil
}

// StartHeartbeat begins pushing lease renewals to the master every
// interval and arms the self-fence at the lease duration: the server
// stops accepting mutations once it has gone a full lease without an
// ack, because by then the master may have promoted its partitions.
func (s *Server) StartHeartbeat(master string, interval, lease time.Duration) {
	if s.repl.out == nil {
		return
	}
	s.repl.hbMu.Lock()
	defer s.repl.hbMu.Unlock()
	if s.repl.hbStop != nil {
		return
	}
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	if lease > 0 {
		s.repl.fenceNs.Store(int64(lease))
	}
	s.repl.lastAckNs.Store(time.Now().UnixNano())
	stop := make(chan struct{})
	done := make(chan struct{})
	s.repl.hbStop = stop
	s.repl.hbDone = done
	go func() {
		defer close(done)
		s.beat(master)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.beat(master)
			}
		}
	}()
}

// beat sends one heartbeat — carrying the cumulative dropped-forward
// count so the master can detect stale replicas and reseed them — and
// adopts the epoch in the ack.
func (s *Server) beat(master string) {
	hb := heartbeatReq{Addr: s.Addr, Dropped: s.repl.replDropped.Load()}
	resp, err := s.repl.out.Call(master, "Heartbeat", enc(hb))
	if err != nil {
		return
	}
	var hr heartbeatResp
	if dec(resp, &hr) == nil {
		s.epochMax(hr.Epoch)
	}
	s.repl.lastAckNs.Store(time.Now().UnixNano())
}

// StopHeartbeat halts the heartbeat loop. The cluster calls it from
// KillServer — a killed server must stop renewing its lease, or the
// master would never declare it dead (deregistration only cuts inbound
// traffic, not the server's own outgoing calls).
func (s *Server) StopHeartbeat() {
	s.repl.hbMu.Lock()
	stop := s.repl.hbStop
	done := s.repl.hbDone
	s.repl.hbStop = nil
	s.repl.hbDone = nil
	s.repl.hbMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

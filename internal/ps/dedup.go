package ps

// Exactly-once retry protocol for mutating PS calls.
//
// The client's retry loop re-sends a call whenever the transport reports
// ErrUnreachable. Under clean failures (KillServer) that is safe: either
// the server never saw the request, or it died and lost the state anyway.
// Under dirty failures — a response lost after the handler ran, a TCP
// reset between write and read — the server may have *applied* the write
// the client is about to resend, and a replayed PushAdd or Adam step
// double-applies.
//
// The fix is the classic (clientID, sequence) dedup window (TensorFlow
// and production parameter servers treat lost-ack idempotence as table
// stakes): every mutating client call is wrapped in a tagSeqE envelope
//
//	[1B tagSeqE][uvarint clientID][uvarint seq][uvarint epoch][payload]
//
// carrying a client-unique id, a per-client monotone sequence number
// that stays FIXED across retries of the same logical call, and the
// client's layout epoch (0 before any failover). The receiving
// side (server or master) keeps a bounded per-client window of recently
// executed sequences with their cached responses; a replay returns the
// cached ack instead of re-executing. Reads are never enveloped — they
// are retry-safe by nature and skipping the window keeps the pull hot
// path untouched.
//
// The window is in-memory and dies with the process. That is sound here:
// a restarted server has also lost the applied writes and is restored
// from a checkpoint, and algorithms that need cross-restart consistency
// (PageRank) already detect the recovery and roll back to a fenced
// snapshot, which discards any post-checkpoint replay along with
// everything else. See DESIGN.md section 9.

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"

	"psgraph/internal/rpc"
)

// tagSeqE marks a dedup-enveloped message (0x01 is the wire format's
// tagBin, the message the envelope wraps; 0x00 was gob and 0x02 the
// retired epoch-less envelope, both rejected like any unknown tag). Servers
// fence mutating calls whose epoch is older than their own, so a write
// addressed from a pre-failover layout is rejected instead of applied by
// a demoted primary. Epoch 0 counts as older than any positive epoch:
// once a server has learned one, a failover happened and a pre-failover
// layout can no longer be trusted.
const tagSeqE byte = 0x03

// dedupEnabled toggles client-side enveloping of mutating calls. On by
// default; the chaos harness switches it off as a negative control to
// demonstrate that retries double-apply without the window.
var dedupEnabled atomic.Bool

func init() { dedupEnabled.Store(true) }

// SetDedup toggles the exactly-once envelope on mutating client calls.
// Pass false only to demonstrate the failure mode it prevents.
func SetDedup(on bool) { dedupEnabled.Store(on) }

// dedupWindowSize bounds the per-client window of remembered sequences:
// every sequence within this many of the client's newest is remembered,
// and a replay of one the window has forgotten re-executes (the window is
// a recency cache, not a log). It is sized far beyond the deepest retry
// pipeline a client can have in flight.
var dedupWindowSize atomic.Int64

func init() { dedupWindowSize.Store(4096) }

// nextClientID hands out client ids that are unique across processes,
// not just within one. A multi-process deployment runs one PS agent per
// executor process; if every process counted up from zero, two agents
// in different processes would both mint clientID 1 and share a dedup
// window on the servers — one client's fresh mutation could be
// swallowed as a "replay" of the other's. Seeding the counter with a
// random 63-bit base keeps sequential draws unique within a process
// while making a cross-process collision require two bases within
// #clients of each other (~2^-40 for realistic client counts).
var nextClientID atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		// Shift keeps the base clear of the top bit so billions of
		// sequential draws cannot wrap uint64 into another base's range.
		nextClientID.Store(binary.LittleEndian.Uint64(b[:]) >> 1)
	}
}

// wrapDedup prepends the tagSeqE envelope to payload in a pooled buffer
// sized for both; release it with rpc.PutBuf after the call completes.
func wrapDedup(clientID, seq uint64, epoch int64, payload []byte) []byte {
	b := append(rpc.GetBuf(1+3*binary.MaxVarintLen64+len(payload)), tagSeqE)
	b = binary.AppendUvarint(b, clientID)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(epoch))
	return append(b, payload...)
}

// unwrapDedup splits a tagSeqE envelope. ok is false for bare messages.
func unwrapDedup(body []byte) (clientID, seq uint64, epoch int64, payload []byte, ok bool) {
	if len(body) == 0 || body[0] != tagSeqE {
		return 0, 0, 0, nil, false
	}
	rest := body[1:]
	var hdr [3]uint64
	for i := range hdr {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, 0, 0, nil, false
		}
		hdr[i], rest = v, rest[n:]
	}
	return hdr[0], hdr[1], int64(hdr[2]), rest, true
}

// dedupOutcome is what a finished call leaves in the window, and what a
// migration ships of it: the reply, or the error's text. A replay-safe
// call that succeeded keeps no reply; Rerun marks it, and its replay —
// here or on whichever server the window was shipped to — re-executes
// instead of answering with an empty reply.
type dedupOutcome struct {
	Resp  []byte
	Err   string
	Rerun bool
}

// dedupEntry is one executed (or executing) call. done closes when the
// outcome is final; replayers wait on it, which also covers the
// concurrent-duplicate case where a retry arrives while the original
// handler is still running (TCP reset mid-call).
type dedupEntry struct {
	done chan struct{}
	dedupOutcome
}

// dedupWindow is one client's recent-sequence window; order queues its
// sequences in arrival order for eviction.
type dedupWindow struct {
	entries map[uint64]*dedupEntry
	order   []uint64
	maxSeq  uint64
}

// add remembers e under seq and forgets, oldest arrival first, the
// sequences at or below maxSeq − size. Called with the table lock held.
// Each sequence is queued once and dequeued once, so a full window costs
// O(1) per call; a sequence that arrived out of order waits behind an
// older arrival that is still inside the window.
func (w *dedupWindow) add(seq uint64, e *dedupEntry) {
	w.entries[seq] = e
	w.order = append(w.order, seq)
	w.maxSeq = max(w.maxSeq, seq)
	win, n := uint64(dedupWindowSize.Load()), 0
	for ; n < len(w.order) && w.order[n]+win <= w.maxSeq; n++ {
		delete(w.entries, w.order[n])
	}
	w.order = w.order[n:]
}

// dedupTable is the receiver-side state: one window per client.
type dedupTable struct {
	mu      sync.Mutex
	clients map[uint64]*dedupWindow

	replayed atomic.Int64
}

func newDedupTable() *dedupTable {
	return &dedupTable{clients: make(map[uint64]*dedupWindow)}
}

// Replayed returns how many calls were answered from the window instead
// of re-executing — each one a prevented double-apply.
func (t *dedupTable) Replayed() int64 { return t.replayed.Load() }

// window returns (creating) a client's window. Called with t.mu held.
func (t *dedupTable) window(clientID uint64) *dedupWindow {
	w := t.clients[clientID]
	if w == nil {
		w = &dedupWindow{entries: make(map[uint64]*dedupEntry)}
		t.clients[clientID] = w
	}
	return w
}

// handle runs exec(false) exactly once per (clientID, seq) within the
// retention window. Replays wait for the original execution if it is
// still in flight, then receive a copy of its cached outcome (a copy
// because transports and clients recycle response buffers) — except the
// replay of a replaySafe call that succeeded, which gets exec(true): the
// call run again, which the caller must neither count as applied nor
// forward. Either way a replay counts in Replayed. The one outcome the
// window never keeps is an unapplied rejection (server.go).
func (t *dedupTable) handle(clientID, seq uint64, replaySafe bool, exec func(replay bool) ([]byte, error)) ([]byte, error) {
	t.mu.Lock()
	w := t.window(clientID)
	if e, ok := w.entries[seq]; ok {
		t.mu.Unlock()
		<-e.done
		t.replayed.Add(1)
		switch {
		case e.Err != "":
			return nil, errors.New(e.Err)
		case e.Rerun:
			return exec(true)
		}
		return append([]byte(nil), e.Resp...), nil
	}
	e := &dedupEntry{done: make(chan struct{})}
	w.add(seq, e)
	t.mu.Unlock()

	resp, err := exec(false)
	switch {
	case err != nil:
		e.Err = err.Error()
		// A routing rejection wrote nothing and heals when the partition
		// arrives: forget the sequence so the retry executes. Duplicates
		// already parked on done still see this outcome.
		if errors.As(err, new(unapplied)) {
			t.mu.Lock()
			delete(w.entries, seq)
			t.mu.Unlock()
		}
	case replaySafe:
		e.Rerun = true
	default:
		e.Resp = append([]byte(nil), resp...)
	}
	close(e.done)
	return resp, err
}

// dedupExport is one client's completed window entries in wire form.
// Migrations ship it alongside the partition data so that a retry of an
// already-applied push — re-routed to the new owner after the epoch
// fence rejected it at the old one — replays its cached ack there
// instead of double-applying. (clientID, seq) exactly-once therefore
// holds across a move.
type dedupExport struct {
	Client  uint64
	Entries map[uint64]dedupOutcome
	MaxSeq  uint64
}

// export snapshots every client's completed entries. In-flight entries
// (done not yet closed) are skipped: they belong to mutations blocked on
// the write gate the migration holds, which will execute — and fail or
// be range-rejected — after the cutover, so their outcome must not be
// frozen mid-flight.
func (t *dedupTable) export() []dedupExport {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]dedupExport, 0, len(t.clients))
	for id, w := range t.clients {
		de := dedupExport{Client: id, Entries: make(map[uint64]dedupOutcome, len(w.entries)), MaxSeq: w.maxSeq}
		for seq, e := range w.entries {
			select {
			case <-e.done:
				de.Entries[seq] = e.dedupOutcome
			default: // in flight
			}
		}
		out = append(out, de)
	}
	return out
}

// merge installs exported windows, keeping whatever entries the receiver
// already has (its own execution history wins on collision).
func (t *dedupTable) merge(states []dedupExport) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, de := range states {
		w := t.window(de.Client)
		w.maxSeq = max(w.maxSeq, de.MaxSeq)
		for seq, o := range de.Entries {
			if _, ok := w.entries[seq]; !ok {
				e := &dedupEntry{done: make(chan struct{}), dedupOutcome: o}
				close(e.done)
				w.add(seq, e)
			}
		}
	}
}

// dedupGuarded lists the client methods that mutate server or master
// state and therefore carry the envelope. Everything else (pulls, layout
// queries, stats, recovery-count reads, the idempotent clock calls) is
// retry-safe without it.
var dedupGuarded = map[string]bool{
	// Server data plane.
	"VecPush": true,
	"EmbPush": true,
	"NbrPush": true,
	"Func":    true,
	// Master control plane. A retried PublishSnapshot must get the layout
	// it published, not seed and install a second generation.
	"CreateModel":      true,
	"DeleteModel":      true,
	"Checkpoint":       true,
	"CheckpointModels": true,
	"RestoreModel":     true,
	"RestoreModels":    true,
	"PublishSnapshot":  true,
	// Elastic-partition control plane: a retried SplitPartition must not
	// split the (already narrowed) partition a second time.
	"SplitPartition": true,
	"MovePartition":  true,
	"DrainServer":    true,
	"Rebalance":      true,
}

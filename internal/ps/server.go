package ps

import (
	"fmt"
	"sort"
	"sync"

	"psgraph/internal/dfs"
)

// PSFunc is a user-defined function executed server-side against one model
// partition. The store argument gives access to co-located partitions of
// other models on the same server (the paper's LINE implementation relies
// on this to compute partial dot products between the embedding and
// context models, which are column-partitioned with the same layout).
//
// arg aliases the request's wire buffer: it is valid only until the
// function returns and must not be retained or mutated. The returned
// bytes are copied into the response, so they may alias anything.
//
// A psFunc is replay-safe when a second run for the same call is a
// correct answer and leaves the same state as the first: a read, or a
// write that only materialises absent rows. The dedup window keeps no
// reply of a replay-safe call and answers its retry by running it again;
// every other psFunc's retry gets the reply of its one run (dedup.go).
// Either way a psFunc looks up every partition, and checks every key,
// before its first write: the window forgets a routing rejection
// (routingRejection) and runs the retry, so a write before one applies twice.
type PSFunc func(s *Store, model string, part int, arg []byte) ([]byte, error)

// psFunc is a registered PSFunc and whether a retry may run it again.
type psFunc struct {
	run        PSFunc
	replaySafe bool
}

var (
	funcMu  sync.RWMutex
	funcReg = make(map[string]psFunc)
)

// RegisterFunc installs a named psFunc whose retries replay the reply of
// its one run. Registration is global (mirrors shipping user JARs to the
// servers) and must happen before use.
func RegisterFunc(name string, f PSFunc) { register(name, psFunc{f, false}) }

// RegisterReplaySafeFunc installs a named replay-safe psFunc (see PSFunc):
// its replies are never kept, and a retry re-executes it.
func RegisterReplaySafeFunc(name string, f PSFunc) { register(name, psFunc{f, true}) }

func register(name string, f psFunc) {
	funcMu.Lock()
	defer funcMu.Unlock()
	funcReg[name] = f
}

// replaySafeCall reports whether payload calls a replay-safe psFunc. The
// name is read off the frame in place, without decoding the call or
// allocating; bytes that are not a funcReq frame are never replay-safe.
func replaySafeCall(method string, payload []byte) bool {
	if method != "Func" || len(payload) < 2 || payload[0] != tagBin || payload[1] != msgFuncReq {
		return false
	}
	r := wreader{b: payload[2:]}
	r.take(int(r.uvarint())) // model
	r.varint()               // partition
	name := r.take(int(r.uvarint()))
	funcMu.RLock()
	defer funcMu.RUnlock()
	return r.err == nil && funcReg[string(name)].replaySafe
}

// Partition returns the typed view of a co-located partition for psFuncs.
// See LINE's dot-product function for the canonical use. A miss is a
// routing rejection the retry re-executes (see PSFunc).
func (s *Store) Partition(model string, idx int) (*PartView, error) {
	e, err := s.get(model, idx)
	if err != nil {
		return nil, err
	}
	return &PartView{eng: e}, nil
}

// PartView is the limited interface a psFunc gets to a partition. The
// typed lock methods fetch the matching engine; calling one against a
// partition of another kind is a programmer error and panics.
type PartView struct{ eng engine }

// viewAs returns the partition's engine as the kind a typed PartView
// method serves; what names that kind in the panic.
func viewAs[E engine](v *PartView, what string) E {
	e, ok := v.eng.(E)
	if !ok {
		panic(fmt.Sprintf("ps: PartView: %v partition is not %s", v.eng.modelMeta().Kind, what))
	}
	return e
}

func (v *PartView) emb() *embEngine { return viewAs[*embEngine](v, "an embedding") }

// Row returns (and lazily initializes) the stored vector for id, locking
// only the shard that owns it. The caller must not retain the slice
// across calls. Only valid for Embedding and ColumnEmbedding partitions.
func (v *PartView) Row(id int64) []float64 { return v.emb().row(id) }

// Lock write-locks every shard of an embedding partition for a multi-row
// operation and returns its raw row accessor; release with Unlock. Shards
// are acquired in index order; psFuncs locking several co-located
// partitions must take them in a consistent (model-name) order.
func (v *PartView) Lock() LockedRows {
	e := v.emb()
	e.lockShards()
	return LockedRows{e}
}

// VecLock acquires the write lock of a DenseVector partition and returns
// its backing slice and range start. psFuncs touching several co-located
// partitions must acquire VecLocks in a consistent (model-name) order.
func (v *PartView) VecLock() (data []float64, lo int64, unlock func()) {
	return viewAs[*vecEngine](v, "a DenseVector").lockData()
}

// SealCSR converts a Neighbor partition from its build-form map into
// compact CSR storage (sorted, deduplicated) and returns the vertex
// count. Subsequent pushes to the partition are rejected. Idempotent.
func (v *PartView) SealCSR() int64 { return viewAs[*nbrEngine](v, "a Neighbor table").seal() }

// Server holds model partitions in memory and serves pull/push/psFunc
// requests. A server is stateless across restarts: recovery reloads
// partitions from the last checkpoint in the DFS (the dedup window dies
// with the process too — sound, because the applied writes it guarded
// are lost and restored along with it; see dedup.go).
type Server struct {
	Addr  string
	fs    *dfs.FS
	store *Store
	dedup *dedupTable

	// repl is the live-failover state: partition roles with per-role
	// apply counters (a replay served from the dedup window does not
	// count — the chaos harness asserts applied == the clients' logical
	// mutation count to prove exactly-once delivery), the epoch/lease
	// write fence, backup forwarding, and the heartbeat loop. See
	// replica.go.
	repl replState

	// serve is the read-only serving tier: immutable epoch-tagged
	// partition snapshots and the replicated hot head. See serve.go.
	serve serveState
}

// NewServer creates a server that checkpoints to fs.
func NewServer(addr string, fs *dfs.FS) *Server {
	return &Server{Addr: addr, fs: fs, store: newStore(), dedup: newDedupTable()}
}

// handler serves one RPC method against a server.
type handler func(s *Server, body []byte) ([]byte, error)

// retryClass is what a resend of a method may do; every dispatch-table
// entry declares one (the zero value is undeclared: TestRetryContract). An
// idempotent method travels bare, and a resend may run it again and leaves
// what one run leaves. A once method travels in the dedup envelope
// (dedup.go): a retry is answered from the window, and a server forwards
// an applied call to its backup.
type retryClass uint8

const (
	_ retryClass = iota
	idempotent
	once
)

// entry is one method of a dispatch table: its retry class and handler.
type entry[S any] struct {
	class retryClass
	run   func(S, []byte) ([]byte, error)
}

// entryOf returns method's entry in table, refusing a call in a dedup
// envelope (enveloped) unless the method is once: nothing outside that
// class is windowed or forwarded. role names the receiver in errors.
func entryOf[S any](table map[string]entry[S], role, method string, enveloped bool) (entry[S], error) {
	e, ok := table[method]
	switch {
	case !ok:
		return e, fmt.Errorf("ps: %s: unknown method %q", role, method)
	case enveloped && e.class != once:
		return e, fmt.Errorf("ps: %s: %s is not a once method and takes no dedup envelope", role, method)
	}
	return e, nil
}

// handle adapts a typed request/response method of a server or the
// master into a wire handler: decode once, dispatch, encode once.
func handle[S, Req, Resp any](f func(S, Req) (Resp, error)) func(S, []byte) ([]byte, error) {
	return func(s S, body []byte) ([]byte, error) {
		var req Req
		if err := dec(body, &req); err != nil {
			return nil, err
		}
		resp, err := f(s, req)
		if err != nil {
			return nil, err
		}
		return enc(resp), nil
	}
}

// handleNoResp adapts a request-only method (pushes, control writes)
// into a handler with an empty response body.
func handleNoResp[S, Req any](f func(S, Req) error) func(S, []byte) ([]byte, error) {
	return func(s S, body []byte) ([]byte, error) {
		var req Req
		if err := dec(body, &req); err != nil {
			return nil, err
		}
		return nil, f(s, req)
	}
}

// pull adapts an engine's pull method into a handler: find the engine
// the request addresses, run.
func pull[E engine, Resp any](f func(E, pullReq) (Resp, error)) handler {
	return handle(func(s *Server, req pullReq) (Resp, error) {
		e, err := getEngine[E](s.store, req.Model, req.Part)
		if err != nil {
			var none Resp
			return none, err
		}
		return f(e, req)
	})
}

// push adapts an engine's push method into a handler: find the engine,
// run, count the mutation against the partition's role. Every engine
// validates the whole batch before its first write, so a rejection —
// routing or not — applied nothing.
func push[E engine, Req addressed](f func(E, Req) error) handler {
	return handleNoResp(func(s *Server, req Req) error {
		model, part := req.addr()
		e, err := getEngine[E](s.store, model, part)
		if err != nil {
			return err
		}
		if err := f(e, req); err != nil {
			return err
		}
		s.bump(model, part)
		return nil
	})
}

// serverHandlers is the method dispatch table of the server: each method's
// retry class and handler.
var serverHandlers = map[string]entry[*Server]{
	"Ping":        {idempotent, func(*Server, []byte) ([]byte, error) { return nil, nil }},
	"CreatePart":  {idempotent, handleNoResp((*Server).createPart)},
	"VecPull":     {idempotent, pull((*vecEngine).pull)},
	"VecPush":     {once, push((*vecEngine).push)},
	"EmbPull":     {idempotent, pull((*embEngine).pull)},
	"EmbPush":     {once, push((*embEngine).push)},
	"NbrPull":     {idempotent, pull((*nbrEngine).pull)},
	"NbrPush":     {once, push((*nbrEngine).push)},
	"Func":        {once, handle((*Server).callFunc)},
	"Checkpoint":  {idempotent, handleNoResp((*Server).checkpoint)},
	"CkptPrepare": {idempotent, handleNoResp((*Server).ckptPrepare)},
	"Restore":     {idempotent, handleNoResp((*Server).restore)},
	"DeleteModel": {idempotent, handleNoResp((*Server).deleteModel)},
	"Stats":       {idempotent, func(s *Server, _ []byte) ([]byte, error) { return enc(s.stats()), nil }},
}

// The failover handlers (replica.go) re-enter the table, so they are
// registered in init to avoid an initialization cycle through it.
func init() {
	serverHandlers["Replicate"] = entry[*Server]{idempotent, (*Server).handleReplicate}
	serverHandlers["Promote"] = entry[*Server]{idempotent, handleNoResp((*Server).promote)}
	serverHandlers["SetBackup"] = entry[*Server]{idempotent, handleNoResp((*Server).setBackup)}
	serverHandlers["SeedBackup"] = entry[*Server]{idempotent, handleNoResp((*Server).seedBackup)}
}

// Handle dispatches one RPC. It is the rpc.Handler of the server. A once
// method's tagSeqE envelope routes through the dedup window, so a retried
// call replays its cached ack instead of re-executing — or, for a
// replay-safe psFunc, re-executes uncounted. The epoch/lease fence runs
// BEFORE the window (a rejection must never be cached; the window itself
// forgets routing rejections), and a successfully applied call is
// forwarded to the backup inside the window's exec — so the client's ack
// is withheld until the call is replicated, and a replay never forwards
// twice.
func (s *Server) Handle(method string, body []byte) ([]byte, error) {
	clientID, seq, epoch, payload, ok := unwrapDedup(body)
	e, err := entryOf(serverHandlers, "server", method, ok)
	if err != nil {
		return nil, err
	}
	if !ok {
		return e.run(s, body)
	}
	if err := s.fenceCheck(epoch); err != nil {
		return nil, err
	}
	return s.dedup.handle(clientID, seq, replaySafeCall(method, payload), func(replay bool) ([]byte, error) {
		s.repl.gate.RLock()
		defer s.repl.gate.RUnlock()
		if replay {
			return handle((*Server).runFunc)(s, payload)
		}
		resp, err := e.run(s, payload)
		if err == nil {
			s.forward(method, clientID, seq, epoch, payload)
		}
		return resp, err
	})
}

func (s *Server) createPart(req createPartReq) error {
	e, err := newEngine(req.Meta, req.Part, 0)
	if err != nil {
		return err
	}
	s.store.put(e)
	s.role(req.Meta.Name, req.Part).replica.Store(req.Replica)
	return nil
}

func (s *Server) deleteModel(req modelNameReq) error {
	s.store.delete(req.Name)
	s.dropRoles(req.Name)
	s.serveDrop(req.Name)
	return nil
}

func (s *Server) callFunc(req funcReq) (funcResp, error) {
	resp, err := s.runFunc(req)
	if err == nil {
		s.bump(req.Model, req.Part)
	}
	return resp, err
}

// runFunc is callFunc without counting the call: a replay-safe call's
// retry runs it again and counts as a replay (dedup.go).
func (s *Server) runFunc(req funcReq) (funcResp, error) {
	funcMu.RLock()
	f, ok := funcReg[req.Name]
	funcMu.RUnlock()
	if !ok {
		return funcResp{}, fmt.Errorf("ps: psFunc %q not registered", req.Name)
	}
	// A psFunc addressed at a partition that is not here (yet) runs
	// nothing: a routing rejection the window forgets.
	if _, err := s.store.get(req.Model, req.Part); err != nil {
		return funcResp{}, err
	}
	out, err := f.run(s.store, req.Model, req.Part, req.Arg)
	return funcResp{Out: out}, err
}

// stats walks the engines and reports approximate resident bytes — the
// server-side counterpart of the executor memory accounting, used to
// compare model footprints against the paper's server sizing.
func (s *Server) stats() ServerStats {
	s.store.mu.RLock()
	defer s.store.mu.RUnlock()
	var resp ServerStats
	for model, parts := range s.store.parts {
		resp.Models = append(resp.Models, model)
		for _, e := range parts {
			resp.Partitions++
			resp.Bytes += e.sizeBytes()
		}
	}
	sort.Strings(resp.Models)
	s.repl.pmu.RLock()
	for _, r := range s.repl.roles {
		if r.replica.Load() {
			resp.Replicas++
		} else {
			resp.MutApplied += r.muts.Load()
		}
	}
	s.repl.pmu.RUnlock()
	resp.MutReplayed = s.dedup.Replayed()
	resp.MutReplicated = s.repl.replicated.Load()
	resp.ReplDropped = s.repl.replDropped.Load()
	return resp
}

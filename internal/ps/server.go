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
type PSFunc func(s *Store, model string, part int, arg []byte) ([]byte, error)

var (
	funcMu  sync.RWMutex
	funcReg = make(map[string]PSFunc)
)

// RegisterFunc installs a named psFunc. Registration is global (mirrors
// shipping user JARs to the servers) and must happen before use.
func RegisterFunc(name string, f PSFunc) {
	funcMu.Lock()
	defer funcMu.Unlock()
	funcReg[name] = f
}

func lookupFunc(name string) (PSFunc, bool) {
	funcMu.RLock()
	defer funcMu.RUnlock()
	f, ok := funcReg[name]
	return f, ok
}

// Partition returns the typed view of a co-located partition for psFuncs.
// See LINE's dot-product function for the canonical use.
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

func (v *PartView) emb() *embEngine {
	e, ok := v.eng.(*embEngine)
	if !ok {
		panic(fmt.Sprintf("ps: PartView: %v partition is not an embedding", v.eng.modelMeta().Kind))
	}
	return e
}

// Row returns (and lazily initializes) the stored vector for id, locking
// only the shard that owns it. The caller must not retain the slice
// across calls. Only valid for Embedding and ColumnEmbedding partitions.
func (v *PartView) Row(id int64) []float64 { return v.emb().row(id) }

// Cols returns the column range stored by this partition.
func (v *PartView) Cols() (int, int) {
	switch e := v.eng.(type) {
	case *embEngine:
		return e.cols()
	case *matEngine:
		return e.cols()
	}
	return 0, 0
}

// Width returns the per-key stored vector width.
func (v *PartView) Width() int { return v.emb().width() }

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
	e, ok := v.eng.(*vecEngine)
	if !ok {
		panic(fmt.Sprintf("ps: PartView: %v partition is not a DenseVector", v.eng.modelMeta().Kind))
	}
	return e.lockData()
}

// MapLock acquires the write lock of a SparseVector partition and returns
// the backing map.
func (v *PartView) MapLock() (m map[int64]float64, unlock func()) {
	e, ok := v.eng.(*sparseEngine)
	if !ok {
		panic(fmt.Sprintf("ps: PartView: %v partition is not a SparseVector", v.eng.modelMeta().Kind))
	}
	return e.lockMap()
}

// NbrLock acquires the write lock of a Neighbor partition and returns the
// backing adjacency map (nil once the partition is sealed to CSR).
func (v *PartView) NbrLock() (m map[int64][]int64, unlock func()) {
	e, ok := v.eng.(*nbrEngine)
	if !ok {
		panic(fmt.Sprintf("ps: PartView: %v partition is not a Neighbor table", v.eng.modelMeta().Kind))
	}
	return e.lockMap()
}

// SealCSR converts a Neighbor partition from its build-form map into
// compact CSR storage (sorted, deduplicated) and returns the vertex
// count. Subsequent pushes to the partition are rejected. Idempotent.
func (v *PartView) SealCSR() int64 {
	e, ok := v.eng.(*nbrEngine)
	if !ok {
		panic(fmt.Sprintf("ps: PartView: %v partition is not a Neighbor table", v.eng.modelMeta().Kind))
	}
	return e.seal()
}

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

// handle adapts a typed request/response method into a handler: decode
// once, dispatch, encode once.
func handle[Req, Resp any](f func(*Server, Req) (Resp, error)) handler {
	return func(s *Server, body []byte) ([]byte, error) {
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
func handleNoResp[Req any](f func(*Server, Req) error) handler {
	return func(s *Server, body []byte) ([]byte, error) {
		var req Req
		if err := dec(body, &req); err != nil {
			return nil, err
		}
		return nil, f(s, req)
	}
}

// serverHandlers is the method dispatch table of the server.
var serverHandlers = map[string]handler{
	"Ping":        func(*Server, []byte) ([]byte, error) { return nil, nil },
	"CreatePart":  handleNoResp((*Server).createPart),
	"VecPull":     handle((*Server).vecPull),
	"VecPush":     handleNoResp((*Server).vecPush),
	"MapPull":     handle((*Server).mapPull),
	"MapPush":     handleNoResp((*Server).mapPush),
	"EmbPull":     handle((*Server).embPull),
	"EmbPush":     handleNoResp((*Server).embPush),
	"NbrPull":     handle((*Server).nbrPull),
	"NbrPush":     handleNoResp((*Server).nbrPush),
	"MatPull":     handle((*Server).matPull),
	"MatPush":     handleNoResp((*Server).matPush),
	"Func":        handle((*Server).callFunc),
	"Checkpoint":  handleNoResp((*Server).checkpoint),
	"CkptPrepare": handleNoResp((*Server).ckptPrepare),
	"Restore":     handleNoResp((*Server).restore),
	"DeleteModel": handleNoResp((*Server).deleteModel),
	"Stats":       func(s *Server, _ []byte) ([]byte, error) { return enc(s.stats()), nil },
}

// The failover handlers (replica.go) re-enter dispatch, so they are
// registered in init to avoid an initialization cycle through the table.
func init() {
	serverHandlers["Replicate"] = (*Server).handleReplicate
	serverHandlers["Promote"] = handleNoResp((*Server).promote)
	serverHandlers["SetBackup"] = handleNoResp((*Server).setBackup)
	serverHandlers["SeedBackup"] = handleNoResp((*Server).seedBackup)
	serverHandlers["InstallReplica"] = handleNoResp((*Server).installReplica)
}

// Handle dispatches one RPC. It is the rpc.Handler of the server. A
// tagSeq/tagSeqE envelope routes through the dedup window so a retried
// mutating call replays its cached ack instead of re-executing. The
// epoch/lease fence runs BEFORE the window (a rejection must never be
// cached), and a successfully applied mutation is forwarded to the
// backup inside the window's exec — so the client's ack is withheld
// until the mutation is replicated, and a replayed ack never forwards
// twice.
func (s *Server) Handle(method string, body []byte) ([]byte, error) {
	if clientID, seq, epoch, payload, ok := unwrapDedup(body); ok {
		if err := s.fenceCheck(epoch); err != nil {
			return nil, err
		}
		return s.dedup.handle(clientID, seq, func() ([]byte, error) {
			s.repl.gate.RLock()
			defer s.repl.gate.RUnlock()
			resp, err := s.dispatch(method, payload)
			if err == nil {
				s.forward(method, clientID, seq, epoch, payload)
			}
			return resp, err
		})
	}
	return s.dispatch(method, body)
}

func (s *Server) dispatch(method string, body []byte) ([]byte, error) {
	h, ok := serverHandlers[method]
	if !ok {
		return nil, fmt.Errorf("ps: server: unknown method %q", method)
	}
	return h(s, body)
}

func (s *Server) createPart(req createPartReq) error {
	e, err := newEngine(req.Meta, req.Part)
	if err != nil {
		return err
	}
	s.store.put(e)
	s.role(req.Meta.Name, req.Part).replica.Store(req.Replica)
	return nil
}

func (s *Server) deleteModel(req deleteModelReq) error {
	s.store.delete(req.Name)
	s.dropRoles(req.Name)
	s.serveDrop(req.Name)
	return nil
}

func (s *Server) vecPull(req vecPullReq) (vecPullResp, error) {
	e, err := getEngine[*vecEngine](s.store, req.Model, req.Part)
	if err != nil {
		return vecPullResp{}, err
	}
	return e.pull(req)
}

func (s *Server) vecPush(req vecPushReq) error {
	e, err := getEngine[*vecEngine](s.store, req.Model, req.Part)
	if err != nil {
		return err
	}
	if err := e.push(req); err != nil {
		return err
	}
	s.bump(req.Model, req.Part)
	return nil
}

func (s *Server) mapPull(req mapPullReq) (mapPullResp, error) {
	e, err := getEngine[*sparseEngine](s.store, req.Model, req.Part)
	if err != nil {
		return mapPullResp{}, err
	}
	return e.pull(req)
}

func (s *Server) mapPush(req mapPushReq) error {
	e, err := getEngine[*sparseEngine](s.store, req.Model, req.Part)
	if err != nil {
		return err
	}
	if err := e.push(req); err != nil {
		return err
	}
	s.bump(req.Model, req.Part)
	return nil
}

func (s *Server) embPull(req embPullReq) (embPullResp, error) {
	e, err := getEngine[*embEngine](s.store, req.Model, req.Part)
	if err != nil {
		return embPullResp{}, err
	}
	return e.pull(req)
}

func (s *Server) embPush(req embPushReq) error {
	e, err := getEngine[*embEngine](s.store, req.Model, req.Part)
	if err != nil {
		return err
	}
	if err := e.push(req); err != nil {
		return err
	}
	s.bump(req.Model, req.Part)
	return nil
}

func (s *Server) nbrPull(req nbrPullReq) (nbrPullResp, error) {
	e, err := getEngine[*nbrEngine](s.store, req.Model, req.Part)
	if err != nil {
		return nbrPullResp{}, err
	}
	return e.pull(req)
}

func (s *Server) nbrPush(req nbrPushReq) error {
	e, err := getEngine[*nbrEngine](s.store, req.Model, req.Part)
	if err != nil {
		return err
	}
	if err := e.push(req); err != nil {
		return err
	}
	s.bump(req.Model, req.Part)
	return nil
}

func (s *Server) matPull(req matPullReq) (matPullResp, error) {
	e, err := getEngine[*matEngine](s.store, req.Model, req.Part)
	if err != nil {
		return matPullResp{}, err
	}
	return e.pull(req)
}

func (s *Server) matPush(req matPushReq) error {
	e, err := getEngine[*matEngine](s.store, req.Model, req.Part)
	if err != nil {
		return err
	}
	if err := e.push(req); err != nil {
		return err
	}
	s.bump(req.Model, req.Part)
	return nil
}

func (s *Server) callFunc(req funcReq) (funcResp, error) {
	f, ok := lookupFunc(req.Name)
	if !ok {
		return funcResp{}, fmt.Errorf("ps: psFunc %q not registered", req.Name)
	}
	out, err := f(s.store, req.Model, req.Part, req.Arg)
	if err != nil {
		return funcResp{}, err
	}
	s.bump(req.Model, req.Part)
	return funcResp{Out: out}, nil
}

// stats walks the engines and reports approximate resident bytes — the
// server-side counterpart of the executor memory accounting, used to
// compare model footprints against the paper's server sizing.
func (s *Server) stats() statsResp {
	s.store.mu.RLock()
	defer s.store.mu.RUnlock()
	var resp statsResp
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

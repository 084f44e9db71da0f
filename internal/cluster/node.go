package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"psgraph/internal/dfs"
	"psgraph/internal/ps"
	"psgraph/internal/rpc"
)

// NodeConfig configures one role instance. The zero value is not
// usable: Role is required, and server/executor roles need MasterAddr.
type NodeConfig struct {
	Role       string
	Addr       string // listen address; empty or ":0" port picks a free one
	MasterAddr string // required for server and executor roles
	DFSDir     string // shared checkpoint directory; empty = process-local memory FS
	PortFile   string // when set, the bound address is published here (tmp+rename)

	Replicate bool // master: ring-next primary/backup replication

	Lease     time.Duration // master: heartbeat lease (defaults under Replicate)
	Heartbeat time.Duration // server: heartbeat interval (defaults to Lease/4)
	Monitor   time.Duration // master: CheckServers probe interval
	Ckpt      time.Duration // master: periodic checkpoint interval

	// JoinTimeout bounds how long a server/executor retries reaching the
	// master before giving up (default 10s).
	JoinTimeout time.Duration
}

// Node is one running role. StartNode is used by cmd/psnode for real
// processes and by tests that want the same code path in-process.
type Node struct {
	Cfg  NodeConfig
	Addr string

	Transport *rpc.TCP
	Master    *ps.Master // role master
	Server    *ps.Server // role server
	Client    *ps.Client // role executor

	ready  atomic.Bool
	mu     sync.Mutex
	detail string
	fatal  chan error
	closed atomic.Bool
}

// StartNode binds the role's listener, publishes its address (port
// file), and brings the role up. The listener answers Health
// immediately, but Ready stays false until the role is usable — for a
// server that means RegisterServer with the master completed and the
// heartbeat loop is running, which happens asynchronously here so a
// server can bind before the master exists and still come up.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = 10 * time.Second
	}
	if cfg.Replicate && cfg.Lease <= 0 {
		cfg.Lease = 100 * time.Millisecond
	}
	if cfg.Heartbeat <= 0 && cfg.Lease > 0 {
		cfg.Heartbeat = cfg.Lease / 4
	}
	n := &Node{Cfg: cfg, Transport: rpc.NewTCP(), fatal: make(chan error, 1)}
	n.setDetail("starting")

	var fs *dfs.FS
	var err error
	if cfg.DFSDir != "" {
		if fs, err = dfs.NewDir(cfg.DFSDir); err != nil {
			n.Transport.Close()
			return nil, err
		}
	} else {
		fs = dfs.NewDefault()
	}

	var inner rpc.Handler
	var masterRecovered bool
	switch cfg.Role {
	case RoleMaster:
		n.Master = ps.NewMaster("", n.Transport)
		n.Master.SetFS(fs)
		if cfg.DFSDir != "" {
			// Journal every metadata transition to the shared DFS and, on a
			// crash-restart, replay it BEFORE the listener comes up: replay
			// is pure filesystem + memory work, so doing it here means no
			// client can ever observe the pre-replay empty state. Memory-FS
			// masters skip the WAL — it would die with the process anyway.
			if masterRecovered, err = n.Master.EnableWAL(); err != nil {
				n.Transport.Close()
				return nil, err
			}
		}
		inner = n.Master.Handle
	case RoleServer:
		if cfg.MasterAddr == "" {
			n.Transport.Close()
			return nil, fmt.Errorf("cluster: server role needs -master")
		}
		n.Server = ps.NewServer("", fs)
		inner = n.Server.Handle
	case RoleExecutor:
		if cfg.MasterAddr == "" {
			n.Transport.Close()
			return nil, fmt.Errorf("cluster: executor role needs -master")
		}
		n.Client = ps.NewClient(n.Transport, cfg.MasterAddr)
		inner = func(method string, _ []byte) ([]byte, error) {
			return nil, fmt.Errorf("cluster: executor does not serve %q", method)
		}
	default:
		n.Transport.Close()
		return nil, fmt.Errorf("cluster: unknown role %q", cfg.Role)
	}

	h := n.wrap(inner)
	if cfg.Addr == "" || cfg.Addr == ":0" {
		n.Addr, err = n.Transport.Listen(h)
	} else {
		// A relaunched server reclaims its OLD address so the master sees
		// a rejoin, not a new member.
		n.Addr, err = cfg.Addr, n.Transport.Register(cfg.Addr, h)
	}
	if err != nil {
		n.Transport.Close()
		return nil, err
	}
	if cfg.PortFile != "" {
		if err := writePortFile(cfg.PortFile, n.Addr); err != nil {
			n.Transport.Close()
			return nil, err
		}
	}

	switch cfg.Role {
	case RoleMaster:
		n.Master.Addr = n.Addr
		if cfg.Ckpt > 0 {
			n.Master.SetCheckpointInterval(cfg.Ckpt)
		}
		if cfg.Replicate {
			n.Master.SetReplication(true)
			if masterRecovered {
				// The WAL replayed every lease as nominally expired. Give the
				// fleet a grace window — a few heartbeat intervals — to
				// re-announce before the lease checker may treat that silence
				// as death, or the restart itself would mass-fail-over every
				// server it just recovered. StartGrace must precede
				// EnableLeases so no checker tick runs ungated.
				n.Master.StartGrace(2 * cfg.Lease)
			}
			n.Master.EnableLeases(cfg.Lease)
		}
		if cfg.Monitor > 0 {
			n.Master.StartMonitor(cfg.Monitor)
		}
		n.becomeReady("serving")
	case RoleServer:
		n.Server.Addr = n.Addr
		go n.joinAsServer()
	case RoleExecutor:
		go n.joinAsExecutor()
	}
	return n, nil
}

// joinAsServer registers with the master (retrying while it is still
// coming up) and starts heartbeats. Only then does Health report ready.
func (n *Node) joinAsServer() {
	n.setDetail("registering with " + n.Cfg.MasterAddr)
	err := ps.JoinMaster(n.Transport, n.Cfg.MasterAddr, n.Server,
		n.Cfg.Heartbeat, n.Cfg.Lease, n.Cfg.JoinTimeout)
	if err != nil {
		n.fail(err)
		return
	}
	n.becomeReady("joined " + n.Cfg.MasterAddr)
}

// joinAsExecutor waits until the master answers a Ping, so a ready
// executor is guaranteed to be able to resolve models.
func (n *Node) joinAsExecutor() {
	retry := rpc.NewBackoff(5*time.Millisecond, 250*time.Millisecond, n.Cfg.JoinTimeout)
	if _, err := retry.Call(n.Transport, n.Cfg.MasterAddr, "Ping", nil); err != nil {
		n.fail(fmt.Errorf("cluster: master %s unreachable for %v: %w", n.Cfg.MasterAddr, n.Cfg.JoinTimeout, err))
		return
	}
	n.becomeReady("agent of " + n.Cfg.MasterAddr)
}

// wrap adds the harness RPCs (Health on every role, RunLoad on
// executors) in front of the role's own handler.
func (n *Node) wrap(inner rpc.Handler) rpc.Handler {
	return func(method string, body []byte) ([]byte, error) {
		switch method {
		case "Health":
			return json.Marshal(n.Health())
		case "RunLoad":
			if n.Cfg.Role == RoleExecutor {
				return n.runLoad(body)
			}
		}
		return inner(method, body)
	}
}

// Health snapshots the node's readiness.
func (n *Node) Health() HealthInfo {
	n.mu.Lock()
	detail := n.detail
	n.mu.Unlock()
	return HealthInfo{Role: n.Cfg.Role, Addr: n.Addr, Ready: n.ready.Load(), Detail: detail}
}

// Fatal delivers the error that killed an asynchronous bring-up step
// (e.g. the master never became reachable). At most one is sent.
func (n *Node) Fatal() <-chan error { return n.fatal }

func (n *Node) setDetail(d string) {
	n.mu.Lock()
	n.detail = d
	n.mu.Unlock()
}

func (n *Node) becomeReady(d string) {
	n.setDetail(d)
	n.ready.Store(true)
}

func (n *Node) fail(err error) {
	n.setDetail(err.Error())
	select {
	case n.fatal <- err:
	default:
	}
}

// runLoad executes a LoadReq against the PS tier; see proto.go for the
// mass-conservation contract.
func (n *Node) runLoad(body []byte) ([]byte, error) {
	var req LoadReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("cluster: bad LoadReq: %w", err)
	}
	if req.Rows <= 0 || req.Dim <= 0 || req.Batch <= 0 {
		return nil, fmt.Errorf("cluster: bad LoadReq %+v", req)
	}
	if int64(req.Batch) > req.Rows {
		req.Batch = int(req.Rows)
	}
	emb, err := n.Client.Embedding(req.Model)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(req.Seed))
	sent0, retried0 := n.Client.MutationStats()
	var resp LoadResp
	for i := 0; i < req.Pushes; i++ {
		batch := make(map[int64][]float64, req.Batch)
		for len(batch) < req.Batch {
			id := rng.Int63n(req.Rows)
			if _, dup := batch[id]; dup {
				continue
			}
			vec := make([]float64, req.Dim)
			vec[0] = 1
			batch[id] = vec
		}
		if err := emb.PushAdd(batch); err != nil {
			resp.Failed++
			resp.LastErr = err.Error()
		} else {
			resp.Acked += int64(len(batch))
		}
		if req.ThinkMicros > 0 {
			time.Sleep(time.Duration(req.ThinkMicros) * time.Microsecond)
		}
	}
	sent1, retried1 := n.Client.MutationStats()
	resp.Sent, resp.Retried = sent1-sent0, retried1-retried0
	resp.Millis = time.Since(start).Milliseconds()
	return json.Marshal(resp)
}

// Close shuts the node down gracefully: background loops are stopped
// first (StopMonitor waits out an in-flight checkpoint rather than
// abandoning it mid-write), then the listener goes away. Safe to call
// more than once.
func (n *Node) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	switch n.Cfg.Role {
	case RoleMaster:
		n.Master.StopLeases()
		n.Master.StopMonitor()
	case RoleServer:
		n.Server.StopHeartbeat()
	}
	n.Transport.Close()
}

// writePortFile publishes addr atomically so a harness polling the
// path never reads a torn write.
func writePortFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

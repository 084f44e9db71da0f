package ps

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"psgraph/internal/dfs"
	"psgraph/internal/rpc"
)

// Cluster wires a master and a set of servers over a transport, the way
// Yarn/Kubernetes launches them in production (Sec. III-B). It owns
// failure injection for the Table II experiment: KillServer drops a
// server's state and endpoint; once its lease expires the master
// restarts it and restores from checkpoints.
type Cluster struct {
	Transport  rpc.Transport
	FS         *dfs.FS
	Master     *Master
	MasterAddr string

	prefix       string
	restartDelay time.Duration
	lease        time.Duration

	mu      sync.Mutex
	servers map[string]*Server
	addrs   []string
	// closed gates restartServer: the master's recovery path sleeps
	// through RestartDelay and must not re-register a server after Close
	// deregistered everything.
	closed bool
}

// ClusterConfig configures a PS cluster.
type ClusterConfig struct {
	// NumServers is the number of parameter servers. Defaults to 2.
	NumServers int
	// Transport defaults to a shared in-process transport.
	Transport rpc.Transport
	// FS is the checkpoint store; a default DFS is created if nil.
	FS *dfs.FS
	// RestartDelay models the time Yarn/Kubernetes takes to provision a
	// replacement server container before recovery can restore it.
	RestartDelay time.Duration
	// NamePrefix disambiguates endpoints when several clusters share one
	// transport.
	NamePrefix string
	// LeaseDuration enables heartbeat leases, the one failure detector:
	// servers renew every LeaseDuration/4, and the master declares a
	// server dead — and recovers it — once it has gone this long without
	// a heartbeat (a server goes as long without an ack before fencing
	// its own writes). Zero leaves failures undetected.
	LeaseDuration time.Duration
	// Replicate enables primary/backup replication: every partition gets
	// a backup on the ring-next server, primaries forward applied
	// mutations to it, and failover promotes backups in place instead of
	// restoring from checkpoints. Replication always runs with heartbeat
	// leases (defaulted when neither lease field is set): without the
	// self-fence a partitioned primary could keep acking writes after its
	// partitions were promoted, silently losing them.
	Replicate bool
}

// NewCluster starts a master and NumServers servers.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.NumServers <= 0 {
		cfg.NumServers = 2
	}
	if cfg.Transport == nil {
		cfg.Transport = rpc.NewInProc()
	}
	if cfg.FS == nil {
		cfg.FS = dfs.NewDefault()
	}
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "ps"
	}
	if cfg.Replicate && cfg.LeaseDuration <= 0 {
		// Leases are mandatory with replication: the self-fence (a server
		// that misses a full lease of acks stops applying writes) is what
		// keeps an asymmetrically-partitioned demoted primary from acking
		// epoch-0 writes the promoted copy will never see.
		cfg.LeaseDuration = 100 * time.Millisecond
	}
	c := &Cluster{
		Transport:    cfg.Transport,
		FS:           cfg.FS,
		prefix:       cfg.NamePrefix,
		MasterAddr:   cfg.NamePrefix + "-master",
		restartDelay: cfg.RestartDelay,
		lease:        cfg.LeaseDuration,
		servers:      make(map[string]*Server),
	}
	// A TCP transport (possibly wrapped in a fault-injecting decorator)
	// assigns real host:port endpoints via Listen; other transports use
	// symbolic names.
	overTCP := rpc.CanListen(cfg.Transport)
	c.Master = NewMaster(c.MasterAddr, cfg.Transport)
	if overTCP {
		addr, err := rpc.Listen(cfg.Transport, c.Master.Handle)
		if err != nil {
			return nil, err
		}
		c.MasterAddr = addr
		c.Master.Addr = addr
	} else if err := cfg.Transport.Register(c.MasterAddr, c.Master.Handle); err != nil {
		return nil, err
	}
	c.Master.SetRestartFunc(c.restartServer)
	c.Master.SetFS(cfg.FS)
	for i := 0; i < cfg.NumServers; i++ {
		addr := fmt.Sprintf("%s-server-%d", cfg.NamePrefix, i)
		srv := NewServer(addr, cfg.FS)
		if overTCP {
			bound, err := rpc.Listen(cfg.Transport, srv.Handle)
			if err != nil {
				return nil, err
			}
			addr = bound
			srv.Addr = bound
		} else if err := cfg.Transport.Register(addr, srv.Handle); err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.servers[addr] = srv
		c.addrs = append(c.addrs, addr)
		c.mu.Unlock()
		if _, err := cfg.Transport.Call(c.MasterAddr, "RegisterServer", enc(registerServerReq{Addr: addr})); err != nil {
			return nil, err
		}
		srv.wire(c.Transport, c.MasterAddr, c.lease)
	}
	if cfg.Replicate {
		c.Master.SetReplication(true)
	}
	if cfg.LeaseDuration > 0 {
		c.Master.EnableLeases(cfg.LeaseDuration)
	}
	return c, nil
}

// NewClient returns a PS agent for this cluster.
func (c *Cluster) NewClient() *Client {
	return NewClient(c.Transport, c.MasterAddr)
}

// ServerAddrs returns the server endpoint names.
func (c *Cluster) ServerAddrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.addrs...)
}

// AddServer launches and registers one more parameter server at
// runtime — scale-out after models already exist. The new server starts
// empty; it receives partitions when the master's rebalancer (or an
// explicit MovePartition) migrates load onto it.
func (c *Cluster) AddServer(name string) (string, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", fmt.Errorf("ps: cluster closed")
	}
	if name == "" {
		name = fmt.Sprintf("server-x%d", len(c.addrs))
	}
	c.mu.Unlock()
	addr := c.prefix + "-" + name
	srv := NewServer(addr, c.FS)
	if rpc.CanListen(c.Transport) {
		bound, err := rpc.Listen(c.Transport, srv.Handle)
		if err != nil {
			return "", err
		}
		addr = bound
		srv.Addr = bound
	} else if err := c.Transport.Register(addr, srv.Handle); err != nil {
		return "", err
	}
	c.mu.Lock()
	c.servers[addr] = srv
	c.addrs = append(c.addrs, addr)
	c.mu.Unlock()
	if _, err := c.Transport.Call(c.MasterAddr, "RegisterServer", enc(registerServerReq{Addr: addr})); err != nil {
		return "", err
	}
	srv.wire(c.Transport, c.MasterAddr, c.lease)
	return addr, nil
}

// KillServer simulates a server crash: its endpoint vanishes and its
// in-memory partitions are lost. The server's heartbeat loop is stopped
// too — deregistration only cuts inbound traffic, and a "dead" server
// that kept renewing its lease would never be declared dead by the
// master.
func (c *Cluster) KillServer(addr string) {
	c.Transport.Deregister(addr)
	c.mu.Lock()
	srv := c.servers[addr]
	delete(c.servers, addr)
	c.mu.Unlock()
	if srv != nil {
		srv.StopHeartbeat()
	}
}

// errStillLive is restartServer's refusal to replace a server that was
// never killed: a restart would wipe its state while its heartbeat loop
// kept running.
var errStillLive = errors.New("ps: server still live")

// restartServer is the master's recovery callback: it launches a fresh,
// empty server at the same endpoint after the container-provisioning
// delay. The master then drives Restore calls.
func (c *Cluster) restartServer(addr string) error {
	c.mu.Lock()
	live := c.servers[addr] != nil
	c.mu.Unlock()
	if live {
		return fmt.Errorf("%w, not restarting %s", errStillLive, addr)
	}
	if c.restartDelay > 0 {
		time.Sleep(c.restartDelay)
	}
	srv := NewServer(addr, c.FS)
	// Registration and the closed check happen under the cluster lock so
	// a restart sleeping through RestartDelay cannot re-register the
	// endpoint after Close deregistered everything.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("ps: cluster closed, not restarting %s", addr)
	}
	if err := c.Transport.Register(addr, srv.Handle); err != nil {
		c.mu.Unlock()
		return err
	}
	c.servers[addr] = srv
	c.mu.Unlock()
	srv.wire(c.Transport, c.MasterAddr, c.lease)
	return nil
}

// Close stops the master's loops (lease checker, periodic checkpoints,
// rebalancer) and every server's, then deregisters all endpoints.
func (c *Cluster) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.Master.StopLeases()
	c.Master.SetCheckpointInterval(0)
	c.Master.StopAutoRebalance()
	c.Transport.Deregister(c.MasterAddr)
	c.mu.Lock()
	servers := make([]*Server, 0, len(c.servers))
	for addr, srv := range c.servers {
		c.Transport.Deregister(addr)
		servers = append(servers, srv)
	}
	c.servers = make(map[string]*Server)
	c.mu.Unlock()
	for _, srv := range servers {
		srv.StopHeartbeat()
	}
}

// ServerStats reports per-server model statistics (model names,
// partition counts, approximate resident bytes) plus the exactly-once
// counters; it is also the reply of the Stats RPC.
type ServerStats struct {
	Addr       string
	Models     []string
	Partitions int
	Bytes      int64
	// MutApplied counts executed mutating handlers; MutReplayed counts
	// retried mutations answered from the dedup window instead. The chaos
	// harness sums these across servers to assert exactly-once delivery.
	MutApplied  int64
	MutReplayed int64
	// MutReplicated counts mutations this server forwarded to its backup;
	// ReplDropped counts forwards abandoned because the backup stayed
	// unreachable (the partition kept running in degraded single-copy
	// mode); Replicas counts partitions held in the replica role.
	MutReplicated int64
	ReplDropped   int64
	Replicas      int
	// Dead marks a server that could not be reached; its other fields
	// are zero.
	Dead bool
}

// Stats queries every server. An unreachable server does not abort the
// sweep: it is reported with Dead=true and the survivors are still
// summed — during a failover some endpoints are expected to be gone.
func (c *Cluster) Stats() ([]ServerStats, error) {
	return queryServerStats(c.Transport, c.ServerAddrs())
}

// FailoverStats fetches the master's failover counters.
func (c *Cluster) FailoverStats() (FailoverStats, error) {
	resp, err := c.Transport.Call(c.MasterAddr, "FailoverStats", nil)
	if err != nil {
		return FailoverStats{}, err
	}
	var st FailoverStats
	err = dec(resp, &st)
	return st, err
}

// MutationTotals sums the exactly-once counters across servers.
func (c *Cluster) MutationTotals() (applied, replayed int64, err error) {
	stats, err := c.Stats()
	if err != nil {
		return 0, 0, err
	}
	for _, s := range stats {
		applied += s.MutApplied
		replayed += s.MutReplayed
	}
	return applied, replayed, nil
}

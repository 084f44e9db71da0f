package ps

// Join/rejoin helpers for deployments where master, servers, and
// executors live in SEPARATE processes. In-process clusters wire a
// server straight into the master (cluster.go); a standalone server
// process instead races the master's startup and must retry its
// registration, and driver processes need RPC-level access to the
// stats the in-process harness reads off struct fields.

import (
	"errors"
	"fmt"
	"time"

	"psgraph/internal/rpc"
)

// JoinMaster registers srv with the master at masterAddr, retrying
// with capped backoff until timeout while the master is still coming
// up (or is mid-failover), then wires the server's outbound transport
// and — when hb > 0 — starts its heartbeat loop. It is the
// cross-process equivalent of NewCluster's RegisterServer + wire, and
// it is also the REJOIN path: a crash-restarted server process calls
// it again under its old address, and the master's RegisterServer
// clears the dead mark and re-points replication around it.
func JoinMaster(tr rpc.Transport, masterAddr string, srv *Server, hb, lease, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	retry := rpc.NewBackoff(5*time.Millisecond, 250*time.Millisecond, timeout)
	if _, err := retry.Call(tr, masterAddr, "RegisterServer", enc(registerServerReq{Addr: srv.Addr})); err != nil {
		if errors.Is(err, rpc.ErrUnreachable) {
			return fmt.Errorf("ps: master %s unreachable for %v registering %s: %w", masterAddr, timeout, srv.Addr, err)
		}
		return fmt.Errorf("ps: register %s with master %s: %w", srv.Addr, masterAddr, err)
	}
	srv.wire(tr, masterAddr, hb, lease)
	return nil
}

// wire gives a server its outbound transport — tr's per-source caller view
// when it has one, so injected partitions cut the server's own heartbeats
// and forwards too — and, when hb > 0, its heartbeat loop to master.
func (s *Server) wire(tr rpc.Transport, master string, hb, lease time.Duration) {
	if cv, ok := tr.(interface{ Caller(string) rpc.Transport }); ok {
		tr = cv.Caller(s.Addr)
	}
	s.SetOutbound(tr)
	if hb > 0 {
		s.StartHeartbeat(master, hb, lease)
	}
}

// queryServerStats sweeps the Stats RPC over addrs. An unreachable
// server is reported with Dead=true rather than aborting the sweep —
// during a failover some endpoints are expected to be gone.
func queryServerStats(tr rpc.Transport, addrs []string) ([]ServerStats, error) {
	var out []ServerStats
	for _, addr := range addrs {
		resp, err := tr.Call(addr, "Stats", nil)
		if err != nil {
			out = append(out, ServerStats{Addr: addr, Dead: true})
			continue
		}
		var r ServerStats
		if err := dec(resp, &r); err != nil {
			return nil, err
		}
		r.Addr = addr
		out = append(out, r)
	}
	return out, nil
}

// ServerStats queries the Stats RPC of each given server endpoint.
// Unreachable servers come back with Dead=true. This is how a driver
// process audits applied==sent against servers it does not host.
func (c *Client) ServerStats(addrs []string) ([]ServerStats, error) {
	return queryServerStats(c.tr, addrs)
}

// FailoverStats fetches the master's failover counters over RPC —
// the driver-process view of Cluster.FailoverStats.
func (c *Client) FailoverStats() (FailoverStats, error) {
	var st FailoverStats
	err := c.invoke(c.masterAddr, "FailoverStats", nil, &st)
	return st, err
}

// Package core is the PSGraph library proper: the paper's primary
// contribution. It couples the dataflow engine (Spark executors) with the
// distributed parameter server and implements the seven graph algorithms
// of the evaluation — PageRank, common neighbor, fast unfolding, k-core,
// triangle count (traditional graph), LINE (graph embedding) and
// GraphSage (graph neural network).
//
// The programming model mirrors Listing 1 of the paper: load the graph
// into an RDD, transform edge partitioning into vertex partitioning with
// groupBy, create models on the parameter server through the PS context,
// and let every executor compute on its partition while pulling/pushing
// model state through its PS agent.
package core

import (
	"cmp"
	"fmt"
	"sync/atomic"
	"time"

	"psgraph/internal/dataflow"
	"psgraph/internal/dfs"
	"psgraph/internal/ps"
	"psgraph/internal/rpc"
)

// Config sizes the simulated cluster. The executor/server split mirrors
// the paper's resource allocations (e.g. "100 executors (20GB) and 20
// parameter servers (15GB)" for Fig. 6).
type Config struct {
	// NumExecutors is the dataflow worker count. Defaults to 4.
	NumExecutors int
	// ExecutorMemBytes bounds each executor's memory (0 = unlimited).
	ExecutorMemBytes int64
	// NumServers is the parameter-server count. Defaults to 2.
	NumServers int
	// Partitions is the default RDD partition count. Defaults to
	// 2*NumExecutors.
	Partitions int
	// RestartDelay models executor container restart time after failure.
	RestartDelay time.Duration
	// NetLatency injects a per-RPC round-trip delay between executors and
	// parameter servers, modeling the datacenter network. Batched pulls
	// amortize it; per-key access patterns pay it in full.
	NetLatency time.Duration
	// UseTCP runs all executor↔PS traffic over real localhost TCP sockets
	// (length-prefixed binary frames) instead of the in-process transport.
	// Slower; useful to
	// validate that nothing depends on shared memory. NetLatency is
	// ignored in this mode (the loopback stack provides its own).
	UseTCP bool
	// Transport overrides the PS transport entirely (e.g. an rpc.Faulty
	// fault injector wrapping InProc or TCP). When set, UseTCP and
	// NetLatency are ignored.
	Transport rpc.Transport
	// Replicate enables live PS failover: heartbeat leases, epoch-fenced
	// layouts and primary/backup replication (see internal/ps). A server
	// death then promotes backups in place — no restart wait, no lost
	// acknowledged mutations — instead of restoring from checkpoints.
	Replicate bool
	// LeaseDuration enables the PS failure detector, heartbeat leases
	// (Table II recovery; see ps.ClusterConfig). Zero leaves it off,
	// unless Replicate defaults it.
	LeaseDuration time.Duration
}

// Context bundles everything an application needs: the DFS, the Spark
// context (dataflow engine), the PS cluster and a PS agent for the
// driver. Executors reuse the same agent — it is safe for concurrent use
// and, in-process, equivalent to the per-executor agents of Sec. III-C.
type Context struct {
	FS    *dfs.FS
	Spark *dataflow.Context
	PS    *ps.Cluster
	Agent *ps.Client

	cfg Config
	seq atomic.Int64
}

// NewContext builds a full PSGraph cluster (DFS + executors + parameter
// servers) in one process.
func NewContext(cfg Config) (*Context, error) {
	cfg.NumExecutors = cmp.Or(max(cfg.NumExecutors, 0), 4)
	cfg.NumServers = cmp.Or(max(cfg.NumServers, 0), 2)
	cfg.Partitions = cmp.Or(max(cfg.Partitions, 0), 2*cfg.NumExecutors)
	fs := dfs.NewDefault()
	spark := dataflow.NewContext(fs, dataflow.Config{
		NumExecutors:       cfg.NumExecutors,
		ExecutorMemBytes:   cfg.ExecutorMemBytes,
		DefaultParallelism: cfg.Partitions,
		RestartDelay:       cfg.RestartDelay,
	})
	tr := cfg.Transport
	if tr == nil {
		if cfg.UseTCP {
			tr = rpc.NewTCP()
		} else {
			inproc := rpc.NewInProc()
			inproc.SetLatency(cfg.NetLatency)
			tr = inproc
		}
	}
	cluster, err := ps.NewCluster(ps.ClusterConfig{
		NumServers:    cfg.NumServers,
		FS:            fs,
		Transport:     tr,
		RestartDelay:  cfg.RestartDelay,
		Replicate:     cfg.Replicate,
		LeaseDuration: cfg.LeaseDuration,
	})
	if err != nil {
		return nil, err
	}
	return &Context{
		FS:    fs,
		Spark: spark,
		PS:    cluster,
		Agent: cluster.NewClient(),
		cfg:   cfg,
	}, nil
}

// Close tears the cluster down.
func (c *Context) Close() {
	if c.PS != nil {
		c.PS.Close()
	}
}

// Partitions returns the default RDD partition count.
func (c *Context) Partitions() int { return c.cfg.Partitions }

// parts is n, or Partitions when n is not positive.
func (c *Context) parts(n int) int {
	if n > 0 {
		return n
	}
	return c.cfg.Partitions
}

// ModelName returns a unique model name with the given prefix, so
// successive algorithm runs in one context never collide.
func (c *Context) ModelName(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, c.seq.Add(1))
}

// syncK resolves a trainer's Sync mode to its clock ring's staleness bound
// k: "" and "asp" are -1 (ASP: no ring, no waiting), "bsp" is 0 (lock
// step) and "ssp" is staleness.
func syncK(sync string, staleness int) (int, error) {
	switch sync {
	case "", "asp":
		return -1, nil
	case "bsp":
		return 0, nil
	case "ssp":
		return staleness, nil
	}
	return 0, fmt.Errorf("core: sync must be \"\", \"bsp\", \"ssp\" or \"asp\", got %q", sync)
}

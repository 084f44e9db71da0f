// Command psnode runs ONE PSGraph role — master, parameter server, or
// executor agent — as a standalone OS process, for the multi-process
// deployment harness (internal/cluster). It binds a loopback TCP
// endpoint, publishes the bound address through -portfile, answers the
// Health readiness RPC, and drains gracefully on SIGTERM/SIGINT
// (background loops are stopped before the listener goes away, so an
// in-flight checkpoint finishes instead of tearing). SIGKILL is the
// chaos path: no cleanup runs, and recovery is the cluster's problem —
// which is the point.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"psgraph/internal/cluster"
)

func main() {
	var (
		role        = flag.String("role", "", "master | server | executor")
		addr        = flag.String("addr", "", "listen address (default: free loopback port)")
		masterAddr  = flag.String("master", "", "master address (server/executor roles)")
		portFile    = flag.String("portfile", "", "publish the bound address to this file")
		dfsDir      = flag.String("dfs", "", "shared checkpoint directory")
		replicate   = flag.Bool("replicate", false, "master: enable replication + leases")
		lease       = flag.Duration("lease", 0, "heartbeat lease: servers beat every lease/4, the master recovers a server silent this long")
		ckpt        = flag.Duration("ckpt", 0, "master: periodic checkpoint interval")
		joinTimeout = flag.Duration("join-timeout", 10*time.Second, "deadline for reaching the master")
	)
	flag.Parse()
	log.SetPrefix(fmt.Sprintf("psnode[%s/%d] ", *role, os.Getpid()))
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	node, err := cluster.StartNode(cluster.NodeConfig{
		Role:        *role,
		Addr:        *addr,
		MasterAddr:  *masterAddr,
		DFSDir:      *dfsDir,
		PortFile:    *portFile,
		Replicate:   *replicate,
		Lease:       *lease,
		Ckpt:        *ckpt,
		JoinTimeout: *joinTimeout,
	})
	if err != nil {
		log.Fatalf("start: %v", err)
	}
	log.Printf("listening on %s", node.Addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("%v: draining", s)
		node.Close()
	case err := <-node.Fatal():
		log.Printf("fatal: %v", err)
		node.Close()
		os.Exit(1)
	}
}

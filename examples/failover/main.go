// Failure recovery (Sec. III-B, Table II): a common-neighbor job keeps
// running while a parameter server is killed mid-flight. Its heartbeat
// lease expires, the master restarts the server, and it restores the
// checkpointed neighbor tables from the DFS; blocked executors retry
// their pulls and the job finishes with correct results.
//
// Run with -live for the live-failover protocol instead: the same lease
// expiry promotes the dead server's backups in place (no container
// restart, no checkpoint rollback), and the job barely notices.
//
//	go run ./examples/failover [-live]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"psgraph"
)

func main() {
	live := flag.Bool("live", false, "use primary/backup replication instead of checkpoint restart")
	flag.Parse()
	cfg := psgraph.Config{
		NumExecutors:  4,
		NumServers:    3,
		LeaseDuration: 50 * time.Millisecond, // lease expiry = server declared dead
		RestartDelay:  200 * time.Millisecond,
	}
	if *live {
		cfg.Replicate = true               // every partition has a backup
		cfg.RestartDelay = 5 * time.Second // never waited out: backups promote in place
		fmt.Println("mode: live failover (leases + replication)")
	} else {
		fmt.Println("mode: checkpoint restart (leases + DFS restore)")
	}
	ctx, err := psgraph.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer ctx.Close()

	edges := psgraph.GenerateRMAT(psgraph.RMATConfig{Scale: 12, Edges: 60_000, Seed: 5})
	rdd := psgraph.ParallelizeEdges(ctx, edges, 0)
	pairs := psgraph.ParallelizeEdges(ctx, edges[:20_000], 0)

	model, err := psgraph.BuildNeighborModel(ctx, rdd, true, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer model.Close(ctx)

	// Checkpoint the neighbor tables so a replacement server can restore
	// them from the DFS.
	if err := ctx.Agent.Checkpoint(model.Name); err != nil {
		log.Fatal(err)
	}
	fmt.Println("neighbor tables pushed to PS and checkpointed")

	// Reference run without failure.
	ref, err := psgraph.CommonNeighbor(ctx, model, pairs, psgraph.CommonNeighborConfig{})
	if err != nil {
		log.Fatal(err)
	}
	refRows, _ := ref.Collect()
	refSum := int64(0)
	for _, kv := range refRows {
		refSum += kv.V
	}

	// Now kill a server mid-run.
	victim := ctx.PS.ServerAddrs()[0]
	go func() {
		time.Sleep(50 * time.Millisecond)
		fmt.Printf("killing parameter server %s mid-job...\n", victim)
		ctx.PS.KillServer(victim)
	}()

	start := time.Now()
	scored, err := psgraph.CommonNeighbor(ctx, model, pairs, psgraph.CommonNeighborConfig{})
	if err != nil {
		log.Fatalf("job failed despite recovery: %v", err)
	}
	rows, _ := scored.Collect()
	sum := int64(0)
	for _, kv := range rows {
		sum += kv.V
	}
	fmt.Printf("job finished in %v after PS failure and recovery\n", time.Since(start).Round(1e6))
	if sum == refSum {
		fmt.Printf("results identical to the failure-free run (checksum %d over %d pairs)\n", sum, len(rows))
	} else {
		fmt.Printf("WARNING: checksum mismatch: %d vs %d\n", sum, refSum)
	}
	if *live {
		if st, err := ctx.PS.FailoverStats(); err == nil {
			fmt.Printf("failover stats: epoch=%d promotions=%d reseeds=%d degraded=%d\n",
				st.Epoch, st.Promotions, st.Reseeds, st.Degraded)
		}
	}
}

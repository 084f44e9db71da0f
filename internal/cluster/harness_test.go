package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"psgraph/internal/ps"
)

// startOrSkip starts a process cluster, skipping (with the reason)
// when the host cannot support it — satellite contract for single-CPU
// or port-exhausted runners.
func startOrSkip(t *testing.T, cfg Config) *ProcCluster {
	t.Helper()
	cfg.Log = t.Logf
	pc, err := StartCluster(cfg)
	if err != nil {
		if errors.Is(err, ErrConstrained) {
			t.Skipf("constrained host: %v", err)
		}
		t.Fatal(err)
	}
	return pc
}

// TestProcClusterKill9Rejoin is the tentpole end-to-end: real OS
// processes on loopback TCP, a real kill -9 of a primary server while
// executor processes stream mutations, lease-based failover with
// in-place promotion, then a crash-restart REJOIN of the killed
// address — audited exactly-once from the driver process:
// applied == sent across live servers, and component-0 mass equals
// acked row-updates with zero lost.
func TestProcClusterKill9Rejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	// Lease 250ms: long enough that a scheduling stall on a loaded
	// single-CPU runner does not spuriously fail over a HEALTHY server;
	// recovery speed does not depend on it, because the crash-restart
	// re-registration itself triggers the failover ladder.
	pc := startOrSkip(t, Config{
		Servers:   2,
		Executors: 2,
		Replicate: true,
		Lease:     250 * time.Millisecond,
	})
	defer pc.Close()

	cl := pc.NewClient()
	const rows = 256
	emb, err := cl.CreateEmbedding(ps.EmbeddingSpec{Name: "emb", Dim: 8, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Stream load from every executor process concurrently.
	execs := pc.Executors()
	resps := make([]LoadResp, len(execs))
	errs := make([]error, len(execs))
	var wg sync.WaitGroup
	for i, p := range execs {
		wg.Add(1)
		go func(i int, p *Proc) {
			defer wg.Done()
			resps[i], errs[i] = pc.RunLoad(p, LoadReq{
				Model: "emb", Rows: rows, Dim: 8,
				Pushes: 150, Batch: 8, Seed: int64(1000 + i), ThinkMicros: 2000,
			})
		}(i, p)
	}

	// Mid-stream, kill -9 the primary of partition 0.
	time.Sleep(120 * time.Millisecond)
	victimAddr := emb.Meta.Parts[0].Server
	var victim *Proc
	for _, p := range pc.Servers() {
		if p.Addr == victimAddr {
			victim = p
		}
	}
	if victim == nil {
		t.Fatalf("no server process at %s", victimAddr)
	}
	pc.Kill9(victim)

	// Relaunch under the OLD address: the master must treat this as a
	// rejoin (dead mark cleared, replication reseeded around it).
	restarted, err := pc.RestartServer(victim)
	if err != nil {
		t.Fatalf("crash-restart: %v", err)
	}

	wg.Wait()
	var acked, sent, retried, failed int64
	for i := range execs {
		if errs[i] != nil {
			t.Fatalf("executor %d load: %v", i, errs[i])
		}
		acked += resps[i].Acked
		sent += resps[i].Sent
		retried += resps[i].Retried
		failed += resps[i].Failed
	}
	if failed != 0 {
		for i, r := range resps {
			if r.Failed > 0 {
				t.Logf("executor %d: failed=%d last=%s", i, r.Failed, r.LastErr)
			}
		}
		t.Fatalf("%d pushes failed outright — audit ambiguous", failed)
	}
	if acked == 0 {
		t.Fatal("no load was applied")
	}

	// The kill must have been observed as a promotion, not a silent
	// blip: partition 0's primary died mid-stream.
	fo, err := cl.FailoverStats()
	if err != nil {
		t.Fatal(err)
	}
	if fo.Promotions == 0 {
		t.Fatalf("kill -9 of %s produced no promotion: %+v", victimAddr, fo)
	}

	// Exactly-once across a real process death: what the executors sent
	// (plus the driver's own guarded calls) is what the surviving
	// servers applied — replayed retries answered from the dedup window.
	dSent, _ := cl.MutationStats()
	stats, err := cl.ServerStats(append(pc.LiveServerAddrs(), restarted.Addr))
	if err != nil {
		t.Fatal(err)
	}
	var applied int64
	seen := map[string]bool{}
	for _, s := range stats {
		if seen[s.Addr] {
			continue
		}
		seen[s.Addr] = true
		if s.Dead {
			t.Fatalf("server %s unreachable after rejoin", s.Addr)
		}
		applied += s.MutApplied
	}
	if want := sent + dSent; applied != want {
		t.Fatalf("applied=%d sent=%d (executors %d + driver %d): lost or duplicated mutations", applied, want, sent, dSent)
	}

	// Mass conservation: every acked row-update added exactly 1.0 to
	// component 0, so the total mass across all rows must equal acked.
	ids := make([]int64, rows)
	for i := range ids {
		ids[i] = int64(i)
	}
	final, err := emb.Pull(ids)
	if err != nil {
		t.Fatal(err)
	}
	var mass float64
	for _, vec := range final {
		mass += vec[0]
	}
	if int64(mass+0.5) != acked {
		t.Fatalf("component-0 mass %.1f != acked %d: lost updates across the kill", mass, acked)
	}
	t.Logf("acked=%d sent=%d retried=%d promotions=%d reseeds=%d", acked, sent, retried, fo.Promotions, fo.Reseeds)
}

// TestProcClusterGracefulStop verifies SIGTERM drain: Close signals every
// role, and each exits cleanly (status 0) within Close's grace period
// rather than being shot.
func TestProcClusterGracefulStop(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	pc := startOrSkip(t, Config{Servers: 2, Executors: 1})
	procs := append(append(pc.Executors(), pc.Servers()...), pc.Master)
	pc.Close()
	for _, p := range procs {
		if p.wErr != nil {
			t.Fatalf("%s did not drain cleanly on SIGTERM: %v", p.Name, p.wErr)
		}
	}
}

package bench

// Cluster benchmark: recovery across a REAL kill -9. Unlike the
// failover benchmark (in-process endpoints), every role here is a
// separate psnode OS process on loopback TCP, spawned by the cluster
// harness: a master, replicated parameter servers, and executor agents
// that stream guarded pushes. Mid-stream the primary of partition 0 is
// shot with kill -9 and relaunched under its old address; the report
// records how long detection took (first promotion), the client-visible
// outage (a driver push into a victim-owned partition), how long the
// relaunched process needed to rejoin ready, and the lost-update count
// — which must be zero, audited end-to-end from the driver process:
// server apply counters equal the agents' send counters, and the
// models' component-0 mass equals the acknowledged row-updates.
// psbench -exp cluster prints the table and records BENCH_cluster.json.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"psgraph/internal/cluster"
	"psgraph/internal/ps"
)

// ClusterReport is the full process-cluster benchmark result.
type ClusterReport struct {
	Servers     int     `json:"servers"`
	Executors   int     `json:"executors"`
	LeaseMillis float64 `json:"lease_ms"`
	Rows        int64   `json:"rows"`
	Pushes      int     `json:"pushes_per_executor"`

	// Skipped is set (with the reason) when the host cannot run a
	// multi-process fleet; every other field is then zero.
	Skipped string `json:"skipped,omitempty"`

	// DetectMillis: kill -> first backup promotion recorded by the master.
	DetectMillis float64 `json:"detect_ms"`
	// RecoverMillis: kill -> a driver push into a victim-owned partition
	// succeeds again (the client-visible outage).
	RecoverMillis float64 `json:"recover_ms"`
	// RejoinMillis: relaunch of the killed process -> ready (registered,
	// failover ladder run, heartbeats flowing).
	RejoinMillis float64 `json:"rejoin_ms"`

	// Exactly-once audit, gathered from the driver process over TCP.
	Acked      int64   `json:"acked"`
	Mass       float64 `json:"mass"`
	Lost       int64   `json:"lost"`
	Failed     int64   `json:"failed"`
	Applied    int64   `json:"applied"`
	Sent       int64   `json:"sent"`
	Retried    int64   `json:"retried"`
	Promotions int64   `json:"promotions"`
	Reseeds    int64   `json:"reseeds"`

	Pass bool `json:"pass"`
}

// ClusterConfig sizes the process-cluster benchmark.
type ClusterConfig struct {
	Servers   int
	Executors int
	Rows      int64
	Pushes    int // per executor
	Batch     int
	Lease     time.Duration
	Timeout   time.Duration // cap on the whole run
}

// DefaultClusterConfig sizes the benchmark for a scale preset.
func DefaultClusterConfig(s Scale) ClusterConfig {
	cfg := ClusterConfig{
		Servers: 2, Executors: 2,
		Rows: 256, Pushes: 150, Batch: 8,
		Lease:   250 * time.Millisecond,
		Timeout: 2 * time.Minute,
	}
	if s.Name == "medium" {
		cfg.Pushes = 400
	}
	return cfg
}

// RunClusterBench runs the kill -9 scenario against a real process
// fleet. A constrained host (ports or fds exhausted, single-CPU floor
// not meetable) yields a skipped-but-passing report instead of an
// error, so smokes on tiny runners do not flake.
func RunClusterBench(cfg ClusterConfig) (*ClusterReport, error) {
	rep := &ClusterReport{
		Servers:     cfg.Servers,
		Executors:   cfg.Executors,
		LeaseMillis: float64(cfg.Lease) / float64(time.Millisecond),
		Rows:        cfg.Rows,
		Pushes:      cfg.Pushes,
	}
	pc, err := cluster.StartCluster(cluster.Config{
		Servers:   cfg.Servers,
		Executors: cfg.Executors,
		Replicate: true,
		Lease:     cfg.Lease,
	})
	if err != nil {
		if errors.Is(err, cluster.ErrConstrained) {
			rep.Skipped, rep.Pass = err.Error(), true
			return rep, nil
		}
		return nil, err
	}
	defer pc.Close()

	cl := pc.NewClient()
	const dim = 8
	emb, err := cl.CreateEmbedding(ps.EmbeddingSpec{Name: "clu", Dim: dim, Partitions: 4})
	if err != nil {
		return nil, err
	}

	execs := pc.Executors()
	resps := make([]cluster.LoadResp, len(execs))
	errs := make([]error, len(execs))
	var wg sync.WaitGroup
	for i, p := range execs {
		wg.Add(1)
		go func(i int, p *cluster.Proc) {
			defer wg.Done()
			resps[i], errs[i] = pc.RunLoad(p, cluster.LoadReq{
				Model: "clu", Rows: cfg.Rows, Dim: dim,
				Pushes: cfg.Pushes, Batch: cfg.Batch,
				Seed: int64(100 + i), ThinkMicros: 2000,
			})
		}(i, p)
	}

	// Let the stream reach steady state, then shoot partition 0's primary.
	time.Sleep(100 * time.Millisecond)
	victimAddr := emb.Meta.Parts[0].Server
	var victim *cluster.Proc
	for _, p := range pc.Servers() {
		if p.Addr == victimAddr {
			victim = p
		}
	}
	if victim == nil {
		return nil, fmt.Errorf("bench: no server process at %s", victimAddr)
	}
	t0 := time.Now()
	pc.Kill9(victim)

	// Detection: first promotion the master records, polled from the
	// driver. Runs while the outage probe below blocks in its retry loop.
	detected := make(chan float64, 1)
	go func() {
		probe := pc.NewClient()
		deadline := t0.Add(cfg.Timeout)
		for {
			if st, err := probe.FailoverStats(); err == nil && st.Promotions > 0 {
				detected <- float64(time.Since(t0)) / float64(time.Millisecond)
				return
			}
			if time.Now().After(deadline) {
				detected <- -1
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// The client-visible outage: push into a row the victim owned. The
	// update goes to component 1 so the component-0 mass audit of the
	// executors' stream stays exact.
	victimRow := int64(-1)
	for id := int64(0); id < cfg.Rows; id++ {
		if emb.Meta.PartitionFor(id) == emb.Meta.Parts[0].Index {
			victimRow = id
			break
		}
	}
	if victimRow < 0 {
		return nil, fmt.Errorf("bench: no row maps to partition %d", emb.Meta.Parts[0].Index)
	}
	probeVec := make([]float64, dim)
	probeVec[1] = 1
	if err := emb.PushAdd(map[int64][]float64{victimRow: probeVec}); err != nil {
		return nil, fmt.Errorf("bench: outage probe push: %w", err)
	}
	rep.RecoverMillis = float64(time.Since(t0)) / float64(time.Millisecond)
	rep.DetectMillis = <-detected

	// Crash-restart: relaunch under the OLD address and time the rejoin.
	t1 := time.Now()
	restarted, err := pc.RestartServer(victim)
	if err != nil {
		return nil, fmt.Errorf("bench: crash-restart: %w", err)
	}
	rep.RejoinMillis = float64(time.Since(t1)) / float64(time.Millisecond)

	wg.Wait()
	for i := range execs {
		if errs[i] != nil {
			return nil, fmt.Errorf("bench: executor %d load: %w", i, errs[i])
		}
		rep.Acked += resps[i].Acked
		rep.Sent += resps[i].Sent
		rep.Retried += resps[i].Retried
		rep.Failed += resps[i].Failed
	}
	if fo, err := cl.FailoverStats(); err == nil {
		rep.Promotions, rep.Reseeds = fo.Promotions, fo.Reseeds
	}
	// applied == sent, audited across every live server (the driver's own
	// guarded sends — CreateModel, the outage probe — count too).
	dSent, _ := cl.MutationStats()
	rep.Sent += dSent
	stats, err := cl.ServerStats(append(pc.LiveServerAddrs(), restarted.Addr))
	if err != nil {
		return nil, fmt.Errorf("bench: server stats: %w", err)
	}
	seen := map[string]bool{}
	for _, s := range stats {
		if seen[s.Addr] {
			continue
		}
		seen[s.Addr] = true
		if s.Dead {
			return nil, fmt.Errorf("bench: server %s unreachable after rejoin", s.Addr)
		}
		rep.Applied += s.MutApplied
	}
	ids := make([]int64, cfg.Rows)
	for i := range ids {
		ids[i] = int64(i)
	}
	final, err := emb.Pull(ids)
	if err != nil {
		return nil, fmt.Errorf("bench: final pull: %w", err)
	}
	for _, vec := range final {
		rep.Mass += vec[0]
	}
	rep.Lost = rep.Acked - int64(rep.Mass+0.5)

	rep.Pass = rep.Failed == 0 &&
		rep.Acked > 0 &&
		rep.Promotions > 0 &&
		rep.Lost == 0 &&
		rep.Applied == rep.Sent &&
		rep.DetectMillis >= 0
	return rep, nil
}

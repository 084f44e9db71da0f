package bench

// Master-HA benchmark: crash-restart of the METADATA plane. Every role
// is a separate psnode OS process; mid-stream the MASTER is shot with
// kill -9, left dead for a dwell window, and relaunched under its old
// address, where it replays the metadata WAL from the shared DFS before
// listening. The report records kill -> master-ready time, the
// client-visible stall (kill -> the driver's first successful master
// RPC over its pre-kill pooled connection), and the end-to-end audit:
// the executors' push streams must ride the outage with zero failures,
// zero lost updates, applied == sent, no spurious failover out of the
// post-restart grace window, and a monotone epoch (the WAL's high-water
// mark). psbench -exp masterha prints the table and records
// BENCH_masterha.json.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"psgraph/internal/cluster"
	"psgraph/internal/ps"
)

// MasterHAReport is the full master crash-restart benchmark result.
type MasterHAReport struct {
	Servers      int     `json:"servers"`
	Executors    int     `json:"executors"`
	LeaseMillis  float64 `json:"lease_ms"`
	OutageMillis float64 `json:"outage_ms"`
	Rows         int64   `json:"rows"`
	Pushes       int     `json:"pushes_per_executor"`

	// Skipped is set (with the reason) when the host cannot run a
	// multi-process fleet; every other field is then zero.
	Skipped string `json:"skipped,omitempty"`

	// ReadyMillis: kill -> the relaunched master process is healthy
	// (WAL replayed, listener up, fleet state restored).
	ReadyMillis float64 `json:"ready_ms"`
	// StallMillis: kill -> the driver's first successful master RPC,
	// issued over a connection pooled BEFORE the kill — the
	// client-visible metadata-plane stall, including pool redial.
	StallMillis float64 `json:"stall_ms"`

	// Epoch high-water mark across the restart: After < Before means
	// the replayed master could publish stale layouts.
	EpochBefore int64 `json:"epoch_before"`
	EpochAfter  int64 `json:"epoch_after"`
	// Parts of the pre-kill split layout the replay must preserve.
	Parts int `json:"parts"`

	// Exactly-once audit, gathered from the driver process over TCP.
	Acked      int64   `json:"acked"`
	Mass       float64 `json:"mass"`
	Lost       int64   `json:"lost"`
	Failed     int64   `json:"failed"`
	Applied    int64   `json:"applied"`
	Sent       int64   `json:"sent"`
	Retried    int64   `json:"retried"`
	Promotions int64   `json:"promotions"`

	Pass bool `json:"pass"`
}

// MasterHAConfig sizes the master crash-restart benchmark.
type MasterHAConfig struct {
	Servers   int
	Executors int
	Rows      int64
	Pushes    int // per executor
	Batch     int
	Lease     time.Duration
	Outage    time.Duration // dwell between kill -9 and relaunch
	Timeout   time.Duration // cap on the whole run
}

// DefaultMasterHAConfig sizes the benchmark for a scale preset.
func DefaultMasterHAConfig(s Scale) MasterHAConfig {
	cfg := MasterHAConfig{
		Servers: 2, Executors: 2,
		Rows: 256, Pushes: 150, Batch: 8,
		Lease:   250 * time.Millisecond,
		Outage:  250 * time.Millisecond,
		Timeout: 2 * time.Minute,
	}
	if s.Name == "medium" {
		cfg.Pushes = 400
	}
	return cfg
}

// RunMasterHABench runs the master kill -9 scenario against a real
// process fleet. A constrained host yields a skipped-but-passing report
// instead of an error, so smokes on tiny runners do not flake.
func RunMasterHABench(cfg MasterHAConfig) (*MasterHAReport, error) {
	rep := &MasterHAReport{
		Servers:      cfg.Servers,
		Executors:    cfg.Executors,
		LeaseMillis:  float64(cfg.Lease) / float64(time.Millisecond),
		OutageMillis: float64(cfg.Outage) / float64(time.Millisecond),
		Rows:         cfg.Rows,
		Pushes:       cfg.Pushes,
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
	if _, err := cl.CreateEmbedding(ps.EmbeddingSpec{Name: "mha", Dim: dim, Partitions: 4}); err != nil {
		return nil, err
	}
	// Split before the kill so the epoch high-water mark and the
	// five-partition layout are both observable through the replay.
	if err := cl.SplitPartition("mha", 0, ""); err != nil {
		return nil, fmt.Errorf("bench: pre-kill split: %w", err)
	}
	foPre, err := cl.FailoverStats()
	if err != nil {
		return nil, err
	}
	rep.EpochBefore = foPre.Epoch

	execs := pc.Executors()
	resps := make([]cluster.LoadResp, len(execs))
	errs := make([]error, len(execs))
	var wg sync.WaitGroup
	for i, p := range execs {
		wg.Add(1)
		go func(i int, p *cluster.Proc) {
			defer wg.Done()
			resps[i], errs[i] = pc.RunLoad(p, cluster.LoadReq{
				Model: "mha", Rows: cfg.Rows, Dim: dim,
				Pushes: cfg.Pushes, Batch: cfg.Batch,
				Seed: int64(300 + i), ThinkMicros: 2000,
			})
		}(i, p)
	}

	// Let the stream reach steady state, then shoot the master. The
	// probe client makes one successful call first so its pooled master
	// connection predates the kill — the stall below therefore includes
	// the pool's dead-connection eviction and redial.
	time.Sleep(100 * time.Millisecond)
	probe := pc.NewClient()
	if _, err := probe.FailoverStats(); err != nil {
		return nil, fmt.Errorf("bench: pre-kill probe: %w", err)
	}
	pc.KillMaster()
	t0 := time.Now()

	stalled := make(chan float64, 1)
	go func() {
		deadline := t0.Add(cfg.Timeout)
		for {
			if _, err := probe.FailoverStats(); err == nil {
				stalled <- float64(time.Since(t0)) / float64(time.Millisecond)
				return
			}
			if time.Now().After(deadline) {
				stalled <- -1
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Leave the metadata plane dark for the dwell window — the push
	// streams must keep flowing against the servers the whole time —
	// then relaunch under the old address and time the fenced recovery.
	if cfg.Outage > 0 {
		time.Sleep(cfg.Outage)
	}
	if _, err := pc.RestartMaster(); err != nil {
		return nil, fmt.Errorf("bench: master crash-restart: %w", err)
	}
	rep.ReadyMillis = float64(time.Since(t0)) / float64(time.Millisecond)
	rep.StallMillis = <-stalled

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

	// Fresh client against the restarted master: the replayed metadata,
	// not a cached layout, must carry the whole audit.
	cl2 := pc.NewClient()
	fo, err := cl2.FailoverStats()
	if err != nil {
		return nil, fmt.Errorf("bench: post-restart stats: %w", err)
	}
	rep.EpochAfter, rep.Promotions = fo.Epoch, fo.Promotions
	meta, err := cl2.GetModel("mha")
	if err != nil {
		return nil, fmt.Errorf("bench: GetModel after restart: %w", err)
	}
	rep.Parts = len(meta.Parts)
	// applied == sent, audited across every live server (the driver's
	// own guarded sends — CreateEmbedding, the split — count too).
	dSent, _ := cl.MutationStats()
	rep.Sent += dSent
	stats, err := cl2.ServerStats(pc.LiveServerAddrs())
	if err != nil {
		return nil, fmt.Errorf("bench: server stats: %w", err)
	}
	for _, s := range stats {
		if s.Dead {
			return nil, fmt.Errorf("bench: server %s unreachable after master restart", s.Addr)
		}
		rep.Applied += s.MutApplied
	}
	emb, err := cl2.Embedding("mha")
	if err != nil {
		return nil, fmt.Errorf("bench: embedding handle after restart: %w", err)
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
		rep.Lost == 0 &&
		rep.Applied == rep.Sent &&
		rep.Promotions == 0 && // grace window held: no spurious failover
		rep.EpochAfter >= rep.EpochBefore &&
		rep.EpochBefore > 0 &&
		rep.Parts == 5 &&
		rep.StallMillis >= 0
	return rep, nil
}

package bench

// Failover benchmark: the same server-kill scenario under the two
// recovery protocols the PS supports — lease-driven backup promotion
// (live failover) and monitor-driven checkpoint restart (the paper's
// Table II protocol). A pusher streams acknowledged increments into a
// partitioned vector, one server is killed mid-stream, and the report
// records how long the victim's partitions stayed unwritable and how
// many acknowledged updates the recovery lost. Promotion must win on
// both axes: detection is bounded by the lease (not the monitor's poll
// round), recovery skips the container RestartDelay entirely, and the
// backup already holds every acknowledged mutation, while a checkpoint
// restart rolls the victim's partitions back to the last snapshot.
// psbench -exp failover prints the table and records BENCH_failover.json.

import (
	"fmt"
	"time"

	"psgraph/internal/ps"
)

// FailoverMode is the measured outcome of one recovery protocol.
type FailoverMode struct {
	Mode string `json:"mode"` // "promotion" or "checkpoint-restart"
	// DetectMillis is the time from the kill until the master acted on
	// the death (first promotion recorded, or the victim endpoint
	// restarted and answering again).
	DetectMillis float64 `json:"detect_ms"`
	// RecoverMillis is the client-visible outage: time from the kill
	// until a push to a victim-owned partition succeeds again.
	RecoverMillis float64 `json:"recover_ms"`
	// Acked counts pushes the client got an ack for; Sum is the vector
	// mass actually present after recovery; Lost is their difference —
	// acknowledged updates the recovery threw away.
	Acked int64   `json:"acked"`
	Sum   float64 `json:"sum"`
	Lost  int64   `json:"lost"`
	// Applied/Sent are the exactly-once counters after the run.
	Applied    int64 `json:"applied"`
	Sent       int64 `json:"sent"`
	Promotions int64 `json:"promotions"`
}

// FailoverReport is the full failover benchmark result.
type FailoverReport struct {
	Servers       int            `json:"servers"`
	Parts         int            `json:"parts"`
	LeaseMillis   float64        `json:"lease_ms"`
	MonitorMillis float64        `json:"monitor_ms"`
	RestartMillis float64        `json:"restart_ms"`
	PushesPerLeg  int            `json:"pushes_per_leg"`
	Modes         []FailoverMode `json:"modes"`
	// PromotionWins reports that lease promotion beat checkpoint restart
	// on both recovery latency and lost-update count.
	PromotionWins bool `json:"promotion_wins"`
}

// FailoverConfig sizes the failover benchmark.
type FailoverConfig struct {
	Servers int
	Parts   int
	Size    int64 // vector length
	Pushes  int   // pushes per leg (before checkpoint / before kill / after kill)
	Lease   time.Duration
	Monitor time.Duration
	Restart time.Duration // container-provisioning delay of the restart path
}

// DefaultFailoverConfig sizes the benchmark for a scale preset.
func DefaultFailoverConfig(s Scale) FailoverConfig {
	cfg := FailoverConfig{
		Servers: 2, Parts: 4, Size: 64, Pushes: 200,
		Lease:   40 * time.Millisecond,
		Monitor: 20 * time.Millisecond,
		Restart: 250 * time.Millisecond,
	}
	if s.Name == "medium" {
		cfg.Pushes = 600
	}
	return cfg
}

// RunFailoverBench runs the kill scenario under both recovery protocols.
func RunFailoverBench(cfg FailoverConfig) (*FailoverReport, error) {
	rep := &FailoverReport{
		Servers:       cfg.Servers,
		Parts:         cfg.Parts,
		LeaseMillis:   float64(cfg.Lease) / float64(time.Millisecond),
		MonitorMillis: float64(cfg.Monitor) / float64(time.Millisecond),
		RestartMillis: float64(cfg.Restart) / float64(time.Millisecond),
		PushesPerLeg:  cfg.Pushes,
	}
	for _, mode := range []string{"promotion", "checkpoint-restart"} {
		m, err := runFailoverMode(mode, cfg)
		if err != nil {
			return nil, fmt.Errorf("failover bench (%s): %w", mode, err)
		}
		rep.Modes = append(rep.Modes, m)
	}
	promo, restart := rep.Modes[0], rep.Modes[1]
	rep.PromotionWins = promo.RecoverMillis < restart.RecoverMillis && promo.Lost < restart.Lost
	return rep, nil
}

// runFailoverMode runs one protocol: stream acked pushes, checkpoint,
// stream more, kill a server, time the outage, stream the rest, audit
// what survived.
func runFailoverMode(mode string, cfg FailoverConfig) (FailoverMode, error) {
	m := FailoverMode{Mode: mode}
	ccfg := ps.ClusterConfig{
		NumServers: cfg.Servers,
		NamePrefix: "fob-" + mode,
	}
	if mode == "promotion" {
		ccfg.Replicate = true
		ccfg.LeaseDuration = cfg.Lease
		ccfg.RestartDelay = cfg.Restart // present but never waited out
	} else {
		ccfg.MonitorInterval = cfg.Monitor
		ccfg.RestartDelay = cfg.Restart
	}
	cluster, err := ps.NewCluster(ccfg)
	if err != nil {
		return m, err
	}
	defer cluster.Close()
	agent := cluster.NewClient()
	vec, err := agent.CreateDenseVector(ps.DenseVectorSpec{
		Name: "fo", Size: cfg.Size, Partitions: cfg.Parts,
	})
	if err != nil {
		return m, err
	}

	push := func(n int) error {
		for i := 0; i < n; i++ {
			idx := int64(i*7) % cfg.Size // cycle across every partition
			if err := vec.PushAdd([]int64{idx}, []float64{1}); err != nil {
				return err
			}
			m.Acked++
		}
		return nil
	}

	// Leg 1: steady state, then a periodic checkpoint lands.
	if err := push(cfg.Pushes); err != nil {
		return m, err
	}
	if err := agent.Checkpoint("fo"); err != nil {
		return m, err
	}
	// Leg 2: pushes after the snapshot — exactly what a checkpoint
	// restart cannot bring back and a promoted backup must.
	if err := push(cfg.Pushes); err != nil {
		return m, err
	}

	victim := cluster.ServerAddrs()[1]
	// victimIdx lives in partition 1 (round-robin layout puts the odd
	// partitions on the second server).
	victimIdx := cfg.Size / int64(cfg.Parts)
	detected := make(chan float64, 1)
	t0 := time.Now()
	cluster.KillServer(victim)
	go func() {
		for {
			if mode == "promotion" {
				if st, err := cluster.FailoverStats(); err == nil && st.Promotions > 0 {
					detected <- float64(time.Since(t0)) / float64(time.Millisecond)
					return
				}
			} else {
				alive := true
				stats, err := cluster.Stats()
				if err == nil {
					for _, s := range stats {
						if s.Addr == victim && s.Dead {
							alive = false
						}
					}
				}
				if err == nil && alive {
					detected <- float64(time.Since(t0)) / float64(time.Millisecond)
					return
				}
			}
			if time.Since(t0) > 10*time.Second {
				detected <- -1
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// The outage as a client sees it: this push targets a partition the
	// victim owned and blocks in the retry loop until recovery resolves.
	if err := vec.PushAdd([]int64{victimIdx}, []float64{1}); err != nil {
		return m, err
	}
	m.Acked++
	m.RecoverMillis = float64(time.Since(t0)) / float64(time.Millisecond)
	m.DetectMillis = <-detected

	// Leg 3: steady state resumes on the recovered layout.
	if err := push(cfg.Pushes); err != nil {
		return m, err
	}

	vals, err := vec.PullAll()
	if err != nil {
		return m, err
	}
	for _, v := range vals {
		m.Sum += v
	}
	m.Lost = m.Acked - int64(m.Sum)
	m.Applied, _, err = cluster.MutationTotals()
	if err != nil {
		return m, err
	}
	m.Sent, _ = agent.MutationStats()
	if st, err := cluster.FailoverStats(); err == nil {
		m.Promotions = st.Promotions
	}
	return m, nil
}

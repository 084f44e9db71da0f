package bench

// Serving-tier benchmark: skewed mixed pulls against a live training
// cluster.
//
// An online recommender reads the embedding table the trainers are
// still writing: lookups follow a power law (a small hot head of
// celebrity items absorbs most of the traffic) and must not contend
// with the gradient stream. This benchmark builds that workload — M
// serve agents issue batched pulls, 90% drawn from a small hot head,
// while N trainers keep pushing gradients — and measures where the rows
// came from. The headline gates are pure counts, immune to host timing:
// the snapshot tier (local row cache + replicated hot head + snapshot
// replicas) must absorb at least 90% of the served rows without
// touching a mutable primary, the hot head must hit the local cache at
// least 80% of the time it is asked for, and exactly-once mutation
// accounting must hold across the concurrent phases. Pull p50/p99,
// serve QPS, and the trainers' push throughput next to a no-serving
// control run are reported as texture: on a single-CPU host everything
// is compute-bound and the ratios are scheduler noise, while on real
// hosts they show the offload (reads scale without touching the write
// path). psbench -exp serve prints the table and records
// BENCH_serve.json.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"psgraph/internal/ps"
)

// ServeConfig sizes the serving-tier benchmark.
type ServeConfig struct {
	Servers   int
	Rows      int // id universe
	HotHead   int // ids forming the power-law head
	Dim       int
	Parts     int
	Trainers  int
	Agents    int // serve agents
	Batch     int // rows per pull / rows per push
	Pushes    int // pushes per trainer per phase
	Pulls     int // pulls per serve agent in the measured phase
	HotFrac   float64
	Replicas  int
	HotKeys   int // replicated hot-head size
	CacheRows int // per-agent row-cache cap
}

// DefaultServeConfig sizes the benchmark for a scale preset.
func DefaultServeConfig(s Scale) ServeConfig {
	cfg := ServeConfig{
		Servers: 3, Rows: 8192, HotHead: 48, Dim: 32, Parts: 6,
		Trainers: 2, Agents: 4, Batch: 128, Pushes: 400, Pulls: 2000,
		HotFrac: 0.9, Replicas: 2, HotKeys: 64, CacheRows: 1024,
	}
	if s.Name == "medium" {
		cfg.Pulls = 4000
		cfg.Pushes = 800
	}
	return cfg
}

// ServePhase is one measured leg of the benchmark.
type ServePhase struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_s"`
	Pushes      int64   `json:"pushes"`
	Pulls       int64   `json:"pulls"`
	// PushesPerSec is the trainers' aggregate push throughput; QPS the
	// serve agents' aggregate pull throughput (0 when the leg ran only
	// one side).
	PushesPerSec float64 `json:"pushes_per_sec"`
	QPS          float64 `json:"qps"`
	P50Millis    float64 `json:"pull_p50_ms"`
	P99Millis    float64 `json:"pull_p99_ms"`
}

// ServeReport is the full serving-tier benchmark result.
type ServeReport struct {
	Servers  int     `json:"servers"`
	Rows     int     `json:"rows"`
	HotHead  int     `json:"hot_head"`
	Dim      int     `json:"dim"`
	Trainers int     `json:"trainers"`
	Agents   int     `json:"agents"`
	Batch    int     `json:"batch"`
	HotFrac  float64 `json:"hot_frac"`
	Replicas int     `json:"replicas"`
	HotKeys  int     `json:"hot_keys"`

	Control ServePhase `json:"control"` // trainers alone, no serving
	Mixed   ServePhase `json:"mixed"`   // trainers + serve agents

	// Row provenance, summed over every serve handle: local row cache,
	// replicated hot head, snapshot replicas, and mutable-primary
	// fallbacks. OffloadShare = (cache+hot+snap)/total — the tentpole
	// gate: the training hot path saw at most 1-OffloadShare of the
	// read traffic.
	CacheRows    int64   `json:"cache_rows"`
	HotRows      int64   `json:"hot_rows"`
	SnapRows     int64   `json:"snap_rows"`
	PrimaryRows  int64   `json:"primary_rows"`
	RowsServed   int64   `json:"rows_served"`
	OffloadShare float64 `json:"offload_share"`
	// Hot-head cache behavior: of the HotLookups times a replicated hot
	// id was asked for, HotCacheHits were answered from the local
	// versioned cache without any RPC.
	HotLookups   int64   `json:"hot_lookups"`
	HotCacheHits int64   `json:"hot_cache_hits"`
	HotHitRatio  float64 `json:"hot_hit_ratio"`
	// SnapEpoch is the serving generation the measured phase read;
	// HotMined is how many workload head ids the second publication's
	// mined hot set captured (from serve-side pull counters).
	SnapEpoch int64 `json:"snap_epoch"`
	HotMined  int   `json:"hot_mined"`
	// TrainRatio is mixed-phase push throughput over control — timing
	// texture only (≈1 on multi-core hosts: serving never takes the
	// write locks; <1 on a single CPU where the legs share cycles).
	TrainRatio float64 `json:"train_ratio"`
	// Exactly-once audit across both phases.
	Applied int64 `json:"applied"`
	Sent    int64 `json:"sent"`
	Pass    bool  `json:"pass"`
}

// servePushLeg drives every trainer through cfg.Pushes skewed
// pull-then-push rounds (the LINE shape: read the rows, compute, push
// the gradient) and returns the acked push count. The pulls also feed
// the primaries' hot counters — the training-side signal hot-head
// mining merges with serve traffic.
func servePushLeg(cfg ServeConfig, embs []*ps.Emb, hub, all []int64) (int64, error) {
	var (
		wg      sync.WaitGroup
		pushErr atomic.Value
		acked   atomic.Int64
	)
	ones := make([]float64, cfg.Dim)
	for i := range ones {
		ones[i] = 1
	}
	for w := range embs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 101))
			for k := 0; k < cfg.Pushes; k++ {
				// Draw-counted, not distinct-counted: the hot head is
				// smaller than a batch, so hot draws collapse onto the
				// same few rows — exactly the write skew being modeled.
				batch := make(map[int64][]float64, cfg.Batch)
				for i := 0; i < cfg.Batch; i++ {
					pool := all
					if rng.Float64() < cfg.HotFrac {
						pool = hub
					}
					batch[pool[rng.Intn(len(pool))]] = ones
				}
				ids := make([]int64, 0, len(batch))
				for id := range batch {
					ids = append(ids, id)
				}
				if _, err := embs[w].Pull(ids); err != nil {
					pushErr.Store(fmt.Errorf("trainer %d pull: %w", w, err))
					return
				}
				if err := embs[w].PushAdd(batch); err != nil {
					pushErr.Store(fmt.Errorf("trainer %d: %w", w, err))
					return
				}
				acked.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if err, _ := pushErr.Load().(error); err != nil {
		return acked.Load(), err
	}
	return acked.Load(), nil
}

// servePullLeg drives every serve agent through pulls skewed batches and
// returns the pull count plus the sorted per-pull latencies.
func servePullLeg(cfg ServeConfig, handles []*ps.ServeClient, hub, all []int64, pulls int) (int64, []time.Duration, error) {
	var (
		wg      sync.WaitGroup
		pullErr atomic.Value
		done    atomic.Int64
		mu      sync.Mutex
		lats    []time.Duration
	)
	for w := range handles {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 501))
			mine := make([]time.Duration, 0, pulls)
			ids := make([]int64, cfg.Batch)
			for k := 0; k < pulls; k++ {
				for i := range ids {
					pool := all
					if rng.Float64() < cfg.HotFrac {
						pool = hub
					}
					ids[i] = pool[rng.Intn(len(pool))]
				}
				t0 := time.Now()
				rows, err := handles[w].Pull(ids)
				if err != nil {
					pullErr.Store(fmt.Errorf("serve agent %d: %w", w, err))
					return
				}
				if len(rows) == 0 {
					pullErr.Store(fmt.Errorf("serve agent %d: empty pull", w))
					return
				}
				mine = append(mine, time.Since(t0))
				done.Add(1)
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if err, _ := pullErr.Load().(error); err != nil {
		return done.Load(), nil, err
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return done.Load(), lats, nil
}

func latPct(lats []time.Duration, p int) float64 {
	if len(lats) == 0 {
		return 0
	}
	return float64(lats[len(lats)*p/100]) / float64(time.Millisecond)
}

// RunServeBench runs the no-serving control, publishes a snapshot
// generation, warms the tier, republishes so the mined hot head matches
// the workload, then measures the mixed phase.
func RunServeBench(cfg ServeConfig) (*ServeReport, error) {
	rep := &ServeReport{
		Servers: cfg.Servers, Rows: cfg.Rows, HotHead: cfg.HotHead,
		Dim: cfg.Dim, Trainers: cfg.Trainers, Agents: cfg.Agents,
		Batch: cfg.Batch, HotFrac: cfg.HotFrac,
		Replicas: cfg.Replicas, HotKeys: cfg.HotKeys,
	}
	cluster, err := ps.NewCluster(ps.ClusterConfig{NumServers: cfg.Servers, NamePrefix: "srv"})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	cluster.Master.SetServeOptions(ps.ServeOptions{Replicas: cfg.Replicas, HotKeys: cfg.HotKeys})
	agent := cluster.NewClient()
	if _, err := agent.CreateEmbedding(ps.EmbeddingSpec{Name: "emb", Dim: cfg.Dim, Partitions: cfg.Parts}); err != nil {
		return nil, err
	}

	// The hot head: cfg.HotHead ids spread across partitions (stride 7
	// decorrelates them from the hash layout); the cold pool is the
	// whole universe.
	hub := make([]int64, cfg.HotHead)
	for i := range hub {
		hub[i] = int64(i * 7 % cfg.Rows)
	}
	all := make([]int64, cfg.Rows)
	for i := range all {
		all[i] = int64(i)
	}

	trainers := make([]*ps.Emb, cfg.Trainers)
	trainerClients := make([]*ps.Client, cfg.Trainers)
	for i := range trainers {
		trainerClients[i] = cluster.NewClient()
		if trainers[i], err = trainerClients[i].Embedding("emb"); err != nil {
			return nil, err
		}
	}

	// Control leg: trainers alone. This is the push-throughput baseline
	// the mixed phase is compared against.
	t0 := time.Now()
	acked, err := servePushLeg(cfg, trainers, hub, all)
	if err != nil {
		return nil, fmt.Errorf("control leg: %w", err)
	}
	rep.Control = ServePhase{
		Name: "control", WallSeconds: time.Since(t0).Seconds(), Pushes: acked,
	}
	if rep.Control.WallSeconds > 0 {
		rep.Control.PushesPerSec = float64(acked) / rep.Control.WallSeconds
	}

	// First publication: snapshot replicas exist before any serve handle
	// is created, so no pull ever needs the mutable-primary fallback.
	if _, err := agent.PublishSnapshot("emb"); err != nil {
		return nil, fmt.Errorf("publish: %w", err)
	}
	handles := make([]*ps.ServeClient, cfg.Agents)
	serveClients := make([]*ps.Client, cfg.Agents)
	for i := range handles {
		serveClients[i] = cluster.NewClient()
		serveClients[i].SetRowCacheLimits(cfg.CacheRows, 0)
		if handles[i], err = serveClients[i].Serve("emb"); err != nil {
			return nil, err
		}
	}

	// Warmup: a short skewed pull leg teaches the serve-side hot
	// counters the workload's head ...
	warm := cfg.Pulls / 5
	if warm < 20 {
		warm = 20
	}
	if _, _, err := servePullLeg(cfg, handles, hub, all, warm); err != nil {
		return nil, fmt.Errorf("warmup leg: %w", err)
	}
	// ... and the second publication mines it, so the replicated hot
	// head matches what the agents actually ask for. Handles refresh
	// eagerly (adopting the new generation empties their caches — the
	// measured phase starts cold and still must hit the gates).
	sl, err := agent.PublishSnapshot("emb")
	if err != nil {
		return nil, fmt.Errorf("republish: %w", err)
	}
	for _, h := range handles {
		h.Refresh()
	}
	rep.SnapEpoch = sl.SnapEpoch
	hot := make(map[int64]bool, len(sl.HotIDs))
	for _, id := range sl.HotIDs {
		hot[id] = true
	}
	for _, id := range hub {
		if hot[id] {
			rep.HotMined++
		}
	}

	// Mixed phase: trainers push while serve agents pull, concurrently.
	var (
		phaseWG  sync.WaitGroup
		pushWall time.Duration
		mixErr   atomic.Value
		pushed   atomic.Int64
	)
	t0 = time.Now()
	phaseWG.Add(1)
	go func() {
		defer phaseWG.Done()
		pt0 := time.Now()
		n, err := servePushLeg(cfg, trainers, hub, all)
		pushWall = time.Since(pt0)
		pushed.Store(n)
		if err != nil {
			mixErr.Store(err)
		}
	}()
	pulled, lats, err := servePullLeg(cfg, handles, hub, all, cfg.Pulls)
	if err != nil {
		return nil, fmt.Errorf("mixed leg: %w", err)
	}
	phaseWG.Wait()
	if err, _ := mixErr.Load().(error); err != nil {
		return nil, fmt.Errorf("mixed leg: %w", err)
	}
	wall := time.Since(t0).Seconds()
	rep.Mixed = ServePhase{
		Name: "mixed", WallSeconds: wall, Pushes: pushed.Load(), Pulls: pulled,
		P50Millis: latPct(lats, 50), P99Millis: latPct(lats, 99),
	}
	if s := pushWall.Seconds(); s > 0 {
		rep.Mixed.PushesPerSec = float64(pushed.Load()) / s
	}
	if wall > 0 {
		rep.Mixed.QPS = float64(pulled) / wall
	}
	if rep.Control.PushesPerSec > 0 {
		rep.TrainRatio = rep.Mixed.PushesPerSec / rep.Control.PushesPerSec
	}

	// Provenance + hot-head accounting, summed over every handle. These
	// are the load-bearing gates: counts, not clocks.
	for _, h := range handles {
		st := h.Stats()
		rep.CacheRows += st.CacheRows
		rep.HotRows += st.HotRows
		rep.SnapRows += st.SnapRows
		rep.PrimaryRows += st.PrimaryRows
		rep.HotLookups += st.HotLookups
		rep.HotCacheHits += st.HotCacheHits
	}
	rep.RowsServed = rep.CacheRows + rep.HotRows + rep.SnapRows + rep.PrimaryRows
	if rep.RowsServed > 0 {
		rep.OffloadShare = float64(rep.CacheRows+rep.HotRows+rep.SnapRows) / float64(rep.RowsServed)
	}
	if rep.HotLookups > 0 {
		rep.HotHitRatio = float64(rep.HotCacheHits) / float64(rep.HotLookups)
	}

	// Exactly-once audit across control + mixed pushes.
	rep.Applied, _, err = cluster.MutationTotals()
	if err != nil {
		return nil, err
	}
	for _, c := range append(trainerClients, agent) {
		s, _ := c.MutationStats()
		rep.Sent += s
	}

	rep.Pass = rep.OffloadShare >= 0.9 &&
		rep.HotHitRatio >= 0.8 &&
		rep.Applied == rep.Sent &&
		rep.RowsServed > 0
	return rep, nil
}

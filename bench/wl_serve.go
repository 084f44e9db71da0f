package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"psgraph/internal/ps"
	"psgraph/internal/rpc"
)

const (
	serveModel     = "serve.emb"
	serveDim       = 32
	serveParts     = 6
	serveBatch     = 128 // ids per lookup and per training round
	serveHotHead   = 48  // ids that draw half of all reads and writes
	serveHotFrac   = 0.5
	serveCacheRows = 1024 // agent row-cache cap: the uniform half misses it
	serveSamples   = 64   // rows compared with the primary per repetition
)

// serveWL: a closed loop of two clients on 3 TCP servers. One serve agent
// issues a fixed count of 128-id ServeClient.Pulls (half from a 48-id hot
// head, half uniform over 65 536 rows) while one trainer loops skewed
// Emb.Pull → PushAdd rounds on the same table until the agent is done.
// Item = served row.
//
// The table outlives the repetitions (filling 65 536 rows is set-up, not
// job); what is fresh per repetition is the published snapshot.
type serveWL struct {
	base
	hub []int64

	agentTr, trainerTr *traceActor // traced runs only
	agentCl, trainerCl *ps.Client
	handle             *ps.ServeClient
	trainerEmb         *ps.Emb
	round              int // repetitions prepared so far: seeds the id streams
	lookups            [][]int64
	sampleIDs          []int64
	expected           map[int64][]float64
	lastJobS, publishS float64
	prevStats          ps.ServeStats
}

func (w *serveWL) setup() error {
	w.openEnded = true
	if err := w.newContext(3, true); err != nil {
		return err
	}
	w.ctx.PS.Master.SetServeOptions(ps.ServeOptions{Replicas: 2, HotKeys: 64})
	emb, err := w.ctx.Agent.CreateEmbedding(ps.EmbeddingSpec{Name: serveModel, Dim: serveDim, Partitions: serveParts})
	if w.op(err) != nil {
		return err
	}
	// The hot head is spread over the partitions: stride 7 decorrelates it
	// from the hash layout.
	w.hub = make([]int64, serveHotHead)
	for i := range w.hub {
		w.hub[i] = int64(i * 7 % sz.serveRows)
	}
	rng := rand.New(rand.NewSource(w.seed))
	err = w.timed("gen.generate_s", "gen", func() error {
		const chunk = 4096
		for lo := 0; lo < sz.serveRows; lo += chunk {
			rows := make(map[int64][]float64, chunk)
			for id := lo; id < min(lo+chunk, sz.serveRows); id++ {
				row := make([]float64, serveDim)
				for j := range row {
					row[j] = rng.Float64() - 0.5
				}
				rows[int64(id)] = row
			}
			if err := emb.PushSet(rows); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var agentTr, trainerTr rpc.Transport = w.ctx.PS.Transport, w.ctx.PS.Transport
	if w.tt != nil {
		w.agentTr, w.trainerTr = w.tt.actor(), w.tt.actor()
		agentTr, trainerTr = w.agentTr, w.trainerTr
	}
	w.agentCl = ps.NewClient(agentTr, w.ctx.PS.MasterAddr)
	w.agentCl.SetRowCacheLimits(serveCacheRows, 0)
	// Items are served rows, so bytes per item are the serve agent's: the
	// trainer's traffic grows with however many rounds it fits in and is
	// gated through mutations_per_s.
	w.wireOf = w.agentCl
	w.trainerCl = ps.NewClient(trainerTr, w.ctx.PS.MasterAddr)
	if w.trainerEmb, err = w.trainerCl.Embedding(serveModel); w.op(err) != nil {
		return err
	}
	// First publication before the handle exists, so no lookup ever needs
	// the primaries; the warm-up repetition then teaches the pull counters
	// the hot head, and every later publication mines it.
	if err := w.publish(); err != nil {
		return err
	}
	w.handle, err = w.agentCl.Serve(serveModel)
	return w.op(err)
}

func (w *serveWL) publish() error {
	return w.timed("ps.serve.publish_s", "ps.serve", func() error {
		_, err := w.ctx.Agent.PublishSnapshot(serveModel)
		return err
	})
}

// draw fills ids with the skewed mix: serveHotFrac from the hot head, the
// rest uniform.
func (w *serveWL) draw(rng *rand.Rand, ids []int64) {
	for i := range ids {
		if rng.Float64() < serveHotFrac {
			ids[i] = w.hub[rng.Intn(len(w.hub))]
		} else {
			ids[i] = rng.Int63n(int64(sz.serveRows))
		}
	}
}

// prepare publishes a fresh snapshot while the trainer is idle (the quiesce
// point), records what the primaries hold for a sample of rows, and draws
// the repetition's lookup stream.
func (w *serveWL) prepare() error {
	w.publishS = 0
	if w.round > 0 {
		t0 := time.Now()
		if err := w.publish(); err != nil {
			return err
		}
		w.publishS = time.Since(t0).Seconds()
		w.handle.Refresh()
	}
	w.round++
	rng := rand.New(rand.NewSource(w.seed + int64(w.round)*7919))
	w.sampleIDs = make([]int64, serveSamples)
	w.draw(rng, w.sampleIDs)
	var err error
	if w.expected, err = w.trainerEmb.Pull(w.sampleIDs); w.op(err) != nil {
		return err
	}
	flat := make([]int64, sz.serveLookups*serveBatch)
	w.draw(rng, flat)
	w.lookups = make([][]int64, sz.serveLookups)
	for i := range w.lookups {
		w.lookups[i] = flat[i*serveBatch : (i+1)*serveBatch]
	}
	w.prevStats = w.handle.Stats()
	return nil
}

// trainerRound is one pull-then-push round of the training stream.
func (w *serveWL) trainerRound(rng *rand.Rand, ids []int64, delta []float64) error {
	w.draw(rng, ids)
	if _, err := w.trainerEmb.Pull(ids); err != nil {
		return fmt.Errorf("trainer pull: %w", err)
	}
	batch := make(map[int64][]float64, len(ids))
	for _, id := range ids {
		batch[id] = delta
	}
	if err := w.trainerEmb.PushAdd(batch); err != nil {
		return fmt.Errorf("trainer push: %w", err)
	}
	return nil
}

// trainLoop runs training rounds until stop is set and returns how many
// were acknowledged.
func (w *serveWL) trainLoop(stop *atomic.Bool, acked *atomic.Int64) error {
	id, end := w.rec.open("ps.client", "serve.trainerLoop")
	if w.trainerTr != nil {
		w.trainerTr.parent.Store(id)
	}
	rng := rand.New(rand.NewSource(w.seed + int64(w.round)*104729))
	ids := make([]int64, serveBatch)
	delta := make([]float64, serveDim)
	for i := range delta {
		delta[i] = 1e-6
	}
	var err error
	for err == nil && !stop.Load() {
		if err = w.trainerRound(rng, ids, delta); err == nil {
			acked.Add(1)
		}
	}
	end(err)
	return err
}

func (w *serveWL) job() error {
	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		acked    atomic.Int64
		trainErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		trainErr = w.trainLoop(&stop, &acked)
	}()

	id, end := w.rec.open("ps.serve", "serve.agentLoop")
	if w.agentTr != nil {
		w.agentTr.parent.Store(id)
	}
	lat := make([]float64, 0, len(w.lookups))
	var failedLookups int64
	t0 := time.Now()
	for _, ids := range w.lookups {
		l0 := time.Now()
		rows, err := w.handle.Pull(ids)
		lat = append(lat, float64(time.Since(l0))/1e6)
		if err != nil || len(rows) == 0 {
			failedLookups++
		}
	}
	w.lastJobS = time.Since(t0).Seconds()
	rounds := acked.Load()
	end(nil)
	stop.Store(true)
	wg.Wait()

	w.attempted += int64(len(w.lookups)) + 2*acked.Load()
	w.failed += failedLookups
	if trainErr != nil {
		w.attempted += 2
		w.failed++
		return trainErr
	}
	if failedLookups > 0 {
		return fmt.Errorf("serve: %d of %d lookups failed", failedLookups, len(w.lookups))
	}

	sort.Float64s(lat)
	d := serveDelta(w.prevStats, w.handle.Stats())
	w.extra = map[string]float64{
		"ps.serve.publish_s":          w.publishS,
		"ps.serve.cache_rows":         float64(d.CacheRows),
		"ps.serve.hot_rows":           float64(d.HotRows),
		"ps.serve.snap_rows":          float64(d.SnapRows),
		"ps.serve.primary_rows":       float64(d.PrimaryRows),
		"ps.serve.offload_share":      ratio(d.OffloadedRows(), d.TotalRows()),
		"ps.serve.hot_hit_ratio":      ratio(d.HotCacheHits, d.HotLookups),
		"ps.serve.lookup_p50_ms":      percentile(lat, 50),
		"ps.serve.lookup_p99_ms":      percentile(lat, 99),
		"ps.serve.train_pushes_per_s": float64(rounds) / w.lastJobS,
	}
	return nil
}

func serveDelta(a, b ps.ServeStats) ps.ServeStats {
	return ps.ServeStats{
		CacheRows: b.CacheRows - a.CacheRows, HotRows: b.HotRows - a.HotRows,
		SnapRows: b.SnapRows - a.SnapRows, PrimaryRows: b.PrimaryRows - a.PrimaryRows,
		HotLookups: b.HotLookups - a.HotLookups, HotCacheHits: b.HotCacheHits - a.HotCacheHits,
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (w *serveWL) items() int64 { return int64(sz.serveLookups) * serveBatch }

// check: the tier serves exactly what the primaries held when the snapshot
// was published, however much the trainer has pushed since, and at least
// nine rows in ten came from the tier rather than a primary.
func (w *serveWL) check() error {
	got, err := w.handle.Pull(w.sampleIDs)
	if w.op(err) != nil {
		return err
	}
	for _, id := range w.sampleIDs {
		want, have := w.expected[id], got[id]
		if len(have) != serveDim || len(want) != serveDim {
			return fmt.Errorf("serve: row %d has %d values, primary %d, want %d", id, len(have), len(want), serveDim)
		}
		for j := range want {
			if have[j] != want[j] {
				return fmt.Errorf("serve: row %d differs from the primary at the published epoch", id)
			}
		}
	}
	if share := w.extra["ps.serve.offload_share"]; share < 0.9 {
		return fmt.Errorf("serve: offload share %.3f below 0.9", share)
	}
	return nil
}

func (w *serveWL) cleanup() error { return nil }

func (w *serveWL) clients() []*ps.Client {
	return []*ps.Client{w.ctx.Agent, w.agentCl, w.trainerCl}
}

// probe: the trainer alone for as long as the mixed leg took (the control
// for train_ratio), then the client probes on a table of the same shape.
func (w *serveWL) probe(m map[string]float64) error {
	var stop atomic.Bool
	var acked atomic.Int64
	w.round++
	timer := time.AfterFunc(time.Duration(w.lastJobS*float64(time.Second)), func() { stop.Store(true) })
	t0 := time.Now()
	err := w.trainLoop(&stop, &acked)
	control := float64(acked.Load()) / time.Since(t0).Seconds()
	timer.Stop()
	w.attempted += 2 * acked.Load()
	if w.op(err) != nil {
		return err
	}
	m["ps.serve.train_control_pushes_per_s"] = control

	ids := make([]int64, 1024)
	w.draw(rand.New(rand.NewSource(w.seed)), ids)
	return w.probeEmb(m, w.trainerCl, ps.EmbeddingSpec{Name: "probe.emb", Dim: serveDim, Partitions: serveParts}, ids)
}

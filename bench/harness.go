package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"psgraph/internal/core"
	"psgraph/internal/dataflow"
	"psgraph/internal/ps"
	"psgraph/internal/rpc"
)

// Run shape, the same for every workload. A run is one OS process:
//
//	set-up (generate data, build the cluster, write the DFS, one discarded
//	warm-up repetition) — done setupRounds times so that setup_s is a median
//	→ timed repetitions of the same fixed job on freshly created models,
//	until -seconds of job time have been measured (at least minReps)
//	→ every end-to-end metric is the median over the repetitions.
//
// Sizes are committed constants (see each workload), never calibrated at
// run time, and each is chosen so that one repetition takes 1.5–3 s on a
// 2-core host.
//
// loadThreads bounds the goroutines that drive load (executors, or the
// serve agent plus the trainer): never more than the 2 cores of the
// reference host.
const loadThreads = 2

// runShape is how often a run sets up and repeats; the smoke test shrinks
// it to one of each.
type runShape struct {
	setupRounds int
	minReps     int
}

var shape = runShape{setupRounds: 3, minReps: 3}

// workload is one benchmark workload. All methods run on the harness
// goroutine; job is the only one that is timed.
type workload interface {
	// setup generates the inputs from the seed, builds the cluster and
	// loads the inputs into it.
	setup() error
	// prepare readies one repetition (untimed, part of neither job_s nor
	// setup_s after the warm-up).
	prepare() error
	// job runs the fixed job once through the public entry points.
	job() error
	// items is the fixed item count of one job.
	items() int64
	// check verifies the outputs of the last job.
	check() error
	// cleanup deletes the models the last job created.
	cleanup() error
	// clients lists every PS agent whose traffic counts as the workload's.
	clients() []*ps.Client
	// probe drives single layers directly on the workload's own data and
	// records per-layer metrics (traced runs only).
	probe(m map[string]float64) error
	close()
	common() *base
}

// base is the state every workload shares.
type base struct {
	seed int64
	rec  *recorder       // nil in untraced runs
	tt   *traceTransport // nil in untraced runs
	ctx  *core.Context

	// attempted/failed count operations: every call into a public entry
	// point and every correctness check.
	attempted, failed int64
	// setupM holds the per-layer metrics measured during set-up.
	setupM map[string]float64
	// extra holds per-repetition workload-specific metrics of the last job.
	extra map[string]float64
	// iterations is set by jobs that end every iteration with one psFunc
	// fan-out (PageRank's commit), so the trace can time an iteration.
	iterations int
	// wireOf, when set, is the one agent whose traffic wire_bytes_per_item
	// counts; nil counts every agent of the workload.
	wireOf *ps.Client
	// openEnded marks a job whose call count is not fixed by the seed (the
	// serve trainer loops until the agent is done).
	openEnded bool
}

func (b *base) common() *base { return b }

// op counts one operation and passes its error through.
func (b *base) op(err error) error {
	b.attempted++
	if err != nil {
		b.failed++
	}
	return err
}

// call is op around a recorded span of the given layer.
func (b *base) call(layer, name string, fn func() error) error {
	return b.op(b.rec.call(layer, name, fn))
}

// timed runs fn as a set-up step and records its seconds as a per-layer
// metric.
func (b *base) timed(metric, layer string, fn func() error) error {
	t0 := time.Now()
	err := b.call(layer, metric, fn)
	b.setupM[metric] += time.Since(t0).Seconds()
	return err
}

// newContext builds the cluster every workload runs on: 2 executors, 4 RDD
// partitions. Untraced runs get the bare in-proc or TCP transport; traced
// runs get the tracing decorator around the same.
func (b *base) newContext(servers int, tcp bool) error {
	cfg := core.Config{NumExecutors: loadThreads, NumServers: servers, Partitions: 4, UseTCP: tcp}
	if b.rec != nil {
		var inner rpc.Transport = rpc.NewInProc()
		if tcp {
			inner = rpc.NewTCP()
		}
		b.tt = newTraceTransport(inner, b.rec)
		cfg.Transport = b.tt
	}
	return b.call("core", "core.NewContext", func() (err error) {
		b.ctx, err = core.NewContext(cfg)
		return err
	})
}

// The defaults most workloads share: nothing to prepare, the driver agent
// is the only client, and every model a job created is deleted after it.
func (b *base) prepare() error        { return nil }
func (b *base) clients() []*ps.Client { return []*ps.Client{b.ctx.Agent} }
func (b *base) cleanup() error        { return b.deleteModelsExcept() }

func (b *base) close() {
	if b.ctx != nil {
		b.ctx.Close()
		if b.tt != nil {
			b.tt.Close()
		}
	}
}

// deleteModelsExcept deletes every PS model not named in keep; jobs create
// scratch models whose names they do not all report.
func (b *base) deleteModelsExcept(keep ...string) error {
	stats, err := b.ctx.PS.Stats()
	if b.op(err) != nil {
		return err
	}
	kept := make(map[string]bool, len(keep))
	for _, k := range keep {
		kept[k] = true
	}
	seen := make(map[string]bool)
	for _, s := range stats {
		for _, m := range s.Models {
			if kept[m] || seen[m] {
				continue
			}
			seen[m] = true
			if err := b.op(b.ctx.Agent.DeleteModel(m)); err != nil {
				return err
			}
		}
	}
	return nil
}

// counters is a snapshot of everything read before and after a repetition.
type counters struct {
	wire     int64 // Comm sent+recv over the agents that count (base.wireOf)
	mallocs  uint64
	allocB   uint64
	gcPause  uint64
	gcCycles uint32
	heapSys  uint64
	applied  int64
	replayed int64
	resident int64
	sent     int64
	retried  int64

	cacheHits, cacheMisses, cacheEvictions int64

	dataflow dataflow.Stats
}

func snapshot(w workload) (counters, error) {
	var c counters
	for _, cl := range w.clients() {
		if b := w.common(); b.wireOf == nil || b.wireOf == cl {
			s, r := cl.Comm()
			c.wire += s + r
		}
		ms, mr := cl.MutationStats()
		c.sent += ms
		c.retried += mr
		h, m := cl.CacheStats()
		c.cacheHits += h
		c.cacheMisses += m
		c.cacheEvictions += cl.CacheEvictions()
	}
	c.dataflow = w.common().ctx.Spark.Stats()
	stats, err := w.common().ctx.PS.Stats()
	if err != nil {
		return c, err
	}
	for _, s := range stats {
		c.applied += s.MutApplied
		c.replayed += s.MutReplayed
		c.resident += s.Bytes
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocB = ms.Mallocs, ms.TotalAlloc
	c.gcPause, c.gcCycles, c.heapSys = ms.PauseTotalNs, ms.NumGC, ms.HeapSys
	return c, nil
}

// rep is what one timed repetition measured.
type rep struct {
	jobS       float64
	start, end int64 // recorder clock, traced runs
	pre, post  counters
	// maxInflight is the most rpc calls in flight at once (traced runs).
	maxInflight int64
	extra       map[string]float64
}

// repetition runs prepare → job → check → cleanup and measures the job. It
// forces no GC before the job: that would start every repetition of a run at
// the same collector phase, and the phase's effect on job_s (up to 4%,
// different for every seed) would survive the median over repetitions.
func repetition(w workload, check bool) (rep, error) {
	b := w.common()
	var r rep
	if err := w.prepare(); err != nil {
		return r, fmt.Errorf("prepare: %w", err)
	}
	var err error
	if r.pre, err = snapshot(w); err != nil {
		return r, err
	}
	if b.tt != nil {
		b.tt.maxInflight.Store(0)
		r.start = b.rec.now()
	}
	t0 := time.Now()
	err = w.job()
	r.jobS = time.Since(t0).Seconds()
	if b.tt != nil {
		r.end = b.rec.now()
		r.maxInflight = b.tt.maxInflight.Load()
	}
	if err != nil {
		return r, fmt.Errorf("job: %w", err)
	}
	if r.post, err = snapshot(w); err != nil {
		return r, err
	}
	r.extra = b.extra
	if check {
		// Exactly-once: what the servers applied is what the agents sent.
		applied, sent := r.post.applied-r.pre.applied, r.post.sent-r.pre.sent
		if b.attempted++; applied != sent {
			b.failed++
			return r, fmt.Errorf("check: servers applied %d mutations, agents sent %d", applied, sent)
		}
		if err := b.op(w.check()); err != nil {
			return r, fmt.Errorf("check: %w", err)
		}
	}
	if err := w.cleanup(); err != nil {
		return r, fmt.Errorf("cleanup: %w", err)
	}
	return r, nil
}

// setUp builds a workload and runs its discarded warm-up repetition.
func setUp(name string, seed int64, rec *recorder) (workload, error) {
	w, err := newWorkload(name, seed, rec)
	if err != nil {
		return nil, err
	}
	if err := w.setup(); err != nil {
		w.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	if _, err := repetition(w, false); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// timedReps repeats the job until budget seconds of job time are measured.
func timedReps(w workload, budget float64) ([]rep, error) {
	var reps []rep
	var spent float64
	for spent < budget || len(reps) < shape.minReps {
		r, err := repetition(w, true)
		if err != nil {
			return reps, fmt.Errorf("repetition %d: %w", len(reps), err)
		}
		reps = append(reps, r)
		spent += r.jobS
	}
	return reps, nil
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Host      hostInfo           `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Items     int64              `json:"items_per_job"`
	Metrics   map[string]summary `json:"metrics"`
	Warnings  []string           `json:"warnings,omitempty"`
	Error     string             `json:"error,omitempty"`
}

// runUntraced measures the end-to-end metrics on the bare transport.
func runUntraced(name string, seed int64, seconds float64, processStart time.Time) (*result, error) {
	res := &result{Workload: name, Seed: seed, Host: readHost(), Metrics: map[string]summary{}}
	var setups []float64
	var w workload
	t0 := processStart
	for round := 0; round < shape.setupRounds; round++ {
		if w != nil {
			res.Attempted += w.common().attempted
			w.close()
			runtime.GC()
			t0 = time.Now()
		}
		var err error
		if w, err = setUp(name, seed, nil); err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	reps, err := timedReps(w, seconds)
	b := w.common()
	res.Attempted += b.attempted
	res.Failed = b.failed
	res.Items = w.items()
	if err != nil {
		return res, err
	}
	items := float64(w.items())
	var jobS, ips, wire, allocs, muts []float64
	for _, r := range reps {
		jobS = append(jobS, r.jobS)
		ips = append(ips, items/r.jobS)
		wire = append(wire, float64(r.post.wire-r.pre.wire)/items)
		allocs = append(allocs, float64(r.post.mallocs-r.pre.mallocs)/items)
		muts = append(muts, float64(r.post.applied-r.pre.applied)/r.jobS)
	}
	res.Metrics["setup_s"] = summarize(setups, "s")
	res.Metrics["job_s"] = summarize(jobS, "s")
	res.Metrics["items_per_s"] = summarize(ips, "1/s")
	res.Metrics["wire_bytes_per_item"] = summarize(wire, "B")
	res.Metrics["allocs_per_item"] = summarize(allocs, "1")
	res.Metrics["mutations_per_s"] = summarize(muts, "1/s")
	res.Metrics["peak_rss_mb"] = summarize([]float64{peakRSSMB()}, "MB")
	res.Correct = res.Failed == 0
	return res, nil
}

// runTraced measures the per-layer metrics: a short untraced reference on
// the bare transport (for trace.overhead_ratio), then repetitions on the
// tracing transport, then the probes.
func runTraced(name string, seed int64, seconds float64) (*result, *recorder, error) {
	res := &result{Workload: name, Seed: seed, Traced: true, Host: readHost(), Metrics: map[string]summary{}}
	ref, err := setUp(name, seed, nil)
	if err != nil {
		return res, nil, err
	}
	refReps, err := timedReps(ref, seconds/4)
	res.Attempted += ref.common().attempted
	res.Failed += ref.common().failed
	ref.close()
	if err != nil {
		return res, nil, err
	}
	runtime.GC()

	rec := newRecorder()
	w, err := setUp(name, seed, rec)
	if err != nil {
		return res, rec, err
	}
	defer w.close()
	b := w.common()
	reps, err := timedReps(w, seconds/2)
	if err == nil {
		probes := map[string]float64{}
		if err = w.probe(probes); err == nil {
			res.Metrics = layerMetrics(w, reps, refReps, probes, &res.Warnings)
		}
	}
	res.Attempted += b.attempted
	res.Failed += b.failed
	res.Items = w.items()
	res.Correct = err == nil && res.Failed == 0
	return res, rec, err
}

// layerMetrics turns the traced repetitions into the per-layer metrics:
// one value per repetition and metric, summarised by the median.
func layerMetrics(w workload, reps, refReps []rep, probes map[string]float64, warnings *[]string) map[string]summary {
	b := w.common()
	items := float64(w.items())
	all := b.rec.since(0)
	refJobS := median(jobSeconds(refReps))
	perRep := make([]map[string]float64, len(reps))
	for i, r := range reps {
		m := map[string]float64{}
		perRep[i] = m
		in := filter(all, func(s span) bool { return s.Start >= r.start && s.End <= r.end })
		clients, servers, tops := clientSpans(in), serverSpans(in), topSpans(in)
		wall := float64(r.end - r.start)

		serverDur := make(map[uint64]int64, len(servers))
		handle := map[string][]float64{}
		for _, s := range servers {
			serverDur[s.ID] = s.dur()
			m["ps.server."+s.Group+".handle_s"] += float64(s.dur()) / 1e9
			handle[s.Group] = append(handle[s.Group], float64(s.dur())/1e3)
			if s.Group == "clock" {
				m["ps.master.clock.handle_s"] += float64(s.dur()) / 1e9
			}
		}
		for g, us := range handle {
			sort.Float64s(us)
			m["ps.server."+g+".handle_p99_us"] = percentile(us, 99)
		}
		for _, c := range clients {
			p := "rpc." + c.Group
			m[p+".calls"]++
			m[p+".bytes_out"] += float64(c.BytesOut)
			m[p+".bytes_in"] += float64(c.BytesIn)
			m[p+".call_s"] += float64(c.dur()) / 1e9
			if sd, ok := serverDur[c.ID]; ok {
				m[p+".self_s"] += float64(c.dur()-sd) / 1e9
			}
			if c.Err {
				m["rpc.errors"]++
			}
			if c.Name == "ClockWait" {
				m["ps.master.clock.wait_s"] += float64(c.dur()) / 1e9
			}
		}
		m["rpc.max_inflight"] = float64(r.maxInflight)
		m["ps.master.clock.calls"] = m["rpc.clock.calls"]
		m["ps.master.meta.calls"] = m["rpc.master.calls"]

		// The job's self time is what its span does not spend inside rpc
		// calls: sampling, gradient math, batch building, dataflow.
		for _, t := range tops {
			if metric, ok := jobSelfMetric[t.Name]; ok {
				m[metric] += float64(selfTime(t, clients)) / 1e9
			}
		}
		m["trace.accounted_ratio"] = float64(covered(r.start, r.end, tops)) / wall
		m["trace.overhead_ratio"] = r.jobS / refJobS

		if b.iterations > 0 {
			m["core.pagerank.iter_ms"] = iterMillis(clients, b.iterations)
		}
		m["dataflow.shuffle_bytes"] = float64(r.post.dataflow.ShuffleBytes - r.pre.dataflow.ShuffleBytes)
		m["dataflow.tasks_run"] = float64(r.post.dataflow.TasksRun - r.pre.dataflow.TasksRun)
		m["dataflow.tasks_retried"] = float64(r.post.dataflow.TasksRetried - r.pre.dataflow.TasksRetried)
		m["dataflow.peak_exec_mb"] = float64(r.post.dataflow.PeakExecBytes) / (1 << 20)
		m["ps.client.cache_hits"] = float64(r.post.cacheHits - r.pre.cacheHits)
		m["ps.client.cache_misses"] = float64(r.post.cacheMisses - r.pre.cacheMisses)
		m["ps.client.cache_evictions"] = float64(r.post.cacheEvictions - r.pre.cacheEvictions)
		m["ps.client.mut_sent"] = float64(r.post.sent - r.pre.sent)
		m["ps.client.mut_retried"] = float64(r.post.retried - r.pre.retried)
		m["ps.server.mut_applied"] = float64(r.post.applied - r.pre.applied)
		m["ps.server.mut_replayed"] = float64(r.post.replayed - r.pre.replayed)
		m["ps.server.resident_mb"] = float64(r.post.resident) / (1 << 20)
		m["go.gc_pause_total_ms"] = float64(r.post.gcPause-r.pre.gcPause) / 1e6
		m["go.gc_cycles"] = float64(r.post.gcCycles - r.pre.gcCycles)
		m["go.heap_peak_mb"] = float64(r.post.heapSys) / (1 << 20)
		m["go.alloc_bytes_per_item"] = float64(r.post.allocB-r.pre.allocB) / items
		for k, v := range r.extra {
			m[k] = v
		}
	}

	// Same seed, same job: the call counts of a fixed job must repeat
	// exactly from one repetition to the next.
	for _, g := range rpcGroups {
		if b.openEnded {
			break
		}
		k := "rpc." + g + ".calls"
		for i := 1; i < len(perRep); i++ {
			if perRep[i][k] != perRep[0][k] {
				*warnings = append(*warnings, fmt.Sprintf("%s differs between repetitions: %v vs %v", k, perRep[0][k], perRep[i][k]))
				break
			}
		}
	}

	// A metric comes from the repetitions when they measured it, else from
	// a probe, else from set-up; one that does not apply here reads 0.
	out := make(map[string]summary, len(perLayer))
	for _, spec := range perLayer {
		var vs []float64
		if _, ok := perRep[0][spec.Name]; ok {
			for _, m := range perRep {
				vs = append(vs, m[spec.Name])
			}
		} else if v, ok := probes[spec.Name]; ok {
			vs = []float64{v}
		} else {
			vs = []float64{b.setupM[spec.Name]}
		}
		for i, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vs[i] = 0
			}
		}
		out[spec.Name] = summarize(vs, spec.Unit)
	}
	if control := out["ps.serve.train_control_pushes_per_s"].Value; control > 0 {
		out["ps.serve.train_ratio"] = summarize([]float64{out["ps.serve.train_pushes_per_s"].Value / control}, "1")
	}
	return out
}

// jobSelfMetric maps the span of a job's entry point to the metric that
// reports its self time.
var jobSelfMetric = map[string]string{
	"core.PageRank":  "core.pagerank.self_s",
	"core.Line":      "core.line.self_s",
	"core.GraphSage": "core.graphsage.self_s",
}

// iterMillis is the median time between the ends of consecutive iterations
// of a job that closes each iteration with one psFunc fan-out. The first
// iteration, which also pays for the shuffle, is not among the gaps.
func iterMillis(clients []span, iterations int) float64 {
	funcs := filter(clients, func(s span) bool { return s.Group == "func" })
	if iterations < 2 || len(funcs) < iterations || len(funcs)%iterations != 0 {
		return 0
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].End < funcs[j].End })
	fan := len(funcs) / iterations
	var gaps []float64
	for i := 2*fan - 1; i < len(funcs); i += fan {
		gaps = append(gaps, float64(funcs[i].End-funcs[i-fan].End)/1e6)
	}
	return median(gaps)
}

func jobSeconds(reps []rep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.jobS
	}
	return out
}

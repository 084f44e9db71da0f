// Package chaos is the end-to-end fault-injection harness for the
// PSGraph stack. It drives real algorithm runs (PageRank, LINE, a
// dataflow shuffle job) and the raw PS push path while a seeded
// scheduler injects the dirty failures of rpc.Faulty — dropped
// responses after the server applied a write, gray stalls, server
// kills, datanode kills and checkpoint-file corruption — then asserts
// that results are indistinguishable from a clean run:
//
//   - every mutating push is applied exactly once (server apply
//     counters equal client success counters, with replays > 0 proving
//     the dedup window actually absorbed retries),
//   - PageRank ranks are golden-equal to the fault-free run,
//   - LINE embeddings stay inside the convergence band of the clean run,
//   - the shuffle job's output is exactly equal under executor kills,
//   - a corrupted latest checkpoint generation rolls recovery back to
//     the previous fence, never to a mixed or torn state.
//
// A negative control disables the dedup window and demonstrates the
// double-apply it exists to prevent. All schedules derive from one
// seed, so a failing run reproduces from its report header.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"psgraph/internal/core"
	"psgraph/internal/dataflow"
	"psgraph/internal/dfs"
	"psgraph/internal/gen"
	"psgraph/internal/ps"
	"psgraph/internal/rpc"
)

// Config parameterizes one chaos run.
type Config struct {
	// Seed derives every fault schedule and workload.
	Seed int64
	// Short shrinks workloads for -short test runs and CI smokes.
	Short bool
	// Log, when set, receives per-phase progress lines.
	Log func(format string, args ...any)
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// PhaseResult is the outcome of one chaos phase.
type PhaseResult struct {
	Name    string  `json:"name"`
	Pass    bool    `json:"pass"`
	Detail  string  `json:"detail"`
	Seconds float64 `json:"seconds"`

	// Fault counters observed by the phase's injector (zero-valued for
	// phases that inject through other mechanisms, e.g. executor kills).
	Faults rpc.FaultStats `json:"faults"`

	// Exactly-once accounting, where the phase measures it.
	Applied  int64 `json:"applied,omitempty"`
	Replayed int64 `json:"replayed,omitempty"`
	Sent     int64 `json:"sent,omitempty"`
}

// Report aggregates all phases of a run.
type Report struct {
	Seed   int64         `json:"seed"`
	Short  bool          `json:"short"`
	Pass   bool          `json:"pass"`
	Phases []PhaseResult `json:"phases"`
}

// Run executes every in-process chaos phase in order and aggregates the
// results. Phases are independent — each builds (and tears down) its
// own cluster — so a failure in one does not stop the rest. RunProcess
// is the sibling runner whose faults are real dead PIDs.
func Run(cfg Config) *Report {
	return runPhases(cfg, []func(Config) PhaseResult{
		ExactlyOnce,
		NegativeControl,
		PageRankGolden,
		LineBand,
		ShuffleGolden,
		FailoverPromotion,
		CheckpointCorruption,
		MigrationKill,
		ServeKill,
	})
}

func runPhases(cfg Config, phases []func(Config) PhaseResult) *Report {
	rep := &Report{Seed: cfg.Seed, Short: cfg.Short, Pass: true}
	for _, ph := range phases {
		start := time.Now()
		r := ph(cfg)
		r.Seconds = time.Since(start).Seconds()
		rep.Phases = append(rep.Phases, r)
		rep.Pass = rep.Pass && r.Pass
		status := "ok"
		if !r.Pass {
			status = "FAIL"
		}
		cfg.logf("%-22s %-4s %6.2fs  %s", r.Name, status, r.Seconds, r.Detail)
	}
	return rep
}

func failf(r PhaseResult, format string, args ...any) PhaseResult {
	r.Pass = false
	r.Detail = fmt.Sprintf(format, args...)
	return r
}

// ExactlyOnce hammers a vector with concurrent pushes while every
// server endpoint drops ~30% of its responses (the write is applied,
// the client hears nothing and retries). It keeps pushing until at
// least 100 responses were dropped, then asserts the dedup window made
// the retries invisible: the final vector sums to exactly the number
// of pushes issued, and the servers' apply counter equals the client's
// success counter with a nonzero replay count.
func ExactlyOnce(cfg Config) PhaseResult {
	r := PhaseResult{Name: "exactly-once"}
	f := rpc.NewFaulty(rpc.NewInProc(), cfg.Seed)
	cl, err := ps.NewCluster(ps.ClusterConfig{NumServers: 2, Transport: f, NamePrefix: "chaos-eo"})
	if err != nil {
		return failf(r, "cluster: %v", err)
	}
	defer cl.Close()
	agent := cl.NewClient()
	const size = 64
	vec, err := agent.CreateDenseVector(ps.DenseVectorSpec{Name: "eo", Size: size})
	if err != nil {
		return failf(r, "create: %v", err)
	}
	for _, s := range cl.ServerAddrs() {
		f.SetPolicy(s, rpc.Policy{DropResponse: 0.3})
	}

	const workers, opsEach, minDrops = 4, 32, 100
	rounds := 0
	for f.Stats().DroppedResponses < minDrops && rounds < 200 {
		var wg sync.WaitGroup
		var pushErr atomic.Value
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; k < opsEach; k++ {
					idx := int64((w*opsEach + k) % size)
					if err := vec.PushAdd([]int64{idx}, []float64{1}); err != nil {
						pushErr.Store(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if err, _ := pushErr.Load().(error); err != nil {
			return failf(r, "push: %v", err)
		}
		rounds++
	}
	f.Clear() // heal the network before reading results
	r.Faults = f.Stats()

	vals, err := vec.PullAll()
	if err != nil {
		return failf(r, "pull: %v", err)
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	want := float64(rounds * workers * opsEach)
	r.Applied, r.Replayed, err = cl.MutationTotals()
	if err != nil {
		return failf(r, "stats: %v", err)
	}
	var retried int64
	r.Sent, retried = agent.MutationStats()
	r.Detail = fmt.Sprintf("drops=%d pushes=%.0f sum=%.0f applied=%d sent=%d replayed=%d retried=%d",
		r.Faults.DroppedResponses, want, sum, r.Applied, r.Sent, r.Replayed, retried)
	switch {
	case r.Faults.DroppedResponses < minDrops:
		return failf(r, "only %d responses dropped, want >= %d (%s)", r.Faults.DroppedResponses, minDrops, r.Detail)
	case sum != want:
		return failf(r, "vector sum %.0f != %.0f pushes issued — lost or duplicated applies (%s)", sum, want, r.Detail)
	case r.Applied != r.Sent:
		return failf(r, "server applied %d != client sent %d (%s)", r.Applied, r.Sent, r.Detail)
	case r.Replayed == 0 || retried == 0:
		return failf(r, "no replays/retries observed — faults did not reach the dedup path (%s)", r.Detail)
	}
	r.Pass = true
	return r
}

// NegativeControl proves the dedup window is what ExactlyOnce measured:
// with deduplication switched off, the same response-drop fault makes
// every retried push double-apply, deterministically.
func NegativeControl(cfg Config) PhaseResult {
	r := PhaseResult{Name: "negative-control"}
	ps.SetDedup(false)
	defer ps.SetDedup(true)

	f := rpc.NewFaulty(rpc.NewInProc(), cfg.Seed+1)
	cl, err := ps.NewCluster(ps.ClusterConfig{NumServers: 1, Transport: f, NamePrefix: "chaos-nc"})
	if err != nil {
		return failf(r, "cluster: %v", err)
	}
	defer cl.Close()
	agent := cl.NewClient()
	vec, err := agent.CreateDenseVector(ps.DenseVectorSpec{Name: "nc", Size: 8})
	if err != nil {
		return failf(r, "create: %v", err)
	}
	srv := cl.ServerAddrs()[0]
	const pushes = 10
	for i := 0; i < pushes; i++ {
		// Drop exactly the next response: the push is applied, the client
		// retries, and without dedup the retry is applied again.
		f.DropResponses(srv, 1)
		if err := vec.PushAdd([]int64{0}, []float64{1}); err != nil {
			return failf(r, "push %d: %v", i, err)
		}
	}
	r.Faults = f.Stats()
	vals, err := vec.PullAll()
	if err != nil {
		return failf(r, "pull: %v", err)
	}
	r.Applied, r.Replayed, err = cl.MutationTotals()
	if err != nil {
		return failf(r, "stats: %v", err)
	}
	r.Sent, _ = agent.MutationStats()
	r.Detail = fmt.Sprintf("value=%.0f after %d pushes (want exactly %d), applied=%d sent=%d",
		vals[0], pushes, 2*pushes, r.Applied, r.Sent)
	// Every push was applied once, dropped, and applied again on retry.
	if vals[0] != 2*pushes || r.Applied <= r.Sent || r.Replayed != 0 {
		return failf(r, "dedup-disabled control did not double-apply: %s replayed=%d", r.Detail, r.Replayed)
	}
	r.Pass = true
	return r
}

// chaosEdges is a deterministic directed graph with non-uniform
// in-degrees (so PageRank converges to a non-trivial distribution): a
// ring plus a quadratic chord from every vertex.
func chaosEdges(n int) []core.Edge {
	es := make([]core.Edge, 0, 2*n)
	for i := 0; i < n; i++ {
		es = append(es, core.Edge{Src: int64(i), Dst: int64((i + 1) % n)})
		es = append(es, core.Edge{Src: int64(i), Dst: int64((i*i + 1) % n)})
	}
	return es
}

// PageRankGolden runs PageRank to a tight convergence tolerance twice —
// once clean, once under server kills, gray stalls and probabilistic
// response drops on every endpoint — and requires the converged ranks
// to be equal within float accumulation noise. Checkpoint/rollback
// handles the kills; the dedup window handles the drops; convergence
// to 1e-10 residual mass erases the extra iterations either causes.
func PageRankGolden(cfg Config) PhaseResult {
	r := PhaseResult{Name: "pagerank-golden"}
	n := 128
	if cfg.Short {
		n = 64
	}
	prCfg := core.PageRankConfig{
		Damping: 0.5, MaxIterations: 120, Tolerance: 1e-10,
		CheckpointEvery: 2, Parts: 4,
	}

	run := func(inject bool) ([]float64, rpc.FaultStats, error) {
		f := rpc.NewFaulty(rpc.NewInProc(), cfg.Seed+2)
		ctx, err := core.NewContext(core.Config{
			NumExecutors: 3, NumServers: 2, Transport: f,
			LeaseDuration: 40 * time.Millisecond,
			RestartDelay:  time.Millisecond,
		})
		if err != nil {
			return nil, rpc.FaultStats{}, err
		}
		defer ctx.Close()
		done := make(chan struct{})
		if inject {
			addrs := ctx.PS.ServerAddrs()
			for _, s := range addrs {
				f.SetPolicy(s, rpc.Policy{DropResponse: 0.02})
			}
			f.SetPolicy(ctx.PS.MasterAddr, rpc.Policy{DropResponse: 0.01})
			go func() {
				defer close(done)
				time.Sleep(15 * time.Millisecond)
				ctx.PS.KillServer(addrs[1])
				time.Sleep(40 * time.Millisecond)
				f.Stall(addrs[0], 5, 5*time.Millisecond)
				time.Sleep(20 * time.Millisecond)
				ctx.PS.KillServer(addrs[0])
			}()
		} else {
			close(done)
		}
		res, err := core.PageRank(ctx, dataflow.Parallelize(ctx.Spark, chaosEdges(n), 4), prCfg)
		<-done
		if err != nil {
			return nil, f.Stats(), err
		}
		if res.Iterations >= prCfg.MaxIterations {
			return nil, f.Stats(), fmt.Errorf("did not converge in %d iterations", prCfg.MaxIterations)
		}
		ranks, err := res.Ranks.PullAll()
		return ranks, f.Stats(), err
	}

	golden, _, err := run(false)
	if err != nil {
		return failf(r, "clean run: %v", err)
	}
	chaos, faults, err := run(true)
	r.Faults = faults
	if err != nil {
		return failf(r, "chaos run: %v", err)
	}
	var maxDiff float64
	for i := range golden {
		if d := math.Abs(golden[i] - chaos[i]); d > maxDiff {
			maxDiff = d
		}
	}
	r.Detail = fmt.Sprintf("n=%d maxAbsDiff=%.2e drops=%d stalls=%d", n, maxDiff, faults.DroppedResponses, faults.Stalls)
	if maxDiff > 1e-6 {
		return failf(r, "ranks diverged from golden run: %s", r.Detail)
	}
	if faults.DroppedResponses == 0 {
		return failf(r, "no faults were injected: %s", r.Detail)
	}
	r.Pass = true
	return r
}

// cosine is the cosine similarity of two vectors.
func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// cosMargin is the mean intra-class minus mean inter-class cosine
// similarity — positive when embeddings separate the planted
// communities.
func cosMargin(embs map[int64][]float64, truth []int) float64 {
	var intra, inter float64
	var ni, nx int
	for i := 0; i < len(truth); i++ {
		for j := i + 1; j < len(truth); j++ {
			c := cosine(embs[int64(i)], embs[int64(j)])
			if truth[i] == truth[j] {
				intra += c
				ni++
			} else {
				inter += c
				nx++
			}
		}
	}
	return intra/float64(ni) - inter/float64(nx)
}

// LineBand trains LINE on a planted two-community graph clean and under
// response drops plus gray stalls (no kills: embeddings are not
// checkpointed here, so a kill legitimately loses state). Because every
// retried push is deduplicated, the chaotic run must land in the same
// quality band: community separation stays positive and within a
// constant factor of the clean run's margin.
func LineBand(cfg Config) PhaseResult {
	r := PhaseResult{Name: "line-band"}
	const vertices = 60
	epochs := 12
	if cfg.Short {
		epochs = 8
	}
	raw, truth := gen.SBM(gen.SBMConfig{Vertices: vertices, Classes: 2, IntraDeg: 8, InterDeg: 0.3, Seed: 11})
	es := make([]core.Edge, len(raw))
	for i, e := range raw {
		es[i] = core.Edge{Src: e.Src, Dst: e.Dst}
	}
	lineCfg := core.LineConfig{Dim: 16, Order: 2, Epochs: epochs, BatchSize: 256, NegSamples: 4, LR: 0.06, Seed: 1}

	run := func(inject bool) (float64, rpc.FaultStats, error) {
		f := rpc.NewFaulty(rpc.NewInProc(), cfg.Seed+3)
		ctx, err := core.NewContext(core.Config{NumExecutors: 3, NumServers: 2, Transport: f})
		if err != nil {
			return 0, rpc.FaultStats{}, err
		}
		defer ctx.Close()
		if inject {
			// LINE's psFunc optimization makes few, large calls, so the
			// drop rate is aggressive: every fourth server response lost.
			for _, s := range ctx.PS.ServerAddrs() {
				f.SetPolicy(s, rpc.Policy{DropResponse: 0.25})
			}
			f.SetPolicy(ctx.PS.MasterAddr, rpc.Policy{DropResponse: 0.1})
			f.Stall(ctx.PS.ServerAddrs()[0], 10, 2*time.Millisecond)
		}
		res, err := core.Line(ctx, dataflow.Parallelize(ctx.Spark, es, 2), lineCfg)
		if err != nil {
			return 0, f.Stats(), err
		}
		ids := make([]int64, vertices)
		for i := range ids {
			ids[i] = int64(i)
		}
		embs, err := res.Embedding(ids)
		if err != nil {
			return 0, f.Stats(), err
		}
		return cosMargin(embs, truth), f.Stats(), nil
	}

	golden, _, err := run(false)
	if err != nil {
		return failf(r, "clean run: %v", err)
	}
	chaos, faults, err := run(true)
	r.Faults = faults
	if err != nil {
		return failf(r, "chaos run: %v", err)
	}
	r.Detail = fmt.Sprintf("margin clean=%.3f chaos=%.3f drops=%d stalls=%d",
		golden, chaos, faults.DroppedResponses, faults.Stalls)
	switch {
	case golden <= 0:
		return failf(r, "clean run failed to separate communities: %s", r.Detail)
	case chaos <= 0 || chaos < 0.25*golden:
		return failf(r, "chaotic run left the convergence band: %s", r.Detail)
	case faults.DroppedResponses < 10:
		return failf(r, "too few faults injected to mean anything: %s", r.Detail)
	}
	r.Pass = true
	return r
}

// ShuffleGolden runs a shuffle-heavy dataflow job (map + reduceByKey)
// while executors are killed from inside running tasks and one DFS
// datanode is down, and requires the output to be exactly equal to the
// directly-computed expectation — task retry must neither lose nor
// duplicate records.
func ShuffleGolden(cfg Config) PhaseResult {
	r := PhaseResult{Name: "shuffle-golden"}
	n := 4000
	if cfg.Short {
		n = 1500
	}
	fs := dfs.NewDefault()
	dctx := dataflow.NewContext(fs, dataflow.Config{
		NumExecutors: 3, DefaultParallelism: 8,
		RestartDelay: 2 * time.Millisecond, MaxTaskRetries: 6,
	})
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	// One datanode down for the whole job: shuffle files must be served
	// from the surviving replicas.
	fs.KillDataNode(0)
	defer fs.ReviveDataNode(0)

	// A correlated failure from inside a running task: every executor is
	// killed at once, so the killing task's own executor is guaranteed to
	// die mid-task and its in-flight results must be discarded and the
	// task retried on a restarted executor.
	var killAll atomic.Bool
	staged := dataflow.MapPartitions(dataflow.Parallelize(dctx, data, 8),
		func(part int, in []int64) ([]int64, error) {
			if part == 2 && killAll.CompareAndSwap(false, true) {
				for e := 0; e < 3; e++ {
					dctx.KillExecutor(e)
				}
			}
			return in, nil
		})
	kv := dataflow.Map(staged, func(x int64) dataflow.KV[int64, int64] {
		return dataflow.KV[int64, int64]{K: x % 101, V: x}
	})
	got, err := dataflow.ReduceByKey(kv, func(a, b int64) int64 { return a + b }, 8).Collect()
	if err != nil {
		return failf(r, "collect: %v", err)
	}

	want := make(map[int64]int64)
	for _, x := range data {
		want[x%101] += x
	}
	sort.Slice(got, func(i, j int) bool { return got[i].K < got[j].K })
	st := dctx.Stats()
	r.Detail = fmt.Sprintf("keys=%d/%d tasksRetried=%d", len(got), len(want), st.TasksRetried)
	if len(got) != len(want) {
		return failf(r, "wrong key count: %s", r.Detail)
	}
	for _, kvp := range got {
		if want[kvp.K] != kvp.V {
			return failf(r, "key %d: got %d want %d (%s)", kvp.K, kvp.V, want[kvp.K], r.Detail)
		}
	}
	if st.TasksRetried == 0 {
		return failf(r, "executor kills never forced a task retry: %s", r.Detail)
	}
	r.Pass = true
	return r
}

// FailoverPromotion kills a parameter server mid-LINE-training with
// primary/backup replication and heartbeat leases on. The lease
// detector must promote the dead server's backups in place: training
// finishes with zero lost acknowledged mutations (server apply counters
// equal client success counters, even though one server's memory is
// gone) and embeddings inside the LineBand convergence band — while
// RestartDelay is set far beyond the whole run's length, so a recovery
// that waited for a container restart could not have finished in time.
// The same kill with replication off (checkpoint-restart recovery, no
// snapshots taken) is the lossy control: the dead server's applied
// mutations vanish. A final sub-scenario partitions a primary away from
// the cluster and asserts that a client stranded on its side of the
// partition, still holding the pre-failover layout, is rejected with
// ErrStaleEpoch and its write is never applied anywhere.
func FailoverPromotion(cfg Config) PhaseResult {
	r := PhaseResult{Name: "failover-promotion"}
	const vertices = 60
	epochs := 12
	if cfg.Short {
		epochs = 8
	}
	raw, truth := gen.SBM(gen.SBMConfig{Vertices: vertices, Classes: 2, IntraDeg: 8, InterDeg: 0.3, Seed: 11})
	es := make([]core.Edge, len(raw))
	for i, e := range raw {
		es[i] = core.Edge{Src: e.Src, Dst: e.Dst}
	}
	lineCfg := core.LineConfig{Dim: 16, Order: 2, Epochs: epochs, BatchSize: 256, NegSamples: 4, LR: 0.06, Seed: 1}

	run := func(replicate, kill bool) (margin float64, applied, sent, promotions int64, err error) {
		f := rpc.NewFaulty(rpc.NewInProc(), cfg.Seed+4)
		// Leases drive detection in both runs.
		ccfg := core.Config{NumExecutors: 3, NumServers: 2, Transport: f, LeaseDuration: 40 * time.Millisecond}
		if replicate {
			// The grotesque RestartDelay proves no recovery path waited for
			// a replacement container.
			ccfg.Replicate = true
			ccfg.RestartDelay = 5 * time.Second
		} else {
			ccfg.RestartDelay = time.Millisecond
		}
		ctx, err := core.NewContext(ccfg)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		defer ctx.Close()
		done := make(chan struct{})
		if kill {
			victim := ctx.PS.ServerAddrs()[1]
			go func() {
				defer close(done)
				// Kill once training mutations are flowing (both embedding
				// models exist by the first push), never mid-CreateModel.
				deadline := time.Now().Add(3 * time.Second)
				for time.Now().Before(deadline) {
					if s, _ := ctx.Agent.MutationStats(); s > 30 {
						break
					}
					time.Sleep(2 * time.Millisecond)
				}
				ctx.PS.KillServer(victim)
			}()
		} else {
			close(done)
		}
		res, err := core.Line(ctx, dataflow.Parallelize(ctx.Spark, es, 2), lineCfg)
		<-done
		if err != nil {
			return 0, 0, 0, 0, err
		}
		ids := make([]int64, vertices)
		for i := range ids {
			ids[i] = int64(i)
		}
		embs, err := res.Embedding(ids)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		applied, _, err = ctx.PS.MutationTotals()
		if err != nil {
			return 0, 0, 0, 0, err
		}
		sent, _ = ctx.Agent.MutationStats()
		if replicate {
			st, err := ctx.PS.FailoverStats()
			if err != nil {
				return 0, 0, 0, 0, err
			}
			promotions = st.Promotions
		}
		return cosMargin(embs, truth), applied, sent, promotions, nil
	}

	golden, _, _, _, err := run(false, false)
	if err != nil {
		return failf(r, "clean run: %v", err)
	}
	margin, applied, sent, promotions, err := run(true, true)
	if err != nil {
		return failf(r, "replicated kill run: %v", err)
	}
	r.Applied, r.Sent = applied, sent
	_, capplied, csent, _, err := run(false, true)
	if err != nil {
		return failf(r, "control kill run: %v", err)
	}
	lost := csent - capplied
	r.Detail = fmt.Sprintf("margin clean=%.3f failover=%.3f promotions=%d applied=%d sent=%d controlLost=%d",
		golden, margin, promotions, applied, sent, lost)
	switch {
	case golden <= 0:
		return failf(r, "clean run failed to separate communities: %s", r.Detail)
	case promotions == 0:
		return failf(r, "server kill never promoted a backup: %s", r.Detail)
	case applied != sent:
		return failf(r, "acknowledged mutations lost across promotion: %s", r.Detail)
	case margin <= 0 || margin < 0.25*golden:
		return failf(r, "failover run left the convergence band: %s", r.Detail)
	case lost <= 0:
		return failf(r, "replication-off control lost nothing — the kill was toothless: %s", r.Detail)
	}

	// Fence sub-scenario: partition a primary (and a client stranded with
	// it) away from the master. After its backup is promoted, the
	// stranded client's push — still aimed at the old primary under the
	// old layout — must be fenced, not applied.
	ff := rpc.NewFaulty(rpc.NewInProc(), cfg.Seed+5)
	cl, err := ps.NewCluster(ps.ClusterConfig{
		NumServers: 2, Transport: ff, NamePrefix: "chaos-fence",
		Replicate: true, LeaseDuration: 40 * time.Millisecond, RestartDelay: 5 * time.Second,
	})
	if err != nil {
		return failf(r, "fence cluster: %v", err)
	}
	defer cl.Close()
	agent := cl.NewClient()
	vec, err := agent.CreateDenseVector(ps.DenseVectorSpec{Name: "fence", Size: 8, Partitions: 2})
	if err != nil {
		return failf(r, "fence create: %v", err)
	}
	stranded := ps.NewClient(ff.Caller("probe"), cl.MasterAddr)
	stranded.RetryTimeout = 400 * time.Millisecond
	sv, err := stranded.Vector("fence")
	if err != nil {
		return failf(r, "stranded client resolve: %v", err)
	}
	meta, err := agent.GetModel("fence")
	if err != nil {
		return failf(r, "fence layout: %v", err)
	}
	oldPrimary := meta.Parts[0].Server
	ff.SetPartition(map[string][]string{"iso": {oldPrimary, "probe"}})
	fenceDeadline := time.Now().Add(3 * time.Second)
	for {
		st, err := cl.FailoverStats()
		if err == nil && st.Promotions > 0 {
			break
		}
		if time.Now().After(fenceDeadline) {
			return failf(r, "partitioned primary was never failed over")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let the zombie's self-fence window pass
	err = sv.PushAdd([]int64{0}, []float64{100})
	if err == nil {
		return failf(r, "zombie primary accepted a stale-layout push after promotion")
	}
	if !ps.IsStaleEpochErr(err) {
		return failf(r, "stale-layout push failed without an epoch fence: %v", err)
	}
	ff.ClearPartition()
	vals, err := vec.PullAll()
	if err != nil {
		return failf(r, "fence pull: %v", err)
	}
	if vals[0] != 0 {
		return failf(r, "fenced write leaked into the model: %v", vals[0])
	}
	r.Detail += " fenced=1"
	r.Pass = true
	return r
}

// MigrationKill kills a partition migration's destination server while
// client pushes are in flight. The cutover layout (epoch bump, new
// owner) is already published when the copy to the dead destination
// fails, so this exercises the abort arm of the fenced cutover: the
// master must roll the layout back to the source, which never dropped
// its data (the source truncates only after the destination
// acknowledges InstallPart). The phase asserts migration atomicity from
// the outside — every concurrent push lands exactly once (applied ==
// sent, vector sums to seed + pushes), the final layout is a disjoint
// contiguous cover with each range owned by exactly one live server,
// and the dead destination owns nothing. A retry of the same move to a
// freshly added server must then complete, proving the abort left no
// half-installed state behind.
func MigrationKill(cfg Config) PhaseResult {
	r := PhaseResult{Name: "migration-kill"}
	// No lease: the master must discover the dead destination the hard
	// way — mid-migration, from the failed copy — not from a heartbeat.
	cl, err := ps.NewCluster(ps.ClusterConfig{NumServers: 3, NamePrefix: "chaos-mig"})
	if err != nil {
		return failf(r, "cluster: %v", err)
	}
	defer cl.Close()
	agent := cl.NewClient()
	const size = 256
	vec, err := agent.CreateDenseVector(ps.DenseVectorSpec{Name: "mig", Size: size, Partitions: 2})
	if err != nil {
		return failf(r, "create: %v", err)
	}
	seed := make([]float64, size)
	for i := range seed {
		seed[i] = float64(i)
	}
	if err := vec.SetAll(seed); err != nil {
		return failf(r, "seed: %v", err)
	}
	// Partitions live on servers 0 and 1; server 2 is the migration
	// destination, and it dies before the copy can reach it.
	dest := cl.ServerAddrs()[2]
	cl.KillServer(dest)

	const workers, perWorker = 3, 40
	var wg sync.WaitGroup
	var pushErr atomic.Value
	pushers := make([]*ps.Client, workers)
	started := make(chan struct{})
	for w := 0; w < workers; w++ {
		pushers[w] = cl.NewClient()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wv, err := pushers[w].Vector("mig")
			if err != nil {
				pushErr.Store(err)
				return
			}
			for k := 0; k < perWorker; k++ {
				if w == 0 && k == 2 {
					close(started)
				}
				idx := int64((w*perWorker + k) % size)
				if err := wv.PushAdd([]int64{idx}, []float64{1}); err != nil {
					pushErr.Store(fmt.Errorf("worker %d push %d: %w", w, k, err))
					return
				}
			}
		}(w)
	}
	<-started
	// The master publishes the cutover (partition 1 -> dest, epoch bump)
	// and only then learns the destination is gone when InstallPart
	// fails. The move must abort and roll back, with the pushes racing
	// the whole window.
	moveErr := agent.MovePartition("mig", 1, dest)
	wg.Wait()
	if err, _ := pushErr.Load().(error); err != nil {
		return failf(r, "concurrent push: %v", err)
	}
	if moveErr == nil {
		return failf(r, "move to a dead destination reported success")
	}

	probe := cl.NewClient()
	meta, err := probe.GetModel("mig")
	if err != nil {
		return failf(r, "layout after abort: %v", err)
	}
	// Single ownership: the ranges are a disjoint contiguous cover of
	// [0, size) and none of them is homed on the dead destination.
	var lo int64
	for _, p := range meta.Parts {
		if p.Lo != lo {
			return failf(r, "layout hole or overlap at %d after abort: %+v", lo, meta.Parts)
		}
		if p.Server == dest {
			return failf(r, "partition %d still owned by the dead destination after abort", p.Index)
		}
		lo = p.Hi
	}
	if lo != size {
		return failf(r, "layout covers [0,%d), want [0,%d): %+v", lo, size, meta.Parts)
	}

	vals, err := vec.PullAll()
	if err != nil {
		return failf(r, "pull after abort: %v", err)
	}
	var sum, want float64
	for i, v := range vals {
		sum += v
		want += seed[i]
	}
	want += workers * perWorker
	if sum != want {
		return failf(r, "vector sum %.0f != %.0f after aborted migration — pushes lost or double-applied", sum, want)
	}

	// The same move must complete atomically once a live destination
	// exists: abort left no half-installed partition to collide with.
	late, err := cl.AddServer("late")
	if err != nil {
		return failf(r, "add server: %v", err)
	}
	if err := agent.MovePartition("mig", 1, late); err != nil {
		return failf(r, "retried move to live server: %v", err)
	}
	meta, err = cl.NewClient().GetModel("mig")
	if err != nil {
		return failf(r, "layout after retry: %v", err)
	}
	movedOK := false
	for _, p := range meta.Parts {
		if p.Index == 1 {
			movedOK = p.Server == late
		}
	}
	if !movedOK {
		return failf(r, "partition 1 not on %q after retried move: %+v", late, meta.Parts)
	}
	vals, err = vec.PullAll()
	if err != nil {
		return failf(r, "pull after retry: %v", err)
	}
	sum = 0
	for _, v := range vals {
		sum += v
	}
	if sum != want {
		return failf(r, "vector sum %.0f != %.0f after completed migration", sum, want)
	}

	r.Applied, _, err = cl.MutationTotals()
	if err != nil {
		return failf(r, "stats: %v", err)
	}
	r.Sent, _ = agent.MutationStats()
	for _, p := range pushers {
		s, _ := p.MutationStats()
		r.Sent += s
	}
	r.Detail = fmt.Sprintf("aborted move rolled back, retry landed on %s; applied=%d sent=%d sum=%.0f",
		late, r.Applied, r.Sent, sum)
	if r.Applied != r.Sent {
		return failf(r, "applied %d != sent %d across aborted+retried migration (%s)", r.Applied, r.Sent, r.Detail)
	}
	r.Pass = true
	return r
}

// CheckpointCorruption publishes two checkpoint generations of a
// consistent-recovery model, corrupts the latest one on the DFS, kills
// a server and lets its lease expire. The CRC check must reject
// the torn generation and recovery must roll every partition back to
// the previous fence — the model reads as generation one everywhere,
// never a mix of fences or the torn bytes.
func CheckpointCorruption(cfg Config) PhaseResult {
	r := PhaseResult{Name: "checkpoint-corruption"}
	fsys := dfs.NewDefault()
	cl, err := ps.NewCluster(ps.ClusterConfig{NumServers: 2, FS: fsys, NamePrefix: "chaos-ck", LeaseDuration: 40 * time.Millisecond})
	if err != nil {
		return failf(r, "cluster: %v", err)
	}
	defer cl.Close()
	agent := cl.NewClient()
	const name, size = "chaos-ckv", 16
	vec, err := agent.CreateDenseVector(ps.DenseVectorSpec{Name: name, Size: size, ConsistentRecovery: true})
	if err != nil {
		return failf(r, "create: %v", err)
	}
	// Generation 1 holds 1s, generation 2 holds 2s, live memory holds 3s.
	for gen := 1; gen <= 2; gen++ {
		if err := vec.Fill(float64(gen)); err != nil {
			return failf(r, "fill gen %d: %v", gen, err)
		}
		if _, err := agent.CheckpointModels([]string{name}, -1); err != nil {
			return failf(r, "checkpoint gen %d: %v", gen, err)
		}
	}
	if err := vec.Fill(3); err != nil {
		return failf(r, "fill live: %v", err)
	}
	// One bit flip in the latest generation of partition 0 — injected at
	// a seed-derived offset so different seeds tear different bytes.
	if err := fsys.CorruptFile(ps.CheckpointPath(name, 0), cfg.Seed%97); err != nil {
		return failf(r, "corrupt: %v", err)
	}

	before, err := agent.RecoveryCount()
	if err != nil {
		return failf(r, "recovery count: %v", err)
	}
	victim := cl.ServerAddrs()[0]
	cl.KillServer(victim)
	// RecoveryCount moves when the master starts restoring; StopLeases
	// then waits out the detector tick that runs the restore.
	n, deadline := before, time.Now().Add(10*time.Second)
	for ; n == before && err == nil && time.Now().Before(deadline); n, err = agent.RecoveryCount() {
		time.Sleep(5 * time.Millisecond)
	}
	cl.Master.StopLeases()
	if err != nil || n != before+1 {
		return failf(r, "recovery did not happen: recoveries %d -> %d (%v)", before, n, err)
	}
	if stats, err := cl.Stats(); err != nil || stats[0].Addr != victim || stats[0].Dead {
		return failf(r, "%s not back after recovery: %+v (%v)", victim, stats, err)
	}
	vals, err := vec.PullAll()
	if err != nil {
		return failf(r, "pull after recovery: %v", err)
	}
	for i, v := range vals {
		if v != 1 {
			return failf(r, "element %d = %v after recovery, want 1.0 (previous generation) — fence mixing or torn read", i, v)
		}
	}
	r.Detail = fmt.Sprintf("killed %s; latest generation rejected, all %d elements restored from previous fence", victim, size)
	r.Pass = true
	return r
}

// ServeKill drives verified reads through the serving tier while one of
// the serving endpoints is killed mid-stream. Every pull must keep
// returning the exact published values from the surviving snapshot
// replicas and hot-head holders — zero failed pulls, zero wrong rows,
// and no silent fallback to the mutable primaries.
func ServeKill(cfg Config) PhaseResult {
	r := PhaseResult{Name: "serve-kill"}
	cl, err := ps.NewCluster(ps.ClusterConfig{NumServers: 3, NamePrefix: "chaos-serve"})
	if err != nil {
		return failf(r, "cluster: %v", err)
	}
	defer cl.Close()
	cl.Master.SetServeOptions(ps.ServeOptions{Replicas: 2, HotKeys: 8})
	agent := cl.NewClient()
	const dim = 4
	nIDs := int64(256)
	pulls := 4000
	if cfg.Short {
		nIDs, pulls = 64, 800
	}
	emb, err := agent.CreateEmbedding(ps.EmbeddingSpec{Name: "serve-chaos", Dim: dim, Partitions: 3})
	if err != nil {
		return failf(r, "create: %v", err)
	}
	rows := make(map[int64][]float64, nIDs)
	for id := int64(0); id < nIDs; id++ {
		row := make([]float64, dim)
		for j := range row {
			row[j] = float64(id*dim + int64(j))
		}
		rows[id] = row
	}
	if err := emb.PushSet(rows); err != nil {
		return failf(r, "seed rows: %v", err)
	}
	// Skew the pull counters so the publication mines a real hot head.
	rng := rand.New(rand.NewSource(cfg.Seed))
	hotIDs := []int64{1, 2, 3, 5, 8, 13, 21, 34}
	for i := 0; i < 40; i++ {
		if _, err := emb.Pull(hotIDs); err != nil {
			return failf(r, "warm pulls: %v", err)
		}
	}
	sl, err := agent.PublishSnapshot("serve-chaos")
	if err != nil {
		return failf(r, "publish: %v", err)
	}
	sc, err := agent.Serve("serve-chaos")
	if err != nil {
		return failf(r, "serve handle: %v", err)
	}
	check := func(i int) error {
		var id int64
		if rng.Intn(10) < 9 { // 90% hot head, 10% uniform tail
			id = hotIDs[rng.Intn(len(hotIDs))]
		} else {
			id = rng.Int63n(nIDs)
		}
		got, err := sc.Pull([]int64{id})
		if err != nil {
			return fmt.Errorf("pull %d (id %d): %w", i, id, err)
		}
		want := rows[id]
		for j := range want {
			if got[id][j] != want[j] {
				return fmt.Errorf("pull %d: row %d = %v, want %v", i, id, got[id], want)
			}
		}
		return nil
	}
	for i := 0; i < pulls/2; i++ {
		if err := check(i); err != nil {
			return failf(r, "pre-kill %v", err)
		}
	}
	victim := sl.Endpoints[int(cfg.Seed)%len(sl.Endpoints)]
	cl.KillServer(victim)
	for i := pulls / 2; i < pulls; i++ {
		if err := check(i); err != nil {
			return failf(r, "post-kill %v", err)
		}
	}
	st := sc.Stats()
	if st.PrimaryRows != 0 {
		return failf(r, "%d rows leaked to the mutable primaries", st.PrimaryRows)
	}
	r.Detail = fmt.Sprintf("killed %s after %d pulls; %d total pulls all exact (cache %d, hot %d, snap %d, primary 0)",
		victim, pulls/2, pulls, st.CacheRows, st.HotRows, st.SnapRows)
	r.Pass = true
	return r
}

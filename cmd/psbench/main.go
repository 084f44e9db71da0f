// Command psbench regenerates every table and figure of the PSGraph
// paper's evaluation (Sec. V) on scaled-down synthetic workloads and
// prints paper-reported values next to the measured ones, and runs the
// count-gated correctness experiments (chaos, failover, rebalance, serve,
// cluster, masterha), each of which records BENCH_<exp>.json.
//
// Usage:
//
//	psbench [-scale small|medium] [-exp all|<experiment>] [-out DIR] [-seed N]
//
// Performance is measured by the repo benchmark (bench/run.sh), not here.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"

	"psgraph/internal/bench"
	"psgraph/internal/chaos"
	"psgraph/internal/cluster"
)

// onSignal drains every spawned process fleet on the first
// SIGINT/SIGTERM — so an interrupted -exp cluster run SIGTERMs its
// psnode fleet instead of leaving the kernel's pdeathsig to kill -9 it
// mid-checkpoint — then exits 128+signo. A second signal force-quits.
func onSignal() {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-ch
		log.Printf("psbench: %v — draining process fleets (send again to force quit)", s)
		done := make(chan struct{})
		go func() {
			cluster.CloseAll()
			close(done)
		}()
		select {
		case <-done:
		case <-ch:
			log.Print("psbench: forced quit")
		}
		code := 130 // 128 + SIGINT
		if s == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()
}

// env is what an experiment runs with.
type env struct {
	bench.Scale
	out  string // directory the BENCH_<exp>.json reports are written to
	seed int64  // chaos fault-schedule seed
}

type experiment struct {
	name string
	run  func(env) bool
}

// experiments lists every -exp value in the order -exp all runs them:
// the paper's evaluation first, then the count-gated correctness runs.
var experiments = []experiment{
	{"fig6", runFig6},
	{"line", runLine},
	{"table1", runTable1},
	{"table2", runTable2},
	{"ablation", runAblation},
	{"chaos", runChaos},
	{"failover", runFailover},
	{"rebalance", runRebalance},
	{"serve", runServe},
	{"cluster", runCluster},
	{"masterha", runMasterHA},
}

func expNames() string {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(names, "|")
}

func main() {
	log.SetFlags(0)
	onSignal()
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main without the process exit: it parses args, runs the
// selected experiments and returns the exit code.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("psbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "small", "dataset/resource scale preset (small|medium)")
	exp := fs.String("exp", "all", "experiment to run ("+expNames()+")")
	out := fs.String("out", ".", "directory the BENCH_<exp>.json reports are written to")
	seed := fs.Int64("seed", 7, "chaos fault-schedule seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	scale, err := bench.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	selected := experiments
	if *exp != "all" {
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == *exp })
		if i < 0 {
			fmt.Fprintf(stderr, "unknown experiment %q (valid: %s)\n", *exp, expNames())
			return 1
		}
		selected = experiments[i : i+1]
	}

	fmt.Printf("psbench: scale=%s  executors=%d servers=%d parts=%d\n",
		scale.Name, scale.Executors, scale.Servers, scale.Parts)
	fmt.Printf("         DS1'=2^%d vertices/%d edges  DS2'=2^%d/%d  DS3'=%d vertices\n",
		scale.DS1Scale, scale.DS1Edges, scale.DS2Scale, scale.DS2Edges, scale.DS3Vertices)
	fmt.Printf("         executor memory: PSGraph %dMB, GraphX %dMB (paper: 20GB vs 55GB)\n\n",
		scale.PSGraphExecMem>>20, scale.GraphXExecMem>>20)

	e := env{Scale: scale, out: *out, seed: *seed}
	for _, x := range selected {
		if !x.run(e) {
			return 1
		}
	}
	return 0
}

// writeReport records v as dir/BENCH_<exp>.json and closes the
// experiment's output block.
func writeReport(dir, exp string, v any) bool {
	path := filepath.Join(dir, "BENCH_"+exp+".json")
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		log.Printf("  writing %s FAILED: %v", path, err)
		return false
	}
	fmt.Printf("  report written to %s\n\n", path)
	return true
}

func cellString(c bench.CellResult) string {
	if c.OOM {
		return "OOM"
	}
	return fmt.Sprintf("%.2fs", c.Seconds)
}

// fig6Cell runs one PSGraph/GraphX pair and prints the row.
func fig6Cell(name, dataset string, paperPS, paperGX string,
	ps func() (bench.CellResult, error), gx func() (bench.CellResult, error)) bool {
	psRes, err := ps()
	if err != nil {
		log.Printf("  %-16s %-5s PSGraph FAILED: %v", name, dataset, err)
		return false
	}
	gxRes, err := gx()
	if err != nil {
		log.Printf("  %-16s %-5s GraphX FAILED: %v", name, dataset, err)
		return false
	}
	ratio := "-"
	if !psRes.OOM && !gxRes.OOM && psRes.Seconds > 0 {
		ratio = fmt.Sprintf("%.1fx", gxRes.Seconds/psRes.Seconds)
	}
	fmt.Printf("  %-16s %-5s  paper: PSGraph %-5s GraphX %-5s | measured: PSGraph %-8s GraphX %-8s speedup %-6s %s\n",
		name, dataset, paperPS, paperGX, cellString(psRes), cellString(gxRes), ratio, psRes.Extra)
	return true
}

func runFig6(s env) bool {
	fmt.Println("== Fig. 6: traditional graph algorithms, PSGraph vs GraphX ==")
	ds1 := s.DS1()
	ds1w := s.DS1W()
	ds2 := s.DS2()
	ok := true
	ok = fig6Cell("PageRank", "DS1'", "0.5h", "4h",
		func() (bench.CellResult, error) { return s.PSGraphPageRank(ds1) },
		func() (bench.CellResult, error) { return s.GraphXPageRank(ds1) }) && ok
	ok = fig6Cell("PageRank", "DS2'", "7h", "OOM",
		func() (bench.CellResult, error) { return s.PSGraphPageRank(ds2) },
		func() (bench.CellResult, error) { return s.GraphXPageRank(ds2) }) && ok
	ok = fig6Cell("CommonNeighbor", "DS1'", "0.5h", "1.5h",
		func() (bench.CellResult, error) { return s.PSGraphCommonNeighbor(ds1) },
		func() (bench.CellResult, error) { return s.GraphXCommonNeighbor(ds1) }) && ok
	ok = fig6Cell("CommonNeighbor", "DS2'", "3.5h", "OOM",
		func() (bench.CellResult, error) { return s.PSGraphCommonNeighbor(ds2) },
		func() (bench.CellResult, error) { return s.GraphXCommonNeighbor(ds2) }) && ok
	ok = fig6Cell("FastUnfolding", "DS1'", "3.5h", "10.3h",
		func() (bench.CellResult, error) { return s.PSGraphFastUnfolding(ds1w) },
		func() (bench.CellResult, error) { return s.GraphXFastUnfolding(ds1w) }) && ok
	ok = fig6Cell("K-Core", "DS1'", "2h", "OOM",
		func() (bench.CellResult, error) { return s.PSGraphKCore(ds1) },
		func() (bench.CellResult, error) { return s.GraphXKCore(ds1) }) && ok
	ok = fig6Cell("TriangleCount", "DS1'", "0.7h", "OOM",
		func() (bench.CellResult, error) { return s.PSGraphTriangle(ds1) },
		func() (bench.CellResult, error) { return s.GraphXTriangle(ds1) }) && ok
	fmt.Println()
	return ok
}

func runLine(s env) bool {
	fmt.Println("== Sec. V-B2: LINE graph embedding (paper: 40 min/epoch on DS1, dim 128; no distributed baseline) ==")
	res, err := s.PSGraphLine(s.DS1())
	if err != nil {
		log.Printf("  LINE FAILED: %v", err)
		return false
	}
	fmt.Printf("  LINE dim=%d on DS1': %s per epoch (reference measurement, as in the paper)\n\n",
		s.LineDim, cellString(res))
	return true
}

func runTable1(s env) bool {
	fmt.Println("== Table I: GraphSage on DS3', Euler vs PSGraph ==")
	res, err := s.Table1()
	if err != nil {
		log.Printf("  Table1 FAILED: %v", err)
		return false
	}
	fmt.Printf("  %-8s  paper: pre 8h      train 200s/epoch  acc 91.5%%  | measured: pre %-10v epoch %-10v acc %.1f%%\n",
		"Euler", res.EulerPreprocess.Round(1e6), res.EulerEpochMean.Round(1e6), 100*res.EulerAccuracy)
	fmt.Printf("  %-8s  paper: pre 12min   train 7s/epoch    acc 91.6%%  | measured: pre %-10v epoch %-10v acc %.1f%%\n",
		"PSGraph", res.PSGraphPreprocess.Round(1e6), res.PSGraphEpochMean.Round(1e6), 100*res.PSGraphAccuracy)
	fmt.Printf("  speedups: preprocessing %.1fx (paper 40x), per-epoch %.1fx (paper ~29x)\n\n",
		res.EulerPreprocess.Seconds()/res.PSGraphPreprocess.Seconds(),
		res.EulerEpochMean.Seconds()/res.PSGraphEpochMean.Seconds())
	return true
}

func runTable2(s env) bool {
	fmt.Println("== Table II: failure recovery on common neighbor, DS1' ==")
	res, err := s.Table2()
	if err != nil {
		log.Printf("  Table2 FAILED: %v", err)
		return false
	}
	fmt.Printf("  paper:    none 30min, executor failure 35min (+17%%), PS failure 36min (+20%%)\n")
	fmt.Printf("  measured: none %v, executor failure %v (+%.0f%%), PS failure %v (+%.0f%%)\n\n",
		res.Baseline.Round(1e6),
		res.ExecutorFailure.Round(1e6), 100*(res.ExecutorFailure.Seconds()/res.Baseline.Seconds()-1),
		res.PSFailure.Round(1e6), 100*(res.PSFailure.Seconds()/res.Baseline.Seconds()-1))
	return true
}

// runChaos drives the seeded fault-injection suite end-to-end: raw PS
// pushes under response drops (exactly-once accounting plus its
// dedup-disabled negative control), PageRank under server kills and
// drops (golden-equal ranks), LINE under drops and stalls (convergence
// band), a shuffle job under executor kills (exact output), and
// checkpoint corruption (previous-generation fallback). Passes when
// every phase holds; the per-phase report is recorded as JSON.
func runChaos(s env) bool {
	fmt.Printf("== Chaos: fault injection across the PS + dataflow stack (seed %d) ==\n", s.seed)
	rep := chaos.Run(chaos.Config{
		Seed:  s.seed,
		Short: s.Name == "small",
		Log: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	})
	return writeReport(s.out, "chaos", rep) && rep.Pass
}

// runFailover times the same mid-stream server kill under backup
// promotion and under checkpoint restart, both lease-driven, and
// records detection latency, client-visible recovery latency and lost
// acknowledged updates for both. Passes when promotion beats restart on
// both recovery latency and lost-update count with zero lost updates.
func runFailover(s env) bool {
	fmt.Println("== Failover: lease promotion vs checkpoint restart on a mid-stream server kill ==")
	cfg := bench.DefaultFailoverConfig(s.Scale)
	rep, err := bench.RunFailoverBench(cfg)
	if err != nil {
		log.Printf("  failover bench FAILED: %v", err)
		return false
	}
	fmt.Printf("  %d servers, %d partitions, lease %.0fms, container restart %.0fms, %d pushes/leg\n",
		rep.Servers, rep.Parts, rep.LeaseMillis, rep.RestartMillis, rep.PushesPerLeg)
	fmt.Printf("  %-20s %10s %11s %8s %8s %10s\n", "mode", "detect", "recover", "acked", "lost", "promoted")
	for _, m := range rep.Modes {
		fmt.Printf("  %-20s %8.1fms %9.1fms %8d %8d %10d\n",
			m.Mode, m.DetectMillis, m.RecoverMillis, m.Acked, m.Lost, m.Promotions)
	}
	return writeReport(s.out, "failover", rep) && rep.PromotionWins && rep.Modes[0].Lost == 0
}

// runRebalance drives a skewed push stream while the load-aware planner
// splits the hot partition automatically, then drains a server
// mid-stream. Passes when the split happened, the post-split epoch beat
// the pre-split epoch, the drain lost zero acknowledged updates, and
// exactly-once accounting held across every cutover.
func runRebalance(s env) bool {
	fmt.Println("== Rebalance: elastic partitions under a skewed push stream ==")
	cfg := bench.DefaultRebalanceConfig(s.Scale)
	rep, err := bench.RunRebalanceBench(cfg)
	if err != nil {
		log.Printf("  rebalance bench FAILED: %v", err)
		return false
	}
	fmt.Printf("  %d servers, %d pushers x %d pushes of %d rows (dim %d), %.0f%% at the hub ids, %d-row universe\n",
		rep.Servers, rep.Pushers, rep.PushesPerLeg, rep.Batch, rep.Dim, 100*rep.HotFrac, rep.Rows)
	fmt.Printf("  %-14s %10s %12s %8s\n", "epoch", "wall", "hot p99", "parts")
	for _, p := range []bench.RebalancePhase{rep.Before, rep.After} {
		fmt.Printf("  %-14s %9.3fs %10.3fms %8d\n", p.Name, p.WallSeconds, p.HotP99Millis, p.Parts)
	}
	fmt.Printf("  automatic splits=%d moves=%d — hot partition's mutation share %.0f%% -> %.0f%% (%.2fx better spread)\n",
		rep.Splits, rep.Moves, 100*rep.HotShareBefore, 100*rep.HotShareAfter, rep.BalanceGain)
	fmt.Printf("  timing texture: hot p99 %.2fx, epoch wall %.2fx vs pre-split\n", rep.HotGain, rep.Speedup)
	fmt.Printf("  mid-stream drain: %d pushes acked, %d mass lost; applied=%d sent=%d\n",
		rep.DrainAcked, rep.LostMass, rep.Applied, rep.Sent)
	return writeReport(s.out, "rebalance", rep) && rep.Pass
}

// runServe drives skewed mixed pulls from the read-optimized serving
// tier while the trainers keep pushing. Passes when the snapshot tier
// (row caches, replicated hot head, snapshot replicas) absorbed >=90%
// of the served rows, the hot head hit the local cache >=80% of the
// time, and exactly-once accounting held across both phases.
func runServe(s env) bool {
	fmt.Println("== Serve: read-optimized serving tier under a mixed read/train load ==")
	cfg := bench.DefaultServeConfig(s.Scale)
	rep, err := bench.RunServeBench(cfg)
	if err != nil {
		log.Printf("  serve bench FAILED: %v", err)
		return false
	}
	fmt.Printf("  %d servers, %d trainers, %d serve agents, %d-row universe (hot head %d), dim %d, batch %d, %.0f%% hot\n",
		rep.Servers, rep.Trainers, rep.Agents, rep.Rows, rep.HotHead, rep.Dim, rep.Batch, 100*rep.HotFrac)
	fmt.Printf("  %-10s %9s %10s %12s %10s %10s %10s\n",
		"phase", "wall", "pushes/s", "pull QPS", "pulls", "p50", "p99")
	for _, p := range []bench.ServePhase{rep.Control, rep.Mixed} {
		fmt.Printf("  %-10s %8.3fs %10.0f %12.0f %10d %8.3fms %8.3fms\n",
			p.Name, p.WallSeconds, p.PushesPerSec, p.QPS, p.Pulls, p.P50Millis, p.P99Millis)
	}
	fmt.Printf("  row provenance: cache=%d hot-replica=%d snapshot=%d primary=%d — offload share %.1f%%\n",
		rep.CacheRows, rep.HotRows, rep.SnapRows, rep.PrimaryRows, 100*rep.OffloadShare)
	fmt.Printf("  hot head: %d/%d workload head ids mined into generation %d; cache hit ratio %.1f%% (%d/%d)\n",
		rep.HotMined, rep.HotHead, rep.SnapEpoch, 100*rep.HotHitRatio, rep.HotCacheHits, rep.HotLookups)
	fmt.Printf("  training texture: mixed-phase push throughput %.2fx of control; applied=%d sent=%d\n",
		rep.TrainRatio, rep.Applied, rep.Sent)
	return writeReport(s.out, "serve", rep) && rep.Pass
}

// runCluster runs the multi-process deployment benchmark: every role a
// real psnode OS process, a real kill -9 of partition 0's primary
// mid-stream, crash-restart under the old address, and an end-to-end
// exactly-once audit from this (the driver) process. Passes when zero
// acknowledged updates were lost, applied == sent, and a promotion was
// observed; constrained hosts record a skipped-but-passing report.
func runCluster(s env) bool {
	fmt.Println("== Cluster: kill -9 recovery across a real multi-process deployment ==")
	cfg := bench.DefaultClusterConfig(s.Scale)
	rep, err := bench.RunClusterBench(cfg)
	if err != nil {
		log.Printf("  cluster bench FAILED: %v", err)
		return false
	}
	if rep.Skipped != "" {
		fmt.Printf("  skipped: %s\n", rep.Skipped)
	} else {
		fmt.Printf("  %d server + %d executor processes, lease %.0fms, %d pushes/executor over %d rows\n",
			rep.Servers, rep.Executors, rep.LeaseMillis, rep.Pushes, rep.Rows)
		fmt.Printf("  kill -9 -> promotion detected %.1fms, client-visible outage %.1fms, rejoin ready %.1fms\n",
			rep.DetectMillis, rep.RecoverMillis, rep.RejoinMillis)
		fmt.Printf("  audit: acked=%d mass=%.0f lost=%d failed=%d applied=%d sent=%d retried=%d promotions=%d reseeds=%d\n",
			rep.Acked, rep.Mass, rep.Lost, rep.Failed, rep.Applied, rep.Sent, rep.Retried, rep.Promotions, rep.Reseeds)
	}
	return writeReport(s.out, "cluster", rep) && rep.Pass
}

// runMasterHA runs the master crash-restart benchmark: kill -9 the
// master process mid-stream, leave the metadata plane dark for a dwell
// window, relaunch under the old address, and audit that the WAL replay
// plus the lease grace window kept every acknowledged update, every
// layout, and the epoch high-water mark. Passes when zero updates were
// lost, applied == sent, no spurious failover fired, and the epoch
// stayed monotone; constrained hosts record a skipped-but-passing
// report.
func runMasterHA(s env) bool {
	fmt.Println("== Master HA: metadata WAL replay across a real master kill -9 ==")
	cfg := bench.DefaultMasterHAConfig(s.Scale)
	rep, err := bench.RunMasterHABench(cfg)
	if err != nil {
		log.Printf("  masterha bench FAILED: %v", err)
		return false
	}
	if rep.Skipped != "" {
		fmt.Printf("  skipped: %s\n", rep.Skipped)
	} else {
		fmt.Printf("  %d server + %d executor processes, lease %.0fms, %.0fms dark window, %d pushes/executor over %d rows\n",
			rep.Servers, rep.Executors, rep.LeaseMillis, rep.OutageMillis, rep.Pushes, rep.Rows)
		fmt.Printf("  kill -9 master -> ready %.1fms, client-visible stall %.1fms, epoch %d -> %d, %d partitions replayed\n",
			rep.ReadyMillis, rep.StallMillis, rep.EpochBefore, rep.EpochAfter, rep.Parts)
		fmt.Printf("  audit: acked=%d mass=%.0f lost=%d failed=%d applied=%d sent=%d retried=%d promotions=%d\n",
			rep.Acked, rep.Mass, rep.Lost, rep.Failed, rep.Applied, rep.Sent, rep.Retried, rep.Promotions)
	}
	return writeReport(s.out, "masterha", rep) && rep.Pass
}

func runAblation(s env) bool {
	fmt.Println("== Ablations: the paper's design choices ==")
	ok := true
	mb := func(b int64) float64 { return float64(b) / (1 << 20) }
	if sparse, full, err := s.AblationDeltaPageRank(); err == nil {
		fmt.Printf("  Δ-threshold PageRank:    sparse %-8s %6.1fMB PS traffic | full %-8s %6.1fMB (%.1fx time, %.1fx traffic)\n",
			cellString(sparse), mb(sparse.CommBytes), cellString(full), mb(full.CommBytes),
			full.Seconds/sparse.Seconds, float64(full.CommBytes)/float64(sparse.CommBytes))
	} else {
		log.Printf("  delta ablation FAILED: %v", err)
		ok = false
	}
	if vp, ep, err := s.AblationPartitioning(); err == nil {
		fmt.Printf("  partitioning (PageRank): vertex %-8s %6.1fMB PS traffic | edge %-8s %6.1fMB (%.1fx traffic — the overhead Sec. IV-A removes)\n",
			cellString(vp), mb(vp.CommBytes), cellString(ep), mb(ep.CommBytes),
			float64(ep.CommBytes)/float64(vp.CommBytes))
	} else {
		log.Printf("  partitioning ablation FAILED: %v", err)
		ok = false
	}
	if pf, pull, err := s.AblationLinePSFunc(); err == nil {
		fmt.Printf("  LINE psFunc dot:         psFunc %-8s %6.1fMB PS traffic | pull %-8s %6.1fMB (%.1fx time, %.1fx traffic)\n",
			cellString(pf), mb(pf.CommBytes), cellString(pull), mb(pull.CommBytes),
			pull.Seconds/pf.Seconds, float64(pull.CommBytes)/float64(pf.CommBytes))
	} else {
		log.Printf("  LINE ablation FAILED: %v", err)
		ok = false
	}
	if bsp, asp, err := s.AblationSync(); err == nil {
		fmt.Printf("  BSP vs ASP (PageRank):   BSP %-8s %6.1fMB PS traffic | ASP %-8s %6.1fMB\n",
			cellString(bsp), mb(bsp.CommBytes), cellString(asp), mb(asp.CommBytes))
	} else {
		log.Printf("  sync ablation FAILED: %v", err)
		ok = false
	}
	if batched, single, err := s.AblationBatchPull(); err == nil {
		fmt.Printf("  batched PS pulls (CN):   batch=1024 %-8s | batch=1 %-8s (%.1fx time)\n",
			cellString(batched), cellString(single), single.Seconds/batched.Seconds)
	} else {
		log.Printf("  batch ablation FAILED: %v", err)
		ok = false
	}
	fmt.Println()
	return ok
}

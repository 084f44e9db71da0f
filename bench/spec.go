package main

// The benchmark's fixed vocabulary: workload names, end-to-end metrics with
// their regression bounds, per-layer metric names. BENCHMARK.json at the
// repo root must say the same (bench_test.go checks it).

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"pagerank-df", "LoadEdges from DFS text + PageRank on a 2M-edge R-MAT graph in-proc: dataflow parse/shuffle/cache and dense Vector pull/push do the work; embeddings, row codec and TCP do none"},
	{"line-psfunc", "LINE order 2 over the psFunc path (bsp, in-proc): server-side dot/update and CallFunc routing dominate, rows never cross the wire; the bypass workload for TCP and row-batch changes"},
	{"line-rows-tcp", "Same graph and algorithm with PullVectors over TCP (ssp k=1, prefetch, coalesce): Emb pull/push of row maps, row codec, dedup envelope, TCP framing and pool, row cache, SSP clock RPCs"},
	{"graphsage-nbr", "GraphSage mean aggregator on an SBM graph in-proc: neighbor-table and feature pulls, gnn/tensor forward-backward, Adam push of dense weights; only user of engine_nbr, gnn and tensor"},
	{"serve-mixed-tcp", "Closed loop of 2 clients on 3 TCP servers: a serve agent reads 128-id batches off snapshot replicas and hot head while a trainer pulls and pushes the same table; reads beside writes"},
}

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the gated metrics; every workload emits every one of them
// from an untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"job_s", "s", "lower", 0.15},
	{"items_per_s", "1/s", "higher", 0.15},
	{"wire_bytes_per_item", "B", "lower", 0.03},
	{"allocs_per_item", "1", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"mutations_per_s", "1/s", "higher", 0.15},
}

// rpcGroups are the method groups the tracing transport sorts calls into.
var rpcGroups = []string{"pull", "push", "func", "clock", "master", "serve"}

// serverGroups are the groups whose server-side handle time is reported.
var serverGroups = []string{"pull", "push", "func"}

// perLayer lists every metric a traced run emits, in print order. A metric
// that does not apply to a workload is emitted as 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	lo, hi := "lower", "higher"
	m := []metricSpec{
		{"gen.generate_s", "s", lo, 0},
		{"dfs.write_s", "s", lo, 0},
		{"dfs.write_bytes", "B", lo, 0},

		{"dataflow.load_s", "s", lo, 0},
		{"dataflow.shuffle_s", "s", lo, 0},
		{"dataflow.shuffle_bytes", "B", lo, 0},
		{"dataflow.tasks_run", "count", lo, 0},
		{"dataflow.tasks_retried", "count", lo, 0},
		{"dataflow.peak_exec_mb", "MB", lo, 0},

		{"core.pagerank.self_s", "s", lo, 0},
		{"core.pagerank.iter_ms", "ms", lo, 0},
		{"core.line.self_s", "s", lo, 0},
		{"core.graphsage.self_s", "s", lo, 0},
		{"core.graphsage.preprocess_s", "s", lo, 0},

		{"ps.client.pull_self_us_per_row", "us", lo, 0},
		{"ps.client.push_self_us_per_row", "us", lo, 0},
		{"ps.client.func_self_us_per_call", "us", lo, 0},
		{"ps.client.nbr_pull_self_us_per_id", "us", lo, 0},
		{"ps.client.cache_hits", "count", hi, 0},
		{"ps.client.cache_misses", "count", lo, 0},
		{"ps.client.cache_evictions", "count", lo, 0},
		{"ps.client.mut_sent", "count", lo, 0},
		{"ps.client.mut_retried", "count", lo, 0},
	}
	for _, g := range rpcGroups {
		m = append(m,
			metricSpec{"rpc." + g + ".calls", "count", lo, 0},
			metricSpec{"rpc." + g + ".bytes_out", "B", lo, 0},
			metricSpec{"rpc." + g + ".bytes_in", "B", lo, 0},
			metricSpec{"rpc." + g + ".call_s", "s", lo, 0},
			metricSpec{"rpc." + g + ".self_s", "s", lo, 0},
		)
	}
	m = append(m,
		metricSpec{"rpc.errors", "count", lo, 0},
		metricSpec{"rpc.max_inflight", "count", lo, 0},
	)
	for _, g := range serverGroups {
		m = append(m,
			metricSpec{"ps.server." + g + ".handle_s", "s", lo, 0},
			metricSpec{"ps.server." + g + ".handle_p99_us", "us", lo, 0},
		)
	}
	return append(m,
		metricSpec{"ps.server.mut_applied", "count", lo, 0},
		metricSpec{"ps.server.mut_replayed", "count", lo, 0},
		metricSpec{"ps.server.resident_mb", "MB", lo, 0},

		metricSpec{"ps.master.clock.calls", "count", lo, 0},
		metricSpec{"ps.master.clock.handle_s", "s", lo, 0},
		metricSpec{"ps.master.clock.wait_s", "s", lo, 0},
		metricSpec{"ps.master.meta.calls", "count", lo, 0},

		metricSpec{"ps.serve.publish_s", "s", lo, 0},
		metricSpec{"ps.serve.cache_rows", "count", hi, 0},
		metricSpec{"ps.serve.hot_rows", "count", hi, 0},
		metricSpec{"ps.serve.snap_rows", "count", hi, 0},
		metricSpec{"ps.serve.primary_rows", "count", lo, 0},
		metricSpec{"ps.serve.offload_share", "1", hi, 0},
		metricSpec{"ps.serve.hot_hit_ratio", "1", hi, 0},
		metricSpec{"ps.serve.lookup_p50_ms", "ms", lo, 0},
		metricSpec{"ps.serve.lookup_p99_ms", "ms", lo, 0},
		metricSpec{"ps.serve.train_pushes_per_s", "1/s", hi, 0},
		metricSpec{"ps.serve.train_control_pushes_per_s", "1/s", hi, 0},
		metricSpec{"ps.serve.train_ratio", "1", hi, 0},

		metricSpec{"gnn.run_ms_per_batch", "ms", lo, 0},
		metricSpec{"gnn.adam_us_per_step", "us", lo, 0},
		metricSpec{"tensor.matmul_ms", "ms", lo, 0},

		metricSpec{"go.gc_pause_total_ms", "ms", lo, 0},
		metricSpec{"go.gc_cycles", "count", lo, 0},
		metricSpec{"go.heap_peak_mb", "MB", lo, 0},
		metricSpec{"go.alloc_bytes_per_item", "B", lo, 0},

		metricSpec{"trace.overhead_ratio", "1", lo, 0},
		metricSpec{"trace.accounted_ratio", "1", hi, 0},
	)
}

package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"psgraph/internal/gen"
	"psgraph/internal/rpc"
)

// gsFixture preprocesses an SBM graph of n vertices (16-wide features, the
// benchmark's degrees) with every edge of vertex 0 removed, and returns the
// undirected adjacency the PS was given.
func gsFixture(tb testing.TB, cfg Config, n int64, seed int64) (*Context, *GraphSageData, map[int64][]int64) {
	tb.Helper()
	ctx, err := NewContext(cfg)
	if err != nil {
		tb.Fatalf("NewContext: %v", err)
	}
	tb.Cleanup(ctx.Close)
	data, adj := gsData(tb, ctx, n, seed)
	return ctx, data, adj
}

// gsData is gsFixture on a context the caller made.
func gsData(tb testing.TB, ctx *Context, n int64, seed int64) (*GraphSageData, map[int64][]int64) {
	tb.Helper()
	edges, labels := gen.SBM(gen.SBMConfig{Vertices: n, Classes: 3, IntraDeg: 6, InterDeg: 2.5, Seed: seed})
	edges = slices.DeleteFunc(edges, func(e gen.Edge) bool { return e.Src == 0 || e.Dst == 0 })
	adj := make(map[int64][]int64)
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		adj[e.Dst] = append(adj[e.Dst], e.Src)
	}
	for v, ns := range adj {
		slices.Sort(ns)
		adj[v] = slices.Compact(ns)
	}
	if err := gen.WriteEdgesText(ctx.FS, "/gs/edges.txt", edges, false); err != nil {
		tb.Fatal(err)
	}
	if err := gen.WriteFeaturesText(ctx.FS, "/gs/feats.txt", labels, gen.Features(labels, 3, 16, 1.0, seed+1)); err != nil {
		tb.Fatal(err)
	}
	data, err := GraphSagePreprocess(ctx, "/gs/edges.txt", "/gs/feats.txt", 0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { data.Close(ctx) })
	return data, adj
}

// TestGraphSageIsSeedDeterministic: one worker, one seed, two runs — the
// same losses and accuracies bit for bit. Hop-1 vertices used to reach the
// hop-2 sampler in Go map-iteration order, so no two runs drew the same
// neighbourhoods. (With two or more workers the PS still sums their
// gradient pushes in arrival order; that is the paper's model, not pinned
// here.)
func TestGraphSageIsSeedDeterministic(t *testing.T) {
	ctx, data, _ := gsFixture(t, Config{NumExecutors: 1, NumServers: 2}, 800, 5)
	run := func() *GraphSageResult {
		res, err := GraphSage(ctx, data, GraphSageConfig{
			Classes: 3, Epochs: 3, BatchSize: 128, LR: 0.02, Seed: 9, Parts: 1, Sync: "bsp",
		})
		if err != nil {
			t.Fatal(err)
		}
		cleanupModels(ctx, res.W1Name, res.W2Name)
		return res
	}
	a, b := run(), run()
	if !slices.Equal(a.Losses, b.Losses) {
		t.Errorf("losses differ between two runs of seed 9:\n%v\n%v", a.Losses, b.Losses)
	}
	if a.TrainAccuracy != b.TrainAccuracy || a.TestAccuracy != b.TestAccuracy {
		t.Errorf("accuracies differ: train %v vs %v, test %v vs %v", a.TrainAccuracy, b.TrainAccuracy, a.TestAccuracy, b.TestAccuracy)
	}
	if a.TestAccuracy < 0.8 {
		t.Errorf("test accuracy %.3f: the deterministic run no longer learns", a.TestAccuracy)
	}
}

// TestBatchBuilderInvariants builds batches on a random graph — one with a
// repeated target and the neighbourless vertex 0 — in windows of 1, 2 and
// 3 batches, and checks the boundary form against the true adjacency and
// features: X is the window block, Self1 and Nbrs1 are its rows, Self2 and
// Nbrs2 are layer-1 indices. The block holds each vertex once, with its
// features; a window's first build begins with exactly the rows the window
// before it read, in their old order, and its builds only add rows after
// them; and the block holds those rows and the ones this window read,
// nothing else.
func TestBatchBuilderInvariants(t *testing.T) {
	_, data, adj := gsFixture(t, Config{NumExecutors: 2, NumServers: 2}, 600, 3)
	feats, err := data.Feats.Pull(data.Vertices)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 3} {
		cfg := GraphSageConfig{FanOut1: 4, FanOut2: 3, Aggregator: "mean", WindowBatches: w}
		rng := rand.New(rand.NewSource(1))
		bb := &batchBuilder{data: data, cfg: cfg, rng: rng}
		var before []int64          // the block's vertices after the window's last build
		var carried []int64         // the vertices the window before read, in block order
		touched := map[int64]bool{} // vertices the window's batches read
		for round := 0; round < 20; round++ {
			batch := make([]int64, 1+rng.Intn(40))
			for i := range batch {
				batch[i] = rng.Int63n(600)
			}
			if round == 0 {
				batch = []int64{7, 0, 7, 12, 0}
			}
			withLabels := round%2 == 0
			jb, err := bb.build(batch, withLabels)
			if err != nil {
				t.Fatal(err)
			}
			if round%w == 0 {
				carried = nil
				for _, v := range before {
					if touched[v] {
						carried = append(carried, v)
					}
				}
				before, touched = carried, map[int64]bool{}
			}
			block, order := bb.win.order, bb.order
			if jb.NumNodes != len(block) || len(jb.X) != jb.NumNodes*jb.Dim || jb.Dim != 16 {
				t.Fatalf("w=%d: X holds %d values for %d nodes of width %d, %d block rows", w, len(jb.X), jb.NumNodes, jb.Dim, len(block))
			}
			// The block keeps the rows it carried and the window's earlier
			// rows and adds each vertex once: a build pulls only what is new
			// to the block.
			if len(block) < len(before) || !slices.Equal(block[:len(before)], before) {
				t.Fatalf("w=%d round %d: the block's first %d rows are not %v", w, round, len(before), before)
			}
			seen := make(map[int64]bool)
			for r, v := range block {
				if seen[v] {
					t.Fatalf("w=%d round %d: vertex %d twice in the block", w, round, v)
				}
				seen[v] = true
				if !slices.Equal(jb.X[r*16:(r+1)*16], feats[v]) {
					t.Fatalf("w=%d: block row %d does not hold the features of vertex %d", w, r, v)
				}
			}
			before = slices.Clone(block)
			// Batch vertices first, in first-occurrence order.
			var distinct []int64
			for _, v := range batch {
				if !slices.Contains(distinct, v) {
					distinct = append(distinct, v)
				}
			}
			nBatch, nL1 := len(distinct), len(jb.Self1)
			if len(order) != nL1 || !slices.Equal(order[:nBatch], distinct) {
				t.Fatalf("w=%d: layer-1 vertices %v, want the batch %v first", w, order, distinct)
			}
			if len(jb.Nbrs1) != nL1 || len(jb.Self2) != len(batch) || len(jb.Nbrs2) != len(batch) {
				t.Fatalf("w=%d shapes: %d/%d layer-1, %d/%d outputs for %d targets", w, nL1, len(jb.Nbrs1), len(jb.Self2), len(jb.Nbrs2), len(batch))
			}
			// segment checks one draw whose entries index vertexOf: at most
			// fan of v's true neighbours, all of them when v has no more,
			// none twice.
			segment := func(what string, v int64, seg []int32, fan int, vertexOf []int64) {
				t.Helper()
				if want := min(fan, len(adj[v])); len(seg) != want {
					t.Fatalf("w=%d: %s of vertex %d (degree %d) has %d samples, want %d", w, what, v, len(adj[v]), len(seg), want)
				}
				drawn := make(map[int32]bool)
				for _, r := range seg {
					if int(r) >= len(vertexOf) {
						t.Fatalf("w=%d: %s of vertex %d indexes %d of %d", w, what, v, r, len(vertexOf))
					}
					if drawn[r] || !slices.Contains(adj[v], vertexOf[r]) {
						t.Fatalf("w=%d: %s of vertex %d: %d (vertex %d) repeated or not a neighbour", w, what, v, r, vertexOf[r])
					}
					drawn[r] = true
				}
			}
			inL1 := make([]bool, nL1)
			for i, v := range batch {
				if int(jb.Self2[i]) >= nL1 || order[jb.Self2[i]] != v {
					t.Fatalf("w=%d: Self2[%d] = %d, want the layer-1 index of vertex %d", w, i, jb.Self2[i], v)
				}
				segment("Nbrs2", v, jb.Nbrs2[i], cfg.FanOut1, order)
				for _, r := range jb.Nbrs2[i] {
					inL1[r] = true
				}
			}
			for r := 0; r < nL1; r++ {
				if block[jb.Self1[r]] != order[r] {
					t.Fatalf("w=%d: Self1[%d] = block row %d (vertex %d), want vertex %d", w, r, jb.Self1[r], block[jb.Self1[r]], order[r])
				}
				fan := cfg.FanOut1
				if r >= nBatch {
					fan = cfg.FanOut2
					if !inL1[r] {
						t.Fatalf("w=%d: layer-1 vertex %d is neither a target nor a hop-1 sample", w, order[r])
					}
				}
				segment("Nbrs1", order[r], jb.Nbrs1[r], fan, block)
				touched[order[r]] = true
				for _, x := range jb.Nbrs1[r] {
					touched[block[x]] = true
				}
			}
			// The block holds what the window before read and what this
			// window's batches read, and nothing else.
			held := len(carried)
			for v := range touched {
				if !slices.Contains(carried, v) {
					held++
				}
			}
			if held != len(block) {
				t.Fatalf("w=%d round %d: %d rows carried and read, %d block rows", w, round, held, len(block))
			}
			if !withLabels && jb.Labels != nil {
				t.Fatal("labels on an inference batch")
			}
			if withLabels {
				for i, v := range batch {
					if jb.Labels[i] != data.Labels[v] {
						t.Fatalf("label of target %d (vertex %d) = %d, want %d", i, v, jb.Labels[i], data.Labels[v])
					}
				}
			}
		}
	}
}

// TestBatchBuilderResetMatchesFresh: one builder reset for task after task
// — windows of 2 and 3, tasks of 1 to 5 batches — builds what a builder
// made for each task builds. A reset that kept the build count, or marks a
// new build's number can match, hands a task another task's indices.
func TestBatchBuilderResetMatchesFresh(t *testing.T) {
	_, data, _ := gsFixture(t, Config{NumExecutors: 2, NumServers: 2}, 600, 3)
	for _, w := range []int{2, 3} {
		cfg := GraphSageConfig{FanOut1: 4, FanOut2: 3, Aggregator: "mean", WindowBatches: w}
		kept := batchBuilder{rng: rand.New(rand.NewSource(0))}
		draw := rand.New(rand.NewSource(int64(w)))
		for task := 0; task < 6; task++ {
			seed := int64(100 + task)
			fresh := &batchBuilder{data: data, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
			reused := kept.reset(data, cfg, seed)
			for n := 1 + task%5; n > 0; n-- {
				batch := make([]int64, 1+draw.Intn(40))
				for i := range batch {
					batch[i] = draw.Int63n(600)
				}
				want, err := fresh.build(batch, task%2 == 0)
				if err != nil {
					t.Fatal(err)
				}
				got, err := reused.build(batch, task%2 == 0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("w=%d task %d: the reset builder's batch differs from a fresh builder's", w, task)
				}
			}
		}
	}
}

// featurePulls is an rpc.Transport that keeps, for every EmbPull of one
// model, the ids its reply carries and the NbrPull calls made before it: the
// feature rows a GraphSage run pulls, in order, and the batch of each (a
// batch makes two neighbour pulls before its feature pull).
type featurePulls struct {
	rpc.Transport
	model []byte
	mu    sync.Mutex
	nbrs  int
	ids   [][]int64
	after []int // NbrPull calls before each pull
}

func (f *featurePulls) Call(addr, method string, body []byte) ([]byte, error) {
	resp, err := f.Transport.Call(addr, method, body)
	if method == "NbrPull" {
		f.mu.Lock()
		f.nbrs++
		f.mu.Unlock()
	}
	if method != "EmbPull" || err != nil || f.model == nil || !bytes.Contains(body, f.model) {
		return resp, err
	}
	// The reply is a row batch behind its two tag bytes: the id count + 1,
	// then the ids as zigzag deltas.
	n, k := binary.Uvarint(resp[2:])
	off, ids, prev := 2+k, make([]int64, n-1), int64(0)
	for i := range ids {
		d, k := binary.Varint(resp[off:])
		off, prev = off+k, prev+d
		ids[i] = prev
	}
	f.mu.Lock()
	f.ids, f.after = append(f.ids, ids), append(f.after, f.nbrs)
	f.mu.Unlock()
	return resp, err
}

// TestGraphSageFeatureLedger: one worker (Parts 1) runs 4 tasks — 2 epochs
// of 4 batches, then evaluations of 4 and 2 — on one server. Each batch makes
// two neighbour pulls and at most one feature pull, which asks only for the
// vertices its block does not hold: a window starts with the rows the
// window before it read, so no vertex is pulled twice in two consecutive
// windows of a task, and a batch whose rows are all held pulls nothing.
// Windows of 1 batch pull 3,228 rows in 14 pulls (11,126 while every
// window started empty, what every batch pulled before the window block
// existed), windows of 2 pull 3,199 in 11 (5,596).
func TestGraphSageFeatureLedger(t *testing.T) {
	const batches = 2*4 + 4 + 2
	tasks := []int{0, 4, 8, 12, batches} // each task's first batch
	for _, c := range []struct {
		window, pulls, rows int
	}{{1, 14, 3_228}, {2, 11, 3_199}} {
		feats := &featurePulls{Transport: rpc.NewInProc()}
		ctx, tr := countedContext(t, 1, feats)
		data, _ := gsData(t, ctx, 800, 5)
		addr := ctx.PS.ServerAddrs()[0]
		feats.model = []byte(data.FeatsName)
		tr.take()
		feats.nbrs = 0
		res, err := GraphSage(ctx, data, GraphSageConfig{
			Classes: 3, Epochs: 2, BatchSize: 140, LR: 0.02, Seed: 9, Parts: 1, Sync: "bsp", WindowBatches: c.window,
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(feats.ids); n != c.pulls {
			t.Errorf("window %d: %d feature pulls, want %d", c.window, n, c.pulls)
		}
		if n := tr.take()[[2]string{"NbrPull", addr}]; n != 2*batches {
			t.Errorf("window %d: %d NbrPull calls, want two per batch, %d", c.window, n, 2*batches)
		}
		rows, last := 0, map[int64]int{} // the window that last pulled a vertex
		for i, ids := range feats.ids {
			b := feats.after[i]/2 - 1
			task, _ := slices.BinarySearch(tasks, b+1)
			first := tasks[task-1]
			w := (task-1)*batches + (b-first)/c.window // windows numbered apart across tasks
			for _, v := range ids {
				if at, ok := last[v]; ok && w-at <= 1 {
					t.Fatalf("window %d: vertex %d pulled by batch %d and in the window before or the same", c.window, v, b)
				}
				last[v] = w
			}
			rows += len(ids)
		}
		if rows != c.rows {
			t.Errorf("window %d: %d feature rows pulled, want %d", c.window, rows, c.rows)
		}
		cleanupModels(ctx, res.W1Name, res.W2Name)
	}
}

// gsStep returns one build + run of a full-size training batch (256
// targets, fan-outs 10 and 5) on a 12k-vertex graph, the benchmark's shape.
func gsStep(tb testing.TB) func() {
	ctx, data, _ := gsFixture(tb, Config{NumExecutors: 2, NumServers: 2}, 12_000, 1)
	cfg := GraphSageConfig{Classes: 3}
	if err := cfg.setDefaults(); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	model, err := newGSModel(ctx, data, cfg, rng)
	if err != nil {
		tb.Fatal(err)
	}
	weights, err := model.pull()
	if err != nil {
		tb.Fatal(err)
	}
	bb := &batchBuilder{data: data, cfg: cfg, rng: rng}
	perm := rng.Perm(len(data.Vertices))
	next := 0
	return func() {
		if next+cfg.BatchSize > len(perm) {
			next = 0
		}
		batch := make([]int64, cfg.BatchSize)
		for i := range batch {
			batch[i] = data.Vertices[perm[next+i]]
		}
		next += cfg.BatchSize
		jb, err := bb.build(batch, true)
		if err != nil {
			tb.Fatal(err)
		}
		if out := model.run(jb, weights); len(out.GradW1) == 0 {
			tb.Fatal("training step returned no gradient")
		}
	}
}

// TestGraphSageStepAllocationBudget: building and running one 256-target
// batch allocates a few hundred objects — the RPC plumbing of two neighbour
// pulls and a feature pull, a dozen tensors — not the 13,650 of a map per
// table, a slice per vertex and an index copy per tensor op. 239 (243 under
// -race) since the feature pull lands in the builder's own block, 267
// before; the budget is that plus 10%.
func TestGraphSageStepAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are measured without -short")
	}
	step := gsStep(t)
	step() // size the builder's buffers
	if n := testing.AllocsPerRun(10, step); n > 265 {
		t.Errorf("one GraphSage step of 256 targets makes %v allocations, budget 265", n)
	}
}

func BenchmarkGraphSageStep(b *testing.B) {
	step := gsStep(b)
	step()
	b.ReportAllocs()
	for b.Loop() {
		step()
	}
}

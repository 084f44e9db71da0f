package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"psgraph/internal/ps"
	"psgraph/internal/rpc"
)

// lineRig builds a PullVectors worker over two fresh 32-wide column models
// under Prefetch and Coalesce, and one clock window of the given number of
// 512-edge batches, drawn as the trainer draws them.
func lineRig(t *testing.T, ctx *Context, batches int) (*lineRows, *lineBatch) {
	t.Helper()
	edges := make([]Edge, 512*batches)
	rng := rand.New(rand.NewSource(9))
	for i := range edges {
		edges[i] = Edge{Src: int64(i / 4), Dst: rng.Int63n(2000)}
	}
	sampler, err := newDegreeSampler(edgesRDD(ctx, edges, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	w := &lineRows{read: perWindow, write: perWindow, lr: 0.025}
	for k, name := range []string{"rig.emb", "rig.ctx"} {
		spec := ps.EmbeddingSpec{Name: ctx.ModelName(name), Dim: 32, ByColumn: true, InitScale: 0.01}
		if w.side[k].e, err = ctx.Agent.CreateEmbedding(spec); err != nil {
			t.Fatal(err)
		}
	}
	b := new(lineBatch)
	for j := 0; j < batches; j++ {
		b.addBatch(edges[j*512:(j+1)*512], 5, sampler, rng)
	}
	return w, b
}

// rowCounter is an rpc.Transport that counts the calls each server
// receives by method, and can run a hook after the n-th row pull.
type rowCounter struct {
	rpc.Transport
	mu        sync.Mutex
	calls     map[[2]string]int // (method, addr) → calls
	pulls     int
	hookAfter int // run hook after this many pulls; see after
	hook      func()
}

func (c *rowCounter) Call(addr, method string, body []byte) ([]byte, error) {
	resp, err := c.Transport.Call(addr, method, body)
	c.mu.Lock()
	c.calls[[2]string{method, addr}]++
	var hook func()
	if method == "EmbPull" {
		if c.pulls++; c.pulls == c.hookAfter {
			hook, c.hook = c.hook, nil
		}
	}
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	return resp, err
}

// after arms hook to run once, after the n-th pull from now.
func (c *rowCounter) after(n int, hook func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pulls, c.hookAfter, c.hook = 0, n, hook
}

// take returns the counts since the last take and resets them.
func (c *rowCounter) take() map[[2]string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	got := c.calls
	c.calls, c.pulls = map[[2]string]int{}, 0
	return got
}

func countedContext(t *testing.T, servers int, inner rpc.Transport) (*Context, *rowCounter) {
	t.Helper()
	tr := &rowCounter{Transport: inner, calls: map[[2]string]int{}}
	ctx, err := NewContext(Config{NumExecutors: 2, NumServers: servers, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctx.Close)
	return ctx, tr
}

// TestLineWindowLedger: under SSP with Prefetch and Coalesce, a PullVectors
// run makes exactly one pull and one push per model per server per clock
// window; with both knobs off, exactly one of each per batch. Two workers of
// 250 edges, batches of 50, windows of 2 batches, 2 epochs: 3 windows (the
// last of one batch) and 5 batches per worker per epoch.
func TestLineWindowLedger(t *testing.T) {
	const windows, batches = 2 * 2 * 3, 2 * 2 * 5
	for _, c := range []struct {
		knobs bool
		want  int // calls per method per server
	}{{true, 2 * windows}, {false, 2 * batches}} {
		ctx, tr := countedContext(t, 2, rpc.NewInProc())
		tr.take()
		if _, err := Line(ctx, edgesRDD(ctx, ringEdges(500), 2), LineConfig{
			Dim: 8, Epochs: 2, BatchSize: 50, NegSamples: 2, Seed: 3, PullVectors: true,
			Sync: "ssp", Staleness: 1, WindowBatches: 2, Prefetch: c.knobs, Coalesce: c.knobs,
		}); err != nil {
			t.Fatal(err)
		}
		got := tr.take()
		for _, addr := range ctx.PS.ServerAddrs() {
			for _, m := range []string{"EmbPull", "EmbPush"} {
				if n := got[[2]string{m, addr}]; n != c.want {
					t.Errorf("prefetch+coalesce=%v: %d %s calls to %s, want %d", c.knobs, n, m, addr, c.want)
				}
			}
		}
		applied, _, err := ctx.PS.MutationTotals()
		if sent, _ := ctx.Agent.MutationStats(); err != nil || applied != sent {
			t.Errorf("prefetch+coalesce=%v: applied %d mutations for %d sent (%v)", c.knobs, applied, sent, err)
		}
	}
}

// TestLineWindowReadsOneVersion: a row another client pushes after a
// window's pull is not read inside that window, and is read in the next.
// Every row starts at zero, so an update is non-zero only where a pair read
// the pushed row. Without Prefetch the window's second batch pulls again and
// does read it, which shows the push landed mid-window.
func TestLineWindowReadsOneVersion(t *testing.T) {
	const x = 5 // the context row the other client pushes
	for _, read := range []int{perWindow, perBatch} {
		prefetch := read == perWindow
		ctx, tr := countedContext(t, 1, rpc.NewInProc())
		w := &lineRows{read: read, write: perWindow, lr: 0.5}
		var names [2]string
		for k, name := range []string{"ver.emb", "ver.ctx"} {
			names[k] = ctx.ModelName(name)
			var err error
			if w.side[k].e, err = ctx.Agent.CreateEmbedding(ps.EmbeddingSpec{Name: names[k], Dim: 2, ByColumn: true}); err != nil {
				t.Fatal(err)
			}
		}
		other, err := ctx.PS.NewClient().Embedding(names[1])
		if err != nil {
			t.Fatal(err)
		}
		// Two batches of one pair each, both reading row x.
		b := &lineBatch{us: []int64{1, 2}, vs: []int64{x, x}, labels: []float64{1, 1}, ends: []int{1, 2}}
		tr.take()
		// After the first two pulls: the window's, or its first batch's.
		tr.after(2, func() {
			if err := other.PushAdd(map[int64][]float64{x: {1, 1}}); err != nil {
				t.Error(err)
			}
		})
		// rows reports whether u rows 1 and 2 moved.
		rows := func() [2]bool {
			got, err := w.side[0].e.Pull([]int64{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			return [2]bool{got[1][0] != 0, got[2][0] != 0}
		}
		if err := w.window(b); err != nil {
			t.Fatal(err)
		}
		if got, want := rows(), [2]bool{false, !prefetch}; got != want {
			t.Errorf("prefetch=%v: after the window of the push, u rows moved %v, want %v", prefetch, got, want)
		}
		if err := w.window(b); err != nil {
			t.Fatal(err)
		}
		if got := rows(); got != [2]bool{true, true} {
			t.Errorf("prefetch=%v: after the next window, u rows moved %v, want both", prefetch, got)
		}
	}
}

// dropPushReply drops the reply of the first EmbPush each server receives:
// the push is applied, its sender retries it.
type dropPushReply struct {
	*rpc.Faulty
	mu      sync.Mutex
	dropped map[string]bool
}

func (d *dropPushReply) Call(addr, method string, body []byte) ([]byte, error) {
	if method == "EmbPush" {
		d.mu.Lock()
		if !d.dropped[addr] {
			d.dropped[addr] = true
			d.DropResponses(addr, 1)
		}
		d.mu.Unlock()
	}
	return d.Faulty.Call(addr, method, body)
}

// TestLineWindowPushExactlyOnceUnderDrops: a window's summed push is one
// ordinary enveloped push per partition, so a dropped reply and its retry
// replay from the dedup window: applied == sent, and every stored row is
// exactly its pulled value plus the window's update, not plus twice it.
func TestLineWindowPushExactlyOnceUnderDrops(t *testing.T) {
	f := &dropPushReply{Faulty: rpc.NewFaulty(rpc.NewInProc(), 1), dropped: map[string]bool{}}
	ctx, err := NewContext(Config{NumExecutors: 1, NumServers: 2, Transport: f})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctx.Close)
	w, b := lineRig(t, ctx, 2)
	applied, replayed, sent := mutationDelta(t, ctx, func() {
		if err := w.window(b); err != nil {
			t.Fatal(err)
		}
	})
	if applied != sent || replayed < 2 || f.Stats().DroppedResponses != 2 {
		t.Fatalf("window: %d applied, %d sent, %d replayed, %d replies dropped; want applied == sent and 2 replays",
			applied, sent, replayed, f.Stats().DroppedResponses)
	}
	for k, s := range w.side {
		ids := s.ids[perWindow].order
		got, _, err := s.e.PullBatch(ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got.Data {
			if want := s.rows[i] + s.upd[i]; math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("side %d: value %d of id %d is %v, want pulled %v + update %v", k, i%32, ids[i/32], v, s.rows[i], s.upd[i])
			}
		}
	}
}

// TestLineWindowAllocationBudget: a worker makes its blocks — id tables,
// positions, rows, updates — once, and a window past the first reuses them:
// what it allocates is its 2 pulls and 2 pushes, each to two column
// partitions: 129 for a window of 4 batches measured (137 under -race), the
// budget that plus 10% — a block per batch, or per row, has no room in it.
// lineGrads allocates nothing.
func TestLineWindowAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are measured without -short")
	}
	ctx := newTestContext(t)
	w, b := lineRig(t, ctx, 4)
	window := func() {
		if err := w.window(b); err != nil {
			t.Fatal(err)
		}
	}
	window() // sizes the blocks
	blocks := func() (at [2][4]any) {
		for k := range w.side {
			s := &w.side[k]
			at[k] = [4]any{&s.pos[perWindow][0], &s.ids[perWindow].rows[0], &s.rows[0], &s.upd[0]}
		}
		return at
	}
	first := blocks()
	if n := testing.AllocsPerRun(20, window); n > 142 {
		t.Errorf("one window of %d pairs makes %v allocations, budget 142", len(b.us), n)
	}
	if blocks() != first {
		t.Errorf("a window past the first made new blocks")
	}
	var cols [2]lineCol
	for k, s := range w.side {
		cols[k] = lineCol{rpos: s.pos[perWindow], wpos: s.pos[perWindow], rows: s.rows, upd: s.upd}
	}
	if n := testing.AllocsPerRun(20, func() { lineGrads(b.labels, cols[0], cols[1], 32, 0.025) }); n > 0 {
		t.Errorf("lineGrads makes %v allocations", n)
	}
}

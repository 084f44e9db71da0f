package ps

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"psgraph/internal/dfs"
)

// almostEq compares with a tolerance tight enough that a wrong optimizer
// step count or a misplaced bias correction cannot slip through.
func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// TestOptimizerGoldenEmbeddingSingleStep checks one gradient push per
// optimizer against the closed-form update, so the server-side optimizer
// math is pinned independently of the convergence tests.
func TestOptimizerGoldenEmbeddingSingleStep(t *testing.T) {
	const lr, eps = 0.1, 1e-8
	g := []float64{0.5, -2}
	cases := []struct {
		name string
		opt  Optimizer
		want func(g float64) float64 // update applied to a zero row
	}{
		{"SGD", SGD(lr), func(g float64) float64 { return -lr * g }},
		{"AdaGrad", AdaGrad(lr), func(g float64) float64 { return -lr * g / (math.Sqrt(g*g) + eps) }},
		// Adam at t=1: mhat = g, vhat = g², so the bias corrections cancel.
		{"Adam", Adam(lr), func(g float64) float64 { return -lr * g / (math.Sqrt(g*g) + eps) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, cl := newTestCluster(t, 1)
			e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "g" + tc.name, Dim: 2, Opt: tc.opt})
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			if err := e.PushGrad(map[int64][]float64{7: g}); err != nil {
				t.Fatalf("grad: %v", err)
			}
			got, err := e.Pull([]int64{7})
			if err != nil {
				t.Fatalf("pull: %v", err)
			}
			for i := range g {
				if want := tc.want(g[i]); !almostEq(got[7][i], want) {
					t.Fatalf("%s row[%d] = %v, want %v", tc.name, i, got[7][i], want)
				}
			}
		})
	}
}

// TestOptimizerGoldenMatrixSecondStep drives two Adam steps on a matrix
// and checks the second against a closed-form computation, which fails if
// the step counter is off by one or not persisted between pushes.
func TestOptimizerGoldenMatrixSecondStep(t *testing.T) {
	const lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
	_, cl := newTestCluster(t, 1)
	m, err := cl.CreateMatrix(MatrixSpec{Name: "adam2", Rows: 1, Cols: 1, Opt: Adam(lr)})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	g1, g2 := 0.5, -0.25
	if err := m.PushGrad([]float64{g1}); err != nil {
		t.Fatalf("grad1: %v", err)
	}
	if err := m.PushGrad([]float64{g2}); err != nil {
		t.Fatalf("grad2: %v", err)
	}
	// Replay the Adam recurrence for t = 1, 2.
	var w, mom, vel float64
	for step, g := range []float64{g1, g2} {
		tf := float64(step + 1)
		mom = b1*mom + (1-b1)*g
		vel = b2*vel + (1-b2)*g*g
		w -= lr * (mom / (1 - math.Pow(b1, tf))) / (math.Sqrt(vel/(1-math.Pow(b2, tf))) + eps)
	}
	got, err := m.PullAll()
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	if !almostEq(got[0], w) {
		t.Fatalf("after 2 Adam steps w = %v, want %v", got[0], w)
	}
}

// TestMatrixStepsMatchAFlatReference: a matrix is a column embedding over
// ids [0, Rows), and five optimizer steps on it give, bit for bit, what a
// flat row-major slab stepped by Optimizer.apply with one step counter
// gives — with many rows, with one cell on more servers than columns, and
// with partitions of no columns. Between the second and the third step
// every partition moves to another server, and the steps after the move
// resume from the moved moments and step count exactly.
func TestMatrixStepsMatchAFlatReference(t *testing.T) {
	opts := []struct {
		name string
		opt  Optimizer
	}{{"SGD", SGD(0.1)}, {"AdaGrad", AdaGrad(0.05)}, {"Adam", Adam(0.01)}}
	for _, shape := range []struct{ servers, rows, cols int }{{2, 32, 3}, {4, 1, 1}, {4, 2, 3}} {
		for _, o := range opts {
			t.Run(fmt.Sprintf("%s/%dx%d-on-%d", o.name, shape.rows, shape.cols, shape.servers), func(t *testing.T) {
				c, cl := newTestCluster(t, shape.servers)
				m, err := cl.CreateMatrix(MatrixSpec{Name: "w", Rows: int64(shape.rows), Cols: shape.cols, Opt: o.opt})
				if err != nil {
					t.Fatal(err)
				}
				n := shape.rows * shape.cols
				w := make([]float64, n)
				for i := range w {
					w[i] = float64(i%7) - 2.5
				}
				if err := m.PushSet(w); err != nil {
					t.Fatal(err)
				}
				var moments [2][]float64
				moment := func(k int) []float64 {
					if moments[k] == nil {
						moments[k] = make([]float64, n)
					}
					return moments[k]
				}
				rng := rand.New(rand.NewSource(int64(n)))
				for step := int64(1); step <= 5; step++ {
					if step == 3 {
						before, _ := cl.GetModel("w")
						for _, p := range before.Parts {
							if err := cl.MovePartition("w", p.Index, ""); err != nil {
								t.Fatalf("move %d: %v", p.Index, err)
							}
						}
						if after, _ := c.NewClient().GetModel("w"); after.Parts[0].Server == before.Parts[0].Server {
							t.Fatalf("partition 0 did not move off %s", before.Parts[0].Server)
						}
					}
					g := make([]float64, n)
					for i := range g {
						g[i] = rng.NormFloat64()
					}
					if err := m.PushGrad(g); err != nil {
						t.Fatal(err)
					}
					o.opt.apply(w, g, step, moment)
					got, err := m.PullAll()
					if err != nil {
						t.Fatal(err)
					}
					for i := range w {
						if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
							t.Fatalf("step %d, value %d: %v, the flat reference has %v", step, i, got[i], w[i])
						}
					}
				}
			})
		}
	}
}

// TestVecPushAtomicity: a push with any out-of-range index must reject the
// whole request without applying the in-range elements.
func TestVecPushAtomicity(t *testing.T) {
	meta := ModelMeta{Name: "v", Kind: DenseVector, Size: 10,
		Parts: []Partition{{Lo: 0, Hi: 10}}}
	e, err := newEngine(meta, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ve := e.(*vecEngine)
	if err := pushVec(ve, vecPushReq{Indices: []int64{2, 99}, Values: []float64{5, 5}}); err == nil {
		t.Fatal("push with out-of-range index succeeded")
	}
	if err := pushVec(ve, vecPushReq{Indices: []int64{2}, Values: []float64{1, 2}}); err == nil {
		t.Fatal("push with values/indices length mismatch succeeded")
	}
	resp, err := ve.pull(pullReq{Keys: []int64{2}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Values[0] != 0 {
		t.Fatalf("rejected push partially applied: v[2] = %v", resp.Values[0])
	}
}

// TestEmbPushAtomicity: a gradient batch containing one wrong-width row
// must reject the whole request — no row mutates and, critically, the
// Adam step counter does not advance (a failed push that bumped it would
// silently skew every later bias correction).
func TestEmbPushAtomicity(t *testing.T) {
	const lr, eps = 0.1, 1e-8
	_, cl := newTestCluster(t, 1)
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "atomic", Dim: 2, Opt: Adam(lr)})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	bad := map[int64][]float64{1: {1, 1}, 2: {1}} // row 2 has the wrong width
	if err := e.PushGrad(bad); err == nil {
		t.Fatal("wrong-width gradient push succeeded")
	}
	got, err := e.Pull([]int64{1})
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	if got[1][0] != 0 || got[1][1] != 0 {
		t.Fatalf("rejected push mutated row 1: %v", got[1])
	}
	// A valid first step must now behave as t=1 (bias corrections cancel);
	// if the failed push advanced the counter this comes out as t=2.
	g := []float64{0.5, -2}
	if err := e.PushGrad(map[int64][]float64{1: g}); err != nil {
		t.Fatalf("grad: %v", err)
	}
	got, err = e.Pull([]int64{1})
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	for i := range g {
		want := -lr * g[i] / (math.Sqrt(g[i]*g[i]) + eps)
		if !almostEq(got[1][i], want) {
			t.Fatalf("first valid Adam step row[%d] = %v, want %v (step counter advanced by failed push?)", i, got[1][i], want)
		}
	}
}

// TestInitRowGoldenAcrossLayouts pins the lazy-init values: every layout
// (shard count, row vs column partitioning, column range) must produce
// the same deterministic vector for a given id, matching the documented
// recurrence — SplitMix64 over counter id*2654435761 + 12345, element j
// at stream position j+1, mapped to [-scale, scale). The reference below
// is written out independently of the engine's implementation.
func TestInitRowGoldenAcrossLayouts(t *testing.T) {
	const dim = 8
	const scale = 0.5
	const id = 42
	mix := func(x uint64) uint64 {
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	ref := make([]float64, dim)
	seed := uint64(int64(id)*2654435761 + 12345)
	for i := range ref {
		h := mix(seed + uint64(i+1)*0x9e3779b97f4a7c15)
		ref[i] = (float64(h>>11)/(1<<53)*2 - 1) * scale
	}
	meta := ModelMeta{Name: "e", Kind: Embedding, Dim: dim, InitScale: scale,
		Parts: []Partition{{}}}

	for _, shards := range []int{1, 3, 32} {
		SetEmbShards(shards)
		e, err := newEngine(meta, 0, 0)
		SetEmbShards(0)
		if err != nil {
			t.Fatal(err)
		}
		row := e.(*embEngine).row(id)
		for i := range ref {
			if row[i] != ref[i] {
				t.Fatalf("shards=%d: row[%d] = %v, want %v", shards, i, row[i], ref[i])
			}
		}
	}
	// Column partition [3, 6) must be the matching slice of the full row.
	cmeta := meta
	cmeta.Kind = ColumnEmbedding
	cmeta.Parts = []Partition{{Col0: 3, Col1: 6}}
	ce, err := newEngine(cmeta, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	crow := ce.(*embEngine).row(id)
	if len(crow) != 3 {
		t.Fatalf("column row width = %d, want 3", len(crow))
	}
	for i, v := range crow {
		if v != ref[3+i] {
			t.Fatalf("column row[%d] = %v, want %v", i, v, ref[3+i])
		}
	}
	// Repeated materialization through the reused rand source must not
	// drift: a second engine sees identical values for several ids.
	a, _ := newEngine(meta, 0, 0)
	b, _ := newEngine(meta, 0, 0)
	ae, be := a.(*embEngine), b.(*embEngine)
	for _, id := range []int64{0, 1, 7, 41, 42, 1 << 40} {
		ra, rb := ae.row(id), be.row(id)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("id %d dim %d: %v vs %v", id, i, ra[i], rb[i])
			}
		}
	}
}

// TestEmbShardedCheckpointRoundTrip: checkpoints are shard-count
// independent — state written under one shard count restores under
// another (here the degenerate single shard) bit-for-bit.
func TestEmbShardedCheckpointRoundTrip(t *testing.T) {
	SetEmbShards(3)
	defer SetEmbShards(0)
	c, cl := newTestCluster(t, 1)
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "shards", Dim: 2, Opt: Adam(0.1), InitScale: 0.25})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := int64(0); i < 64; i++ {
		if err := e.PushGrad(map[int64][]float64{i: {float64(i), -1}}); err != nil {
			t.Fatalf("grad: %v", err)
		}
	}
	before, err := e.Pull([]int64{0, 7, 63})
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	if err := cl.Checkpoint("shards"); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Restore under a different shard count.
	SetEmbShards(1)
	addr := c.ServerAddrs()[0]
	c.KillServer(addr)
	if rec := c.Master.CheckServers(); len(rec) != 1 {
		t.Fatalf("recovered %v, want [%s]", rec, addr)
	}
	after, err := e.Pull([]int64{0, 7, 63})
	if err != nil {
		t.Fatalf("pull after restore: %v", err)
	}
	for id, want := range before {
		for i := range want {
			if after[id][i] != want[i] {
				t.Fatalf("row %d dim %d: %v after restore, want %v", id, i, after[id][i], want[i])
			}
		}
	}
	// Optimizer state survived re-sharding: training keeps converging.
	for i := 0; i < 50; i++ {
		cur, _ := e.Pull([]int64{5})
		if err := e.PushGrad(map[int64][]float64{5: {2 * cur[5][0], 2 * cur[5][1]}}); err != nil {
			t.Fatalf("grad after restore: %v", err)
		}
	}
	cur, _ := e.Pull([]int64{5})
	if math.Abs(cur[5][0]) > 0.2 {
		t.Fatalf("no convergence after restore: %v", cur[5])
	}
}

// TestEmbStoreRoundTripsAcrossShardCounts: the checkpoint and migration
// formats know nothing about shards, tables or slabs. State built under
// one shard count — including a non-power-of-two request, which rounds up
// — restores (checkpoint) and merges (export of half the route
// space) under every other, with equal rows, moments only for the rows
// that took a gradient, and bit-equal results of the next optimizer step.
func TestEmbStoreRoundTripsAcrossShardCounts(t *testing.T) {
	defer SetEmbShards(0)
	const rows, graded = 300, 200
	for _, opt := range []Optimizer{Adam(0.05), AdaGrad(0.05)} {
		meta := oneServerMeta(ModelMeta{Name: "e", Kind: Embedding, Dim: 3, Opt: opt, InitScale: 0.25})
		grads := make(map[int64][]float64)
		all := make([]int64, rows)
		for id := int64(0); id < rows; id++ {
			all[id] = id
			if id < graded {
				grads[id] = []float64{0.5, -float64(id), 0.125}
			}
		}
		step := func(t *testing.T, e *embEngine, ids []int64) map[int64][]float64 {
			g := make(map[int64][]float64)
			for _, id := range ids {
				g[id] = []float64{1, 0.5, -2}
			}
			if err := pushReq(e, embPushReq{Rows: mustRows(g, 3), Grad: true}); err != nil {
				t.Fatalf("grad push: %v", err)
			}
			return pullRows(t, e, ids).Map()
		}
		for _, from := range []int{1, 3, 32} {
			SetEmbShards(from)
			eng, _ := newEngine(meta, 0, 0)
			src := eng.(*embEngine)
			if want := map[int]int{1: 1, 3: 4, 32: 32}[from]; len(src.shards) != want {
				t.Fatalf("SetEmbShards(%d) built %d shards, want %d", from, len(src.shards), want)
			}
			if _, err := src.pull(pullReq{Keys: all}); err != nil { // materialise, no moments
				t.Fatal(err)
			}
			for k := 0; k < 2; k++ {
				if err := pushReq(src, embPushReq{Rows: mustRows(grads, 3), Grad: true}); err != nil {
					t.Fatal(err)
				}
			}
			ckpt := exportAll(src)
			if len(ckpt.Rows.IDs) != rows || len(ckpt.Vel.IDs) != graded || (opt.Kind == OptAdam && len(ckpt.Mom.IDs) != graded) {
				t.Fatalf("from=%d: checkpoint has %d rows, %d mom, %d vel; want %d rows and moments for the %d graded",
					from, len(ckpt.Rows.IDs), len(ckpt.Mom.IDs), len(ckpt.Vel.IDs), rows, graded)
			}
			mid := meta.routeSpan() / 2
			upper := src.export(mid, meta.routeSpan())
			upperIDs := upper.Rows.IDs
			// Reference results of the next step, from the source itself.
			wantAll := step(t, src, all)
			for _, to := range []int{1, 3, 32} {
				SetEmbShards(to)
				reng, _ := newEngine(meta, 0, 0)
				if err := mergeImage(reng, enc(ckpt)); err != nil {
					t.Fatal(err)
				}
				restored := reng.(*embEngine)
				if got := exportAll(restored); canonImage(got) != canonImage(ckpt) {
					t.Fatalf("%d→%d shards: restored checkpoint differs", from, to)
				}
				if got := step(t, restored, all); !reflect.DeepEqual(got, wantAll) {
					t.Fatalf("%d→%d shards: optimizer step after restore differs", from, to)
				}
				ieng, _ := newEngine(meta, 0, 0)
				imported := ieng.(*embEngine)
				if err := mergeImage(imported, enc(upper)); err != nil {
					t.Fatal(err)
				}
				if got := exportAll(imported); canonImage(got) != canonImage(upper) {
					t.Fatalf("%d→%d shards: merged range differs from the export", from, to)
				}
				got := step(t, imported, upperIDs)
				for _, id := range upperIDs {
					if !reflect.DeepEqual(got[id], wantAll[id]) {
						t.Fatalf("%d→%d shards: row %d after import + step = %v, want %v", from, to, id, got[id], wantAll[id])
					}
				}
			}
		}
	}
}

// TestHandlerTableErrors: the typed handler table must reject unknown
// methods and kind-mismatched requests loudly.
func TestHandlerTableErrors(t *testing.T) {
	s := NewServer("s0", dfs.NewDefault())
	if _, err := s.Handle("NoSuchMethod", nil); err == nil {
		t.Fatal("unknown method succeeded")
	}
	meta := ModelMeta{Name: "emb", Kind: Embedding, Dim: 2,
		Parts: []Partition{{Server: "s0"}}}
	if _, err := s.Handle("CreatePart", enc(createPartReq{Meta: meta, Part: 0})); err != nil {
		t.Fatalf("CreatePart: %v", err)
	}
	// A vector pull against an embedding model is a client bug; the old
	// server read nil storage, the engine lookup now names the mismatch.
	if _, err := s.Handle("VecPull", enc(pullReq{Model: "emb", Part: 0})); err == nil {
		t.Fatal("VecPull on an Embedding model succeeded")
	}
	if _, err := s.Handle("CreatePart", enc(createPartReq{Meta: meta, Part: 5})); err == nil {
		t.Fatal("CreatePart with out-of-range partition succeeded")
	}
}

func init() {
	// Touches a few rows under the engine's all-shard lock; exercised by
	// the concurrency stress test below alongside pulls and checkpoints.
	RegisterFunc("enginetest.touch", func(s *Store, model string, part int, arg []byte) ([]byte, error) {
		p, err := s.Partition(model, part)
		if err != nil {
			return nil, err
		}
		rows := p.Lock()
		defer rows.Unlock()
		var sum float64
		for _, row := range rows.Rows(nil, []int64{0, 1, 2, 3, 4, 5, 6, 7}) {
			for _, v := range row {
				sum += v
			}
		}
		return enc(sum), nil
	})
}

// TestEngineConcurrencyStress hammers one embedding model with mixed
// pulls, adds, gradient pushes, psFuncs, checkpoints and stats from many
// goroutines. Run under -race this is the regression net for the sharded
// locking (lock ordering, the pull fast path's upgrade, checkpoint cuts).
func TestEngineConcurrencyStress(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "stress", Dim: 4, Opt: Adam(0.01), InitScale: 0.1})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	const workers = 8
	const ops = 40
	var wg sync.WaitGroup
	errs := make(chan error, workers*ops)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				id := rng.Int63n(64)
				var err error
				switch i % 5 {
				case 0:
					_, err = e.Pull([]int64{id, id + 1, id + 2})
				case 1:
					err = e.PushAdd(map[int64][]float64{id: {1, 0, -1, 0}})
				case 2:
					err = e.PushGrad(map[int64][]float64{id: {0.1, 0.1, 0.1, 0.1}})
				case 3:
					_, err = cl.CallFunc("stress", "enginetest.touch", func(Partition) []byte { return nil })
				case 4:
					err = cl.Checkpoint("stress")
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var bytes int64
	for _, s := range stats {
		bytes += s.Bytes
	}
	if bytes == 0 {
		t.Fatal("stats report zero resident bytes after stress")
	}
}

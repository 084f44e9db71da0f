package ps

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"psgraph/internal/rpc"
)

// refPushReqs is the row push as the client encoded it before pushFrame
// wrote the frames from the caller's batch: a hash layout copied every
// owner's rows into a bucket batch of its own (splitBatch), a column layout
// copied every partition's columns into a block of theirs, and enc
// encoded each as an embPushReq. Frames by partition identity; an owner
// nothing routes to gets none.
func refPushReqs(meta ModelMeta, b RowBatch, grad, set bool) map[int][]byte {
	out := make(map[int][]byte)
	by := make([]RowBatch, len(meta.Parts))
	for slot, p := range meta.Parts {
		by[slot] = RowBatch{IDs: []int64{}, Dim: b.Dim, Data: []float64{}}
		if meta.Kind == ColumnEmbedding {
			by[slot].IDs, by[slot].Dim = b.IDs, p.Col1-p.Col0
		}
	}
	for i, id := range b.IDs {
		if meta.Kind == ColumnEmbedding {
			for slot, p := range meta.Parts {
				by[slot].Data = append(by[slot].Data, b.Row(i)[p.Col0:p.Col1]...)
			}
			continue
		}
		pb := &by[meta.PartitionFor(id)]
		pb.IDs = append(pb.IDs, id)
		pb.Data = append(pb.Data, b.Row(i)...)
	}
	for slot, p := range meta.Parts {
		if len(by[slot].IDs) > 0 {
			out[p.Index] = encReply(embPushReq{Model: meta.Name, Part: p.Index, Rows: by[slot], Grad: grad, Set: set})
		}
	}
	return out
}

// refPush is the engine's push as it was before it applied the frame's
// value bytes: the request decoded whole into a RowBatch, its rows then
// copied, added or stepped in batch order. Rows of different shards are
// independent and the optimizer step is one per request, so batch order
// equals the shard-grouped order of the real thing.
func refPush(e *embEngine, req embPushReq) error {
	rows := req.Rows
	if err := rows.check(); err != nil {
		return err
	}
	if rows.Dim != e.width() {
		return fmt.Errorf("ps: push width %d != row width %d", rows.Dim, e.width())
	}
	for _, id := range rows.IDs {
		if err := e.checkKey(id); err != nil {
			return err
		}
	}
	var step int64
	if req.Grad {
		step = e.step.Add(1)
	}
	for j, id := range rows.IDs {
		sh := e.shard(id)
		sh.mu.Lock()
		ord, row := e.rowLocked(sh, id)
		switch {
		case req.Set:
			copy(row, rows.Row(j))
		case req.Grad:
			e.meta.Opt.apply(row, rows.Row(j), step, func(k int) []float64 {
				return sh.store.moment([2]*[][]float64{&sh.store.mom, &sh.store.vel}[k], ord)
			})
		default:
			for i, v := range rows.Row(j) {
				row[i] += v
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// pushTap records the payload of every EmbPush that crosses the transport,
// out of its dedup envelope, by model and partition.
type pushTap struct {
	rpc.Transport
	mu     sync.Mutex
	frames map[string][]byte
}

func (p *pushTap) Call(addr, method string, body []byte) ([]byte, error) {
	if method == "EmbPush" {
		if _, _, _, payload, ok := unwrapDedup(body); ok {
			var req embPushReq
			if err := dec(payload, &req); err == nil {
				p.mu.Lock()
				p.frames[fmt.Sprintf("%s/%d", req.Model, req.Part)] = bytes.Clone(payload)
				p.mu.Unlock()
			}
		}
	}
	return p.Transport.Call(addr, method, body)
}

// TestEmbPushFrameMatchesEncode: same bytes. For hash and column layouts,
// add, set and gradient pushes, unsorted and repeated ids, negative ids,
// NaN/Inf/-0 values, and batches that leave some owners with nothing, every
// request the client puts on the wire is byte for byte what encoding the
// partition's rows as a batch of their own was — and a partition nothing
// routes to is sent nothing.
func TestEmbPushFrameMatchesEncode(t *testing.T) {
	const dim = 6
	tap := &pushTap{Transport: rpc.NewInProc(), frames: make(map[string][]byte)}
	c, err := NewCluster(ClusterConfig{NumServers: 2, Transport: tap, NamePrefix: "pf"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := c.NewClient()
	rng := rand.New(rand.NewSource(5))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e-310}
	compared := 0
	for _, byCol := range []bool{false, true} {
		name := map[bool]string{false: "hash", true: "column"}[byCol]
		e, err := cl.CreateEmbedding(EmbeddingSpec{Name: name, Dim: dim, ByColumn: byCol, InitScale: 0.5, Partitions: 4, Opt: Adam(0.01)})
		if err != nil {
			t.Fatal(err)
		}
		var oneOwner []int64 // ids that all route to partition slot 0
		for id := int64(0); len(oneOwner) < 5; id++ {
			if e.Meta.PartitionFor(id) == 0 {
				oneOwner = append(oneOwner, id)
			}
		}
		batches := map[string][]int64{
			"unsorted":     {900, 3, 77, 12, 500000, 41, 8, 8000, 5},
			"repeated ids": {7, 7, 9, 7, 9, 7},
			"negative ids": {-1, -900, 4, math.MinInt64, math.MaxInt64},
			"one owner":    oneOwner,
			"one row":      {12345},
		}
		for what, ids := range batches {
			b := RowBatch{IDs: ids, Dim: dim, Data: make([]float64, len(ids)*dim)}
			for i := range b.Data {
				if b.Data[i] = rng.NormFloat64(); rng.Intn(5) == 0 {
					b.Data[i] = special[rng.Intn(len(special))]
				}
			}
			for _, op := range []struct{ grad, set bool }{{false, false}, {false, true}, {true, false}} {
				clear(tap.frames)
				if err := e.pushBatch(b, op.grad, op.set); err != nil {
					t.Fatalf("%s, %s: %v", name, what, err)
				}
				want := refPushReqs(e.Meta, b, op.grad, op.set)
				if what == "one owner" && !byCol && len(want) != 1 {
					t.Fatalf("%s, %s: reference sends %d requests", name, what, len(want))
				}
				if len(tap.frames) != len(want) {
					t.Errorf("%s, %s: %d requests on the wire, want %d", name, what, len(tap.frames), len(want))
				}
				for part, ref := range want {
					got := tap.frames[fmt.Sprintf("%s/%d", name, part)]
					if !bytes.Equal(got, ref) {
						t.Errorf("%s/%d, %s (grad %v, set %v): EmbPush frame\n got %x\nwant %x", name, part, what, op.grad, op.set, got, ref)
					}
					compared++
				}
			}
		}
	}
	if compared < 2*3*4 {
		t.Fatalf("compared %d frames", compared)
	}
	// The frame is asked for at exactly its size, flags included.
	b := RowBatch{IDs: []int64{5, 1 << 40, -3}, Dim: 3, Data: make([]float64, 9)}
	f := pushFrame("m", 300, b, rowWork{ids: []int64{-3, 5}, pos: []int32{2, 0}}, 1, 3, true, false)
	want := encReply(embPushReq{Model: "m", Part: 300, Rows: RowBatch{IDs: []int64{-3, 5}, Dim: 2, Data: make([]float64, 4)}, Grad: true})
	if !bytes.Equal(f, want) {
		t.Errorf("pushFrame of routed positions\n got %x\nwant %x", f, want)
	}
}

// engineBytes is everything an embedding engine holds — rows, moments, the
// optimizer step — as one deterministic image.
func engineBytes(e *embEngine) []byte {
	return enc(e.export(math.MinInt64, math.MaxInt64))
}

// TestMisshapedPushWritesNothing: a push is checked whole against its frame
// before the first row (or the optimizer step) changes. Truncated values, a
// width other than the engine's, a block that is not ids × width, a key
// outside the partition's range: the engine is bit for bit what it was, the
// mutation is not counted, and the error names the model and the partition.
func TestMisshapedPushWritesNothing(t *testing.T) {
	c, err := NewCluster(ClusterConfig{NumServers: 2, NamePrefix: "mp"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := c.NewClient()
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "liar", Dim: 3, InitScale: 0.5, Partitions: 4, Opt: Adam(0.01)})
	if err != nil {
		t.Fatal(err)
	}
	var mine, others []int64 // ids of partition slot 0, and of the rest
	for id := int64(0); len(mine) < 4 || len(others) < 1; id++ {
		if e.Meta.PartitionFor(id) == 0 {
			mine = append(mine, id)
		} else {
			others = append(others, id)
		}
	}
	seed := RowBatch{IDs: mine[:4], Dim: 3, Data: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}
	if err := e.pushBatch(seed, true, false); err != nil {
		t.Fatal(err)
	}
	p := e.Meta.Parts[0]
	srv := c.servers[p.Server]
	eng, err := getEngine[*embEngine](srv.store, "liar", p.Index)
	if err != nil {
		t.Fatal(err)
	}
	req := func(rows RowBatch) embPushReq {
		return embPushReq{Model: "liar", Part: p.Index, Rows: rows, Grad: true}
	}
	good := encReply(req(seed))
	cases := map[string][]byte{
		"values truncated mid-row": good[:len(good)-2-8-3],
		"flags missing":            good[:len(good)-2],
		"rows too narrow":          encReply(req(RowBatch{IDs: mine[:2], Dim: 2, Data: make([]float64, 4)})),
		"rows too wide":            encReply(req(RowBatch{IDs: mine[:2], Dim: 4, Data: make([]float64, 8)})),
		"block one value short":    encReply(req(RowBatch{IDs: mine[:2], Dim: 3, Data: make([]float64, 5)})),
		"block one row long":       encReply(req(RowBatch{IDs: mine[:2], Dim: 3, Data: make([]float64, 9)})),
		"values without ids":       encReply(req(RowBatch{Dim: 3, Data: make([]float64, 3)})),
		"last key of another part": encReply(req(RowBatch{IDs: []int64{mine[0], mine[1], others[0]}, Dim: 3, Data: make([]float64, 9)})),
		"trailing byte":            append(bytes.Clone(good), 0),
	}
	before, applied := engineBytes(eng), srv.role("liar", p.Index).muts.Load()
	where := fmt.Sprintf("liar/%d", p.Index)
	for what, body := range cases {
		_, err := srv.Handle("EmbPush", body)
		if err == nil {
			t.Errorf("%s: applied", what)
		} else if what != "trailing byte" && !strings.Contains(err.Error(), where) {
			t.Errorf("%s: error %q does not name %s", what, err, where)
		}
		if after := engineBytes(eng); !bytes.Equal(after, before) {
			t.Errorf("%s: the rejected push changed the engine", what)
		}
	}
	if n := srv.role("liar", p.Index).muts.Load(); n != applied {
		t.Errorf("rejected pushes were counted: %d mutations, were %d", n, applied)
	}
	// The same frame, whole, applies.
	if _, err := srv.Handle("EmbPush", good); err != nil {
		t.Fatalf("the well-formed push: %v", err)
	}
	if bytes.Equal(engineBytes(eng), before) {
		t.Fatal("the well-formed push changed nothing")
	}
}

// TestPushAllocationBudgets: what TestPullAllocationBudgets is for pulls. A
// 128-row push over 4 partitions costs fan-out goroutines, one frame and
// one envelope per partition (pooled), the handlers' id slices and shard
// orders (~10 KB in all) — nothing per row and nothing per value: the bytes
// a push allocates stay under half of the 32 KB of values it carries. Before
// pushFrame each partition's rows were copied into a batch of their own on
// the client and decoded into another on the server (2 × 32 KB and up).
func TestPushAllocationBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are measured without -short")
	}
	ids := make([]int64, 128)
	for i := range ids {
		ids[i] = int64(i * 7)
	}
	rows := RowBatch{IDs: ids, Dim: 32, Data: make([]float64, len(ids)*32)}
	for i := range rows.Data {
		rows.Data[i] = float64(i%13) * 1e-3
	}
	embLayouts(t, 32, func(name string, e *Emb) {
		for _, op := range []struct {
			what      string
			grad, set bool
		}{{"add", false, false}, {"set", false, true}, {"grad", true, false}} {
			push := func() {
				if err := e.pushBatch(rows, op.grad, op.set); err != nil {
					t.Fatal(err)
				}
			}
			push() // materialise the rows
			// The highest counts seen (80 and 60, under -race) plus 10%.
			budget := map[string]float64{"hash": 88, "column": 66}[name]
			if n := testing.AllocsPerRun(20, push); n > budget {
				t.Errorf("%s: %s of 128 rows over 4 partitions makes %v allocations, budget %v", name, op.what, n, budget)
			}
			if raceEnabled {
				continue // frames miss the pool: the byte budget does not hold
			}
			const runs = 50
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				push()
			}
			runtime.ReadMemStats(&m1)
			if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per > 16<<10 {
				t.Errorf("%s: %s of 128 × 32 values allocates %d bytes per push, budget %d", name, op.what, per, 16<<10)
			}
		}
	})
}

// TestRowCacheKeepsItsSlab: past its first window a row cache inserts into
// memory it already has — an invalidate → refill cycle allocates nothing,
// where it used to re-grow the slab, the entries and the index from empty
// by doubling — and the fence, the LRU order and the caps are what they
// were: a stale insert does not land, the cap evicts the oldest.
func TestRowCacheKeepsItsSlab(t *testing.T) {
	const dim, n = 32, 1500
	rc := newRowCache(n, 0)
	w := rowWork{ids: make([]int64, n)}
	for i := range w.ids {
		w.ids[i] = int64(i*31) % 10007
	}
	src := make([]float64, n*dim)
	for i := range src {
		src[i] = float64(i)
	}
	window := func() {
		rc.invalidate()
		_, version := rc.lookup(nil, dim, nil)
		rc.insert(version, w, dim, src)
	}
	window()
	slab := &rc.data[0]
	if allocs := testing.AllocsPerRun(20, window); allocs > 0 {
		t.Errorf("an invalidate → refill window of %d rows makes %v allocations", n, allocs)
	}
	if &rc.data[0] != slab || len(rc.rows) != n || len(rc.ents) != n {
		t.Errorf("after refills: slab moved %v, %d indexed, %d entries, want %d", &rc.data[0] != slab, len(rc.rows), len(rc.ents), n)
	}
	dst := make([]float64, 2*dim)
	if missing, _ := rc.lookup([]int64{w.ids[7], 10008}, dim, dst); len(missing.ids) != 1 || dst[0] != src[7*dim] {
		t.Errorf("lookup after refills: missing %v, row starts %v, want %v", missing.ids, dst[0], src[7*dim])
	}
	_, stale := rc.lookup(nil, dim, nil)
	rc.invalidate()
	rc.insert(stale, w, dim, src)
	if len(rc.rows) != 0 || len(rc.ents) != 0 || len(rc.data) != 0 {
		t.Errorf("an insert fenced by an older version landed %d rows", len(rc.rows))
	}
	// At the cap the least recently used row gives up its slot.
	_, version := rc.lookup(nil, dim, nil)
	rc.insert(version, w, dim, src)
	rc.insert(version, rowWork{ids: []int64{20001}}, dim, src[:dim])
	if missing, _ := rc.lookup([]int64{w.ids[0], 20001}, dim, dst); len(missing.ids) != 1 || missing.ids[0] != w.ids[0] || rc.evictions.Load() != 1 {
		t.Errorf("insert at the cap: missing %v after %d evictions, want the oldest row gone", missing.ids, rc.evictions.Load())
	}
	// A width change still starts over.
	rc.insert(version, rowWork{ids: []int64{1, 2}}, 4, make([]float64, 8))
	if rc.dim != 4 || len(rc.rows) != 2 || len(rc.data) != 8 {
		t.Errorf("after a width change: dim %d, %d rows, %d values", rc.dim, len(rc.rows), len(rc.data))
	}
}

// TestRowCacheDiesWithItsModel: a client's row cache is tied to its model.
// Fifty create → prefetch → delete rounds on one client leave at most one
// cache in its table (it never forgot one before, and walked them all under
// its lock for every CacheStats), the live heap where it was after the
// first rounds, and the hit/miss/eviction totals monotone across every
// delete.
func TestRowCacheDiesWithItsModel(t *testing.T) {
	c, err := NewCluster(ClusterConfig{NumServers: 2, NamePrefix: "rcd"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := c.NewClient()
	cl.SetRowCacheLimits(3000, 0)
	ids := make([]int64, 4000) // past the cap: every round evicts
	for i := range ids {
		ids[i] = int64(i)
	}
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var base uint64
	var hits, misses, evictions int64
	for round := 0; round < 50; round++ {
		name := fmt.Sprintf("job%d", round)
		e, err := cl.CreateEmbedding(EmbeddingSpec{Name: name, Dim: 32, ByColumn: true})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			if _, _, err := e.PrefetchRows(ids).Batch(); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.DeleteModel(name); err != nil {
			t.Fatal(err)
		}
		cl.mu.RLock()
		caches := len(cl.rowCaches)
		cl.mu.RUnlock()
		if caches > 1 {
			t.Fatalf("round %d: the client holds %d row caches", round, caches)
		}
		h, m := cl.CacheStats()
		ev := cl.CacheEvictions()
		if h < hits || m <= misses || ev <= evictions {
			t.Fatalf("round %d: totals went from %d/%d/%d to %d/%d/%d", round, hits, misses, evictions, h, m, ev)
		}
		hits, misses, evictions = h, m, ev
		if round == 4 {
			base = live()
		}
	}
	// One cache of 3,000 × 32 rows is ~0.8 MB; 45 forgotten ones were 36 MB.
	if grown := int64(live()) - int64(base); grown > 4<<20 {
		t.Errorf("live heap grew %d KB over 45 create → prefetch → delete rounds", grown>>10)
	}
}

// TestCoalescerKeepsItsWindow: the flushed window comes back as the next
// one — same block, same index, emptied — so a coalescer past its first
// window adds into memory it already has, and what it then sends is the new
// window only.
func TestCoalescerKeepsItsWindow(t *testing.T) {
	embLayouts(t, 2, func(name string, e *Emb) {
		co := e.Coalescer(2, false)
		push := func(id int64, x float64) {
			t.Helper()
			if err := co.PushBatch(RowBatch{IDs: []int64{id, 4}, Dim: 2, Data: []float64{x, x, 1, 1}}); err != nil {
				t.Fatal(err)
			}
		}
		before, err := e.Pull([]int64{1, 2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		push(1, 10)
		push(2, 20) // the window fills and flushes
		indexed := 0
		for _, o := range co.slot.slot {
			if o != 0 {
				indexed++
			}
		}
		if len(co.pending.IDs) != 0 || indexed != 0 || co.slot.slot == nil || cap(co.pending.Data) < 6 {
			t.Fatalf("%s: after a flush the coalescer holds %d pending rows, %d indexed, a block of %d values",
				name, len(co.pending.IDs), indexed, cap(co.pending.Data))
		}
		block := &co.pending.Data[:1][0]
		push(3, 30)
		if &co.pending.Data[0] != block {
			t.Errorf("%s: the next window was built in a new block", name)
		}
		if err := co.Flush(); err != nil {
			t.Fatal(err)
		}
		after, err := e.Pull([]int64{1, 2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		for id, want := range map[int64]float64{1: 10, 2: 20, 3: 30, 4: 3} {
			if got := after[id][0] - before[id][0]; math.Abs(got-want) > 1e-9 {
				t.Errorf("%s: row %d moved by %v, want %v", name, id, got, want)
			}
		}
	})
}

// BenchmarkEmbPushFrame: one batch push end to end, in-proc — the frames
// written from the caller's batch, the envelopes, the engines applying the
// rows from the frames under their shard locks — at the shape of a
// coalesced LINE window (3,000 × 32 over 4 column partitions) and of the
// serve trainer's push (128 × 32 over 4 hash partitions).
func BenchmarkEmbPushFrame(b *testing.B) {
	for _, shape := range []struct {
		n, dim int
		byCol  bool
	}{{3000, 32, true}, {128, 32, false}} {
		b.Run(fmt.Sprintf("%dx%d", shape.n, shape.dim), func(b *testing.B) {
			c, err := NewCluster(ClusterConfig{NumServers: 2, NamePrefix: "bp" + b.Name()})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			e, err := c.NewClient().CreateEmbedding(EmbeddingSpec{Name: "e", Dim: shape.dim, ByColumn: shape.byCol, Partitions: 4})
			if err != nil {
				b.Fatal(err)
			}
			rows := RowBatch{IDs: make([]int64, shape.n), Dim: shape.dim, Data: make([]float64, shape.n*shape.dim)}
			for i := range rows.IDs {
				rows.IDs[i] = int64(i*7) % 50021 // distinct, unsorted
			}
			b.SetBytes(int64(8 * len(rows.Data)))
			b.ReportAllocs()
			for b.Loop() {
				if err := e.PushAddBatch(rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package ps

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"psgraph/internal/rpc"
)

// mustRows lays a row map out as a batch for tests that hand engines and
// coalescers literal rows.
func mustRows(m map[int64][]float64, dim int) RowBatch {
	b, err := rowBatchOf(m, dim)
	if err != nil {
		panic(err)
	}
	return b
}

func TestDedupIDs(t *testing.T) {
	uniq, pos := dedupIDs([]int64{7, 7, 7, 9, 3, 9, 7})
	if !reflect.DeepEqual(uniq, []int64{7, 9, 3}) || !reflect.DeepEqual(pos, []int32{0, 0, 0, 1, 2, 1, 0}) {
		t.Fatalf("dedupIDs = %v, %v", uniq, pos)
	}
	if uniq, pos := dedupIDs(nil); len(uniq) != 0 || len(pos) != 0 {
		t.Fatalf("dedupIDs(nil) = %v, %v", uniq, pos)
	}
}

// hotWire is the zero request and response of every method the guard
// below calls hot. A new data-plane or serve-read method must be added
// here — and to encBinary — before TestHotMethodsAreBinary passes.
var hotWire = map[string][2]any{
	"VecPull":      {pullReq{}, vecPullResp{}},
	"VecPush":      {vecPushReq{}, nil},
	"MapPull":      {pullReq{}, mapPullResp{}},
	"MapPush":      {mapPushReq{}, nil},
	"EmbPull":      {pullReq{}, embPullResp{}},
	"EmbPush":      {embPushReq{}, nil},
	"NbrPull":      {pullReq{}, nbrPullResp{}},
	"NbrPush":      {nbrPushReq{}, nil},
	"MatPull":      {pullReq{}, matPullResp{}},
	"MatPush":      {matPushReq{}, nil},
	"Func":         {funcReq{}, funcResp{}},
	"ServePull":    {servePullReq{}, servePullResp{}},
	"ServeHotPull": {serveHotPullReq{}, servePullResp{}},
}

// TestHotMethodsAreBinary: no data-plane or serve-read message can fall
// back to gob unnoticed. ServePull and ServeHotPull did, for as long as
// the serving tier existed: a fresh gob encoder and a freshly compiled
// decoder on both ends of every read.
func TestHotMethodsAreBinary(t *testing.T) {
	hot := 0
	for method := range serverHandlers {
		if !strings.HasSuffix(method, "Pull") && !strings.HasSuffix(method, "Push") && method != "Func" {
			continue
		}
		hot++
		msgs, ok := hotWire[method]
		if !ok {
			t.Errorf("%s is a data-plane method with no entry in hotWire", method)
			continue
		}
		for _, msg := range msgs {
			if msg == nil {
				continue // pushes answer with an empty body
			}
			if b := enc(msg); b[0] != tagBin {
				t.Errorf("%s: enc(%T) has tag 0x%02x, want tagBin", method, msg, b[0])
			}
		}
	}
	if hot != len(hotWire) {
		t.Errorf("serverHandlers has %d hot methods, hotWire lists %d", hot, len(hotWire))
	}
}

// rowBatchDecodeErrors (run by TestWireDecodeErrors): a truncated or
// mis-sized batch is an error, and a length prefix promising more than
// the bytes present is rejected before anything is allocated for it.
func rowBatchDecodeErrors(t *testing.T) {
	good := enc(embPullResp{Rows: RowBatch{IDs: []int64{1, 2, 3}, Dim: 2, Data: []float64{1, 2, 3, 4, 5, 6}}})
	var resp embPullResp
	if err := dec(good, &resp); err != nil {
		t.Fatal(err)
	}
	for cut := 2; cut < len(good); cut++ {
		if err := dec(good[:cut], &resp); err == nil {
			t.Fatalf("batch truncated to %d of %d bytes decoded", cut, len(good))
		}
	}
	if err := dec(append(bytes.Clone(good), 0), &resp); err == nil {
		t.Error("trailing byte: want error")
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	for name, body := range map[string][]byte{
		"id count past the message":    append([]byte{tagBin, msgEmbPullResp}, huge...),
		"width past the message":       append([]byte{tagBin, msgEmbPullResp, 2, 2}, append(huge, 1)...),
		"value count past the message": append([]byte{tagBin, msgEmbPullResp, 2, 2, 1}, huge...),
		"fewer values than ids×width":  enc(embPullResp{Rows: RowBatch{IDs: []int64{1, 2}, Dim: 2, Data: make([]float64, 3)}}),
		"more values than ids×width":   enc(embPullResp{Rows: RowBatch{IDs: []int64{1}, Dim: 2, Data: make([]float64, 4)}}),
		"values without ids":           enc(embPullResp{Rows: RowBatch{Dim: 1, Data: make([]float64, 1)}}),
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if err := dec(body, &resp); err == nil {
				t.Errorf("%s: decoded", name)
			}
		})
		// The error value and its message; never a block sized by the prefix.
		if allocs > 12 {
			t.Errorf("%s: %v allocations on the reject path", name, allocs)
		}
	}
	// The scatter target rejects the same shapes (the liar tests in
	// TestMisshapedReplyIsAnError) and a gob-tagged reply without panicking.
	sc := &rowScatter{msg: msgEmbPullResp, model: "m", work: rowWork{ids: []int64{1}}, dst: make([]float64, 2), width: 2, strd: 2}
	if err := dec(encGob(embPullResp{Rows: RowBatch{IDs: []int64{1}, Dim: 2, Data: []float64{1, 2}}}), sc); err == nil {
		t.Error("gob-tagged reply into a scatter target: want error")
	}
	for cut := 2; cut < len(good); cut++ {
		sc := &rowScatter{msg: msgEmbPullResp, model: "m", work: rowWork{ids: []int64{1, 2, 3}}, dst: make([]float64, 6), width: 2, strd: 2}
		if err := dec(good[:cut], sc); err == nil {
			t.Fatalf("scatter of a reply truncated to %d of %d bytes succeeded", cut, len(good))
		}
	}
}

// FuzzRowBatchDecode: the batch decoder never panics, and what it accepts
// survives a re-encode bit for bit.
func FuzzRowBatchDecode(f *testing.F) {
	for _, msg := range hotMessages() {
		if m, ok := msg.(embPullResp); ok {
			b, _ := encBinary(m)
			f.Add(b[2:])
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		body := append([]byte{tagBin, msgEmbPullResp}, payload...)
		var got embPullResp
		if dec(body, &got) != nil {
			return
		}
		if err := got.Rows.check(); err != nil {
			t.Fatalf("decoder accepted a mis-shaped batch: %v", err)
		}
		var again embPullResp
		if err := dec(enc(got), &again); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !wireEq(reflect.ValueOf(got), reflect.ValueOf(again)) {
			t.Fatalf("round trip changed the batch:\n got %+v\nthen %+v", got, again)
		}
		// The scatter target must agree with the plain decoder on anything
		// shaped like an answer to its own ids.
		sc := &rowScatter{msg: msgEmbPullResp, model: "f", work: rowWork{ids: got.Rows.IDs},
			dst: make([]float64, len(got.Rows.Data)), width: got.Rows.Dim, strd: got.Rows.Dim}
		if err := dec(body, sc); err != nil {
			t.Fatalf("scatter rejected what the decoder accepted: %v", err)
		}
		for i, v := range got.Rows.Data {
			if math.Float64bits(v) != math.Float64bits(sc.dst[i]) {
				t.Fatalf("scatter value %d = %v, decoder %v", i, sc.dst[i], v)
			}
		}
	})
}

// embLayouts runs f against a 4-partition hash model and a 4-partition
// column model of the same width on one cluster.
func embLayouts(t testing.TB, dim int, f func(name string, e *Emb)) (*Cluster, *Client) {
	c, err := NewCluster(ClusterConfig{NumServers: 2, NamePrefix: "rb" + t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := c.NewClient()
	for _, byCol := range []bool{false, true} {
		name := map[bool]string{false: "hash", true: "column"}[byCol]
		e, err := cl.CreateEmbedding(EmbeddingSpec{Name: name, Dim: dim, ByColumn: byCol, InitScale: 0.5, Partitions: 4})
		if err != nil {
			t.Fatal(err)
		}
		f(name, e)
	}
	return c, cl
}

// TestEmbPullMatchesPerIDReference: the map view of a batched pull —
// duplicates, unsorted ids and all — equals what pulling every id on its
// own returns, on both layouts, and the flat form maps every request
// position to its row.
func TestEmbPullMatchesPerIDReference(t *testing.T) {
	const dim = 6
	rng := rand.New(rand.NewSource(3))
	embLayouts(t, dim, func(name string, e *Emb) {
		set := make(map[int64][]float64)
		for i := 0; i < 40; i++ {
			row := make([]float64, dim)
			for c := range row {
				row[c] = rng.NormFloat64()
			}
			set[rng.Int63n(500)] = row
		}
		if err := e.PushSet(set); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 20; round++ {
			ids := make([]int64, rng.Intn(60))
			for i := range ids {
				ids[i] = rng.Int63n(500) // pushed rows and never-touched ones
				if i > 0 && rng.Intn(3) == 0 {
					ids[i] = ids[rng.Intn(i)]
				}
			}
			want := make(map[int64][]float64)
			for _, id := range ids {
				one, err := e.Pull([]int64{id})
				if err != nil {
					t.Fatal(err)
				}
				want[id] = one[id]
			}
			got, err := e.Pull(ids)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) == 0 {
				want = map[int64][]float64{}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Pull(%v)\n got %v\nwant %v", name, ids, got, want)
			}
			rows, pos, err := e.PullBatch(ids)
			if err != nil {
				t.Fatal(err)
			}
			if err := rows.check(); err != nil || rows.Dim != dim || len(pos) != len(ids) {
				t.Fatalf("%s: PullBatch shape: %v, dim %d, %d positions for %d ids", name, err, rows.Dim, len(pos), len(ids))
			}
			for i, id := range ids {
				if rows.IDs[pos[i]] != id || !reflect.DeepEqual(rows.Row(int(pos[i])), want[id]) {
					t.Fatalf("%s: position %d (id %d) maps to row %d = id %d %v", name, i, id, pos[i], rows.IDs[pos[i]], rows.Row(int(pos[i])))
				}
			}
			cached, err := e.PullCached(ids)
			if err != nil || !reflect.DeepEqual(cached, want) {
				t.Fatalf("%s: PullCached(%v) = %v, %v; want %v", name, ids, cached, err, want)
			}
		}
	})
}

// TestPulledRowsDoNotShareCapacity: the map views slice one block, so a
// caller's append to a row must reallocate rather than run into the next
// row.
func TestPulledRowsDoNotShareCapacity(t *testing.T) {
	embLayouts(t, 3, func(name string, e *Emb) {
		for what, pull := range map[string]func([]int64) (map[int64][]float64, error){
			"Pull": e.Pull, "PullCached": e.PullCached,
		} {
			rows, err := pull([]int64{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			next := append([]float64(nil), rows[2]...)
			_ = append(rows[1], 99, 99, 99)
			if !reflect.DeepEqual(rows[2], next) {
				t.Fatalf("%s %s: append to row 1 rewrote row 2: %v, was %v", name, what, rows[2], next)
			}
		}
	})
}

// keyCounter counts the keys EmbPull requests carry, per server address.
type keyCounter struct {
	rpc.Transport
	mu   sync.Mutex
	keys map[string][]int
}

func (k *keyCounter) Call(addr, method string, body []byte) ([]byte, error) {
	if method == "EmbPull" {
		var req pullReq
		if err := dec(body, &req); err == nil {
			k.mu.Lock()
			k.keys[addr] = append(k.keys[addr], len(req.Keys))
			k.mu.Unlock()
		}
	}
	return k.Transport.Call(addr, method, body)
}

// TestDuplicateIDsCrossTheWireOnce: a pull of [7,7,7,9] asks every
// partition for two keys and records two cache misses — not four of each,
// which is what LINE's runs of equal U ids used to cost on every column
// partition.
func TestDuplicateIDsCrossTheWireOnce(t *testing.T) {
	tr := &keyCounter{Transport: rpc.NewInProc(), keys: make(map[string][]int)}
	c, err := NewCluster(ClusterConfig{NumServers: 2, Transport: tr, NamePrefix: "dup"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := c.NewClient()
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "d", Dim: 4, ByColumn: true, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.PullCached([]int64{7, 7, 7, 9})
	if err != nil || len(rows) != 2 {
		t.Fatalf("PullCached = %v, %v", rows, err)
	}
	calls := 0
	for addr, ks := range tr.keys {
		for _, n := range ks {
			calls++
			if n != 2 {
				t.Errorf("an EmbPull to %s carried %d keys, want 2", addr, n)
			}
		}
	}
	if calls != 4 {
		t.Errorf("%d EmbPull calls for 4 column partitions", calls)
	}
	if hits, misses := cl.CacheStats(); hits != 0 || misses != 2 {
		t.Errorf("cache recorded %d hits and %d misses, want 0 and 2", hits, misses)
	}
	if _, err := e.PullCached([]int64{9, 9, 7}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cl.CacheStats(); hits != 2 || misses != 2 || calls != 4 {
		t.Errorf("after a repeat: %d hits, %d misses, want 2 and 2", hits, misses)
	}
}

// TestCoalescerFlushRacesPush: pushes from one goroutine while another
// flushes; every update must reach the servers exactly once. Run with
// -race (CI does).
func TestCoalescerFlushRacesPush(t *testing.T) {
	embLayouts(t, 2, func(name string, e *Emb) {
		co := e.Coalescer(4, false)
		const pushers, each = 4, 50
		var wg sync.WaitGroup
		stop := make(chan struct{})
		flushed := make(chan struct{})
		go func() {
			defer close(flushed)
			for {
				select {
				case <-stop:
					return
				default:
					if err := co.Flush(); err != nil {
						t.Errorf("flush: %v", err)
						return
					}
				}
			}
		}()
		for g := 0; g < pushers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					b := RowBatch{IDs: []int64{1, int64(2 + i%3)}, Dim: 2, Data: []float64{1, 1, 2, 2}}
					if err := co.PushBatch(b); err != nil {
						t.Errorf("push: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		<-flushed
		if err := co.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := e.Pull([]int64{1, 2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		fresh := func(id int64) []float64 {
			row := make([]float64, 2)
			ri := rowIniter{scale: 0.5, col0: 0, col1: 2}
			ri.initRowInto(row, id)
			return row
		}
		var sum float64
		for id, row := range got {
			sum += row[0] - fresh(id)[0]
		}
		// Row 1 takes 1 per push, rows 2..4 share 2 per push.
		if want := float64(pushers * each * 3); math.Abs(sum-want) > 1e-6 {
			t.Fatalf("%s: coalesced updates sum to %v, want %v", name, sum, want)
		}
	})
}

// Allocation budgets: one allocation per row must not creep back onto the
// pull paths. A 128-row pull over 4 partitions costs 70 to 100 (fan-out
// goroutines, four envelopes, four handlers; pool misses after a GC), so
// 120 leaves no room for a 129th. At the parent of the change that
// introduced RowBatch each of these was over a thousand.
func TestPullAllocationBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are measured without -short")
	}
	ids := make([]int64, 128)
	for i := range ids {
		ids[i] = int64(i * 7)
	}
	_, cl := embLayouts(t, 32, func(name string, e *Emb) {
		if _, err := e.Pull(ids); err != nil { // materialise the rows
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, _, err := e.PullBatch(ids); err != nil {
				t.Fatal(err)
			}
		}); n > 120 {
			t.Errorf("%s: PullBatch of 128 rows over 4 partitions makes %v allocations, budget 120", name, n)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := e.Pull(ids); err != nil {
				t.Fatal(err)
			}
		}); n > 120 {
			t.Errorf("%s: Pull (map view) of 128 rows makes %v allocations, budget 120", name, n)
		}
	})
	if _, err := cl.PublishSnapshot("hash"); err != nil {
		t.Fatal(err)
	}
	cl.SetRowCacheLimits(1, 0) // every lookup below misses the agent's cache
	sc, err := cl.Serve("hash")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := sc.Pull(ids); err != nil {
			t.Fatal(err)
		}
	}); n > 120 {
		t.Errorf("ServeClient.Pull of 128 uncached rows makes %v allocations, budget 120", n)
	}
	if st := sc.Stats(); st.PrimaryRows != 0 || st.SnapRows == 0 {
		t.Errorf("serve reads did not come off the snapshots: %+v", st)
	}
}

func benchEmb(b *testing.B, byCol bool) (*Emb, []int64) {
	c, err := NewCluster(ClusterConfig{NumServers: 2, NamePrefix: "be" + b.Name()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	e, err := c.NewClient().CreateEmbedding(EmbeddingSpec{Name: "e", Dim: 32, ByColumn: byCol, Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int64, 128)
	for i := range ids {
		ids[i] = int64(i * 7)
	}
	return e, ids
}

func BenchmarkEmbPullBatch(b *testing.B) {
	for _, layout := range []string{"hash", "column"} {
		b.Run(layout, func(b *testing.B) {
			e, ids := benchEmb(b, layout == "column")
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := e.PullBatch(ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEmbPushBatch(b *testing.B) {
	for _, layout := range []string{"hash", "column"} {
		b.Run(layout, func(b *testing.B) {
			e, ids := benchEmb(b, layout == "column")
			rows := RowBatch{IDs: ids, Dim: 32, Data: make([]float64, len(ids)*32)}
			b.ReportAllocs()
			for b.Loop() {
				if err := e.PushAddBatch(rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkServePull(b *testing.B) {
	e, ids := benchEmb(b, false)
	if _, err := e.Pull(ids); err != nil {
		b.Fatal(err)
	}
	if _, err := e.c.PublishSnapshot("e"); err != nil {
		b.Fatal(err)
	}
	e.c.SetRowCacheLimits(1, 0)
	sc, err := e.c.Serve("e")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := sc.Pull(ids); err != nil {
			b.Fatal(err)
		}
	}
}

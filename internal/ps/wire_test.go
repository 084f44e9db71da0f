package ps

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"psgraph/internal/rpc"
)

// wireEq compares two decoded wire messages, treating NaN as equal to
// NaN (reflect.DeepEqual does not) and distinguishing nil from empty
// slices/maps (the codec must round-trip pullReq's nil-means-all).
func wireEq(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !wireEq(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() || !wireEq(iter.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !wireEq(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint8:
		return a.Uint() == b.Uint()
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// hotMessages is one instance of every hot data-plane message with
// awkward payloads: negative ids, NaN/Inf/-0 floats, nil and empty
// slices and maps.
func hotMessages() []any {
	nan, inf := math.NaN(), math.Inf(1)
	return []any{
		pullReq{Model: "ranks", Part: 3, Keys: []int64{0, -5, 1 << 40}},
		pullReq{Model: "", Part: 0, Keys: nil},
		pullReq{Model: "sv", Part: 4, Keys: nil}, // everything a partition holds
		pullReq{Model: "empty", Part: 1, Keys: []int64{}},
		vecPullResp{Values: []float64{1.5, nan, inf, math.Inf(-1), math.Copysign(0, -1)}, Lo: -9},
		vecPullResp{Values: nil, Lo: 0},
		vecPushReq{Model: "m", Part: 2, Indices: []int64{7, 8}, Values: []float64{0.25, -3}, Op: vecMax},
		vecPushReq{Model: "full", Part: 0, Indices: nil, Values: []float64{}, Op: vecSet},
		nbrPullResp{Nbrs: NbrBatch{Off: []int32{0, 2, 2, 3}, Adj: []int64{2, 3, -9}}},
		nbrPullResp{Nbrs: NbrBatch{Off: []int32{0, 0}, Adj: []int64{}}},
		nbrPullResp{},
		nbrPushReq{Model: "nbr", Part: 0, Tables: map[int64][]int64{8: {9}}},
		funcReq{Model: "emb", Part: 3, Name: "dot", Arg: []byte{0, 1, 2, 255}},
		funcReq{Model: "emb", Part: 0, Name: "", Arg: nil},
		funcResp{Out: []byte("result")},
		funcResp{Out: []byte{}},
		servePullReq{Model: "emb", SnapEpoch: 7, Parts: []servePart{{Part: 2, IDs: []int64{3, 1, 1 << 50}}, {Part: 0, IDs: []int64{-4}}}},
		servePullReq{Model: "emb", SnapEpoch: 1, Parts: []servePart{{Part: 5, IDs: []int64{}}, {Part: 1, IDs: []int64{9, 9}}}},
		servePullReq{},
		serveHotPullReq{Model: "emb", SnapEpoch: -1, IDs: []int64{}},
	}
}

// rowReplies is the same for the replies to row pulls and for the row
// push, which the handlers and the client write as frames and enc does
// not produce: encReply is their reference encoder.
func rowReplies() []any {
	nan, inf := math.NaN(), math.Inf(1)
	return []any{
		embPushReq{Model: "emb", Part: 0, Rows: RowBatch{IDs: []int64{1}, Dim: 2, Data: []float64{0.5, -0.5}}, Grad: true, Set: false},
		embPushReq{Model: "emb", Part: 1, Rows: RowBatch{IDs: []int64{9, 9}, Dim: 0}, Set: true},
		embPullResp{Rows: RowBatch{IDs: []int64{5, -6, 7}, Dim: 2, Data: []float64{1, nan, 2, inf, math.Copysign(0, -1), 3}}},
		embPullResp{Rows: RowBatch{IDs: []int64{}, Dim: 32, Data: []float64{}}},
		embPullResp{},
		// A sparse vector's: every row a partition holds, in shard order.
		embPullResp{Rows: RowBatch{IDs: []int64{900, 7, 12345, -3}, Dim: 1, Data: []float64{-2, nan, 4, inf}}},
		// A matrix partition of no columns answers, and is pushed, rows of no values.
		embPullResp{Rows: RowBatch{IDs: []int64{0, 1}, Dim: 0, Data: []float64{}}},
		embPushReq{Model: "w", Part: 2, Rows: RowBatch{IDs: []int64{0, 1, 2}, Dim: 0, Data: []float64{}}, Grad: true},
		embPushReq{Model: "sv", Part: 4, Rows: RowBatch{IDs: []int64{9}, Dim: 1, Data: []float64{-1}}, Set: true},
		servePullResp{Rows: RowBatch{IDs: []int64{4, 2}, Dim: 1, Data: []float64{nan, -1}}},
		servePullResp{Rows: RowBatch{IDs: []int64{3}, Dim: 3, Data: []float64{math.Copysign(0, -1), 1, -inf}}},
	}
}

// decodeAs decodes data into a fresh value of v's type and returns it.
func decodeAs(t *testing.T, data []byte, v any) any {
	t.Helper()
	out := reflect.New(reflect.TypeOf(v))
	if err := dec(data, out.Interface()); err != nil {
		t.Fatalf("dec %T: %v", v, err)
	}
	return out.Elem().Interface()
}

func TestWireBinaryRoundTrip(t *testing.T) {
	for _, msg := range append(hotMessages(), rowReplies()...) {
		b := encReply(msg)
		if b[0] != tagBin {
			t.Fatalf("%T: tag = 0x%02x, want tagBin", msg, b[0])
		}
		got := decodeAs(t, b, msg)
		if !wireEq(reflect.ValueOf(msg), reflect.ValueOf(got)) {
			t.Errorf("%T binary round trip:\n got %+v\nwant %+v", msg, got, msg)
		}
	}
}

// TestFuncReqArgAliasesWire pins the one zero-copy field of the codec:
// funcReq.Arg is a view of the request buffer (PSFunc's arg contract),
// while funcResp.Out — which outlives the client's pooled response
// buffer — is still a copy.
func TestFuncReqArgAliasesWire(t *testing.T) {
	wire := enc(funcReq{Model: "m", Name: "f", Arg: []byte{1, 2, 3}})
	var req funcReq
	if err := dec(wire, &req); err != nil {
		t.Fatal(err)
	}
	wire[len(wire)-1] = 9
	if req.Arg[2] != 9 {
		t.Fatal("funcReq.Arg was copied out of the wire buffer")
	}
	wire = enc(funcResp{Out: []byte{1, 2, 3}})
	var resp funcResp
	if err := dec(wire, &resp); err != nil {
		t.Fatal(err)
	}
	wire[len(wire)-1] = 9
	if resp.Out[2] != 3 {
		t.Fatal("funcResp.Out aliases the wire buffer")
	}
}

// TestHotMessagesEncodeBinary: every request/response type of the hot
// methods comes out of enc as a frame.
func TestHotMessagesEncodeBinary(t *testing.T) {
	msgs := append(hotMessages(), replicateReq{Method: "EmbPush", ClientID: 7, Seq: 9, Epoch: 2, Body: []byte{1}})
	seen := make(map[reflect.Type]bool)
	for _, msg := range msgs {
		seen[reflect.TypeOf(msg)] = true
		if b := enc(msg); b[0] != tagBin {
			t.Errorf("enc(%T): tag = 0x%02x, want tagBin", msg, b[0])
		}
	}
	// The pull req + 3 kinds x (pull resp, push req) + Func req/resp +
	// Replicate + the two serve read requests, less the Emb pull reply and
	// the Emb push: both are frames their senders write (rowReplies).
	if len(seen) != 10 {
		t.Errorf("covered %d hot message types, want 10", len(seen))
	}
}

// TestWireGobGoldenEquivalence checks every message against encoding/gob,
// kept as a test-only reference decoder: each is encoded both ways and the
// two decodes must match. Empty-but-non-nil slices/maps are excluded — gob
// itself flattens them to nil, so the wire is strictly more faithful there
// (covered by TestEveryMessageHasALayout).
func TestWireGobGoldenEquivalence(t *testing.T) {
	lossyForGob := func(v reflect.Value) bool {
		var walk func(v reflect.Value) bool
		walk = func(v reflect.Value) bool {
			switch v.Kind() {
			case reflect.Slice, reflect.Map:
				if !v.IsNil() && v.Len() == 0 {
					return true
				}
				if v.Kind() == reflect.Map {
					iter := v.MapRange()
					for iter.Next() {
						if walk(iter.Value()) {
							return true
						}
					}
					return false
				}
				for i := 0; i < v.Len(); i++ { // a ServePull's parts
					if walk(v.Index(i)) {
						return true
					}
				}
				return false
			case reflect.Struct:
				for i := 0; i < v.NumField(); i++ {
					if walk(v.Field(i)) {
						return true
					}
				}
				return false
			default:
				return false
			}
		}
		return walk(v)
	}
	compared := 0
	for _, msg := range append(walkedMessages(), rowReplies()...) {
		if lossyForGob(reflect.ValueOf(msg)) {
			continue
		}
		compared++
		fromGob := reflect.New(reflect.TypeOf(msg))
		if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, msg))).Decode(fromGob.Interface()); err != nil {
			t.Fatalf("gob decode %T: %v", msg, err)
		}
		fromBin := decodeAs(t, encReply(msg), msg)
		if !wireEq(fromGob.Elem(), reflect.ValueOf(fromBin)) {
			t.Errorf("%T: wire and gob decodes diverge:\n gob %+v\n bin %+v", msg, fromGob.Elem(), fromBin)
		}
	}
	if compared < 40 {
		t.Errorf("only %d messages compared with gob", compared)
	}
}

func TestWireDecodeErrors(t *testing.T) {
	good := enc(vecPushReq{Model: "m", Indices: []int64{1, 2}, Values: []float64{3, 4}})
	var req vecPushReq
	if err := dec(nil, &req); err == nil {
		t.Error("empty message: want error")
	}
	if err := dec([]byte{0x7f}, &req); err == nil {
		t.Error("unknown tag: want error")
	}
	if err := dec(good[:len(good)-3], &req); err == nil {
		t.Error("truncated message: want error")
	}
	if err := dec(append(append([]byte{}, good...), 0), &req); err == nil {
		t.Error("trailing bytes: want error")
	}
	var wrong pullReq
	if err := dec(good, &wrong); err == nil {
		t.Error("mismatched message id: want error")
	}
	// A corrupt length prefix must error out, not attempt a huge allocation.
	corrupt := []byte{tagBin, msgVecPullResp, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	var resp vecPullResp
	if err := dec(corrupt, &resp); err == nil {
		t.Error("absurd length prefix: want error")
	}
	// Row batches: cut short anywhere, or promising more ids / width /
	// values than the bytes present hold — rowBatchDecodeErrors has the
	// full table, allocation bound included.
	rowBatchDecodeErrors(t)
}

// TestClientBackoffClampsToDeadline pins the satellite bugfix: the retry
// backoff must not sleep past RetryTimeout. With an 80ms timeout the old
// code slept 5+10+20+40+80ms (returning after ~155ms because the 80ms
// sleep started just before the deadline); the clamped version returns
// at ~80ms.
func TestClientBackoffClampsToDeadline(t *testing.T) {
	tr := rpc.NewInProc()
	defer tr.Close()
	cl := NewClient(tr, "nowhere")
	cl.RetryTimeout = 80 * time.Millisecond
	start := time.Now()
	err := cl.callE(nil, "gone", "VecPull", nil, nil, 0, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, rpc.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if elapsed < 70*time.Millisecond {
		t.Fatalf("gave up after %v, before the %v retry deadline", elapsed, cl.RetryTimeout)
	}
	if elapsed > 125*time.Millisecond {
		t.Fatalf("kept retrying for %v, well past the %v deadline", elapsed, cl.RetryTimeout)
	}
}

// TestStaleLayoutRefetch pins the failover satellite: when a cached
// layout points at a server that no longer holds the partition, the
// client must drop the cache, refetch from the master, and retry once.
func TestStaleLayoutRefetch(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "mv", Size: 100})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := v.PushAdd([]int64{5, 95}, []float64{1, 2}); err != nil {
		t.Fatalf("push: %v", err)
	}
	if len(v.Meta.Parts) != 2 {
		t.Fatalf("want 2 partitions, got %d", len(v.Meta.Parts))
	}
	// Corrupt the layout as if both partitions moved: the handle and the
	// client cache share the Parts backing array, so this poisons both.
	v.Meta.Parts[0].Server, v.Meta.Parts[1].Server = v.Meta.Parts[1].Server, v.Meta.Parts[0].Server
	got, err := v.Pull([]int64{5, 95})
	if err != nil {
		t.Fatalf("pull with stale layout: %v", err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
	// The cache must hold the refetched (correct) layout again.
	cl.mu.RLock()
	meta, ok := cl.cache["mv"]
	cl.mu.RUnlock()
	if !ok {
		t.Fatal("layout missing from cache after refetch")
	}
	if meta.Parts[0].Server == v.Meta.Parts[0].Server {
		t.Fatal("cache still holds the corrupted layout")
	}
	// A genuinely missing model must not loop: the original error surfaces.
	cl.invalidate("mv")
	bogus := &Vector{c: cl, Meta: meta}
	bogus.Meta.Name = "never-created"
	if _, err := bogus.Pull([]int64{5}); err == nil {
		t.Fatal("pull of unknown model: want error")
	}
}

func TestStaleLayoutErrClassifier(t *testing.T) {
	if !staleLayoutErr(&rpc.RemoteError{Msg: `ps: model "x" partition 3 not on this server`}) {
		t.Error("partition-moved error not classified as stale layout")
	}
	if staleLayoutErr(errors.New("ps: model \"x\" partition 3 not on this server")) {
		t.Error("plain (non-remote) error classified as stale layout")
	}
	if staleLayoutErr(&rpc.RemoteError{Msg: "ps: index 5 outside partition [0,3)"}) {
		t.Error("application error misclassified as stale layout")
	}
}

// setMaxFanOut narrows the package fan-out bound for one test.
func setMaxFanOut(t *testing.T, n int) {
	old := maxFanOut
	maxFanOut = n
	t.Cleanup(func() { maxFanOut = old })
}

// TestFanOutBoundedConcurrency checks that the shared helper never runs
// more than maxFanOut partition calls at once and still visits every
// partition exactly once.
func TestFanOutBoundedConcurrency(t *testing.T) {
	setMaxFanOut(t, 3)
	c := &Client{}
	parts := make([]Partition, 17)
	var inFlight, peak, calls atomic.Int64
	seen := make([]atomic.Int64, len(parts))
	err := c.fanOut(parts, func(i int, p Partition, cancel <-chan struct{}) error {
		n := inFlight.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		seen[i].Add(1)
		calls.Add(1)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatalf("fanOut: %v", err)
	}
	if calls.Load() != int64(len(parts)) {
		t.Fatalf("visited %d partitions, want %d", calls.Load(), len(parts))
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("partition %d visited %d times", i, seen[i].Load())
		}
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds maxFanOut=3", p)
	}
}

// TestFanOutFirstErrorWins checks error semantics: the helper returns
// the first error reported and skips unclaimed partitions after it.
func TestFanOutFirstErrorWins(t *testing.T) {
	setMaxFanOut(t, 1) // sequential: deterministic claim order
	c := &Client{}
	parts := make([]Partition, 8)
	boom := errors.New("boom")
	var after atomic.Int64
	err := c.fanOut(parts, func(i int, p Partition, cancel <-chan struct{}) error {
		if i == 2 {
			return boom
		}
		if i > 2 {
			after.Add(1)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if after.Load() != 0 {
		t.Fatalf("%d partitions ran after the failure with a single worker", after.Load())
	}
}

// TestParallelFanOutStress hammers one small cluster from many
// goroutines across every model kind. Run with -race (CI does) to check
// the parallel fan-out helper and the pooled wire buffers for data
// races; the final pull checks no update was lost or duplicated.
func TestParallelFanOutStress(t *testing.T) {
	_, cl := newTestCluster(t, 3)
	const goroutines = 12
	const iters = 20
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "sv", Size: 64, Partitions: 6})
	if err != nil {
		t.Fatalf("create vector: %v", err)
	}
	s, err := cl.CreateSparseVector("ss")
	if err != nil {
		t.Fatalf("create sparse: %v", err)
	}
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "se", Dim: 4, Partitions: 5})
	if err != nil {
		t.Fatalf("create emb: %v", err)
	}
	idx := []int64{0, 7, 31, 32, 63}
	ones := []float64{1, 1, 1, 1, 1}
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := v.PushAdd(idx, ones); err != nil {
					errCh <- err
					return
				}
				if _, err := v.Pull(idx); err != nil {
					errCh <- err
					return
				}
				if err := s.PushAdd(map[int64]float64{int64(g): 1, int64(100 + i): 1}); err != nil {
					errCh <- err
					return
				}
				if err := e.PushAdd(map[int64][]float64{int64(g): {1, 2, 3, 4}}); err != nil {
					errCh <- err
					return
				}
				if _, err := e.Pull([]int64{int64(g), int64((g + 1) % goroutines)}); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("stress worker: %v", err)
	}
	got, err := v.Pull(idx)
	if err != nil {
		t.Fatalf("final pull: %v", err)
	}
	for i, x := range got {
		if x != goroutines*iters {
			t.Fatalf("index %d = %v after stress, want %d", idx[i], x, goroutines*iters)
		}
	}
	sm, err := s.Pull([]int64{0, 1, 2})
	if err != nil {
		t.Fatalf("sparse pull: %v", err)
	}
	for k, x := range sm {
		if k < goroutines && x != iters {
			t.Fatalf("sparse[%d] = %v, want %d", k, x, iters)
		}
	}
}

// TestWireBufferPoolReuse checks that pooled encode buffers are not
// corrupted by interleaved encodes from multiple goroutines.
func TestWireBufferPoolReuse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := make([]float64, 256)
			for i := range vals {
				vals[i] = float64(g*1000 + i)
			}
			for i := 0; i < 200; i++ {
				b := enc(vecPushReq{Model: "p", Part: g, Values: vals, Op: vecAdd})
				var out vecPushReq
				if err := dec(b, &out); err != nil {
					t.Errorf("dec: %v", err)
					return
				}
				if out.Part != g || out.Values[0] != float64(g*1000) {
					t.Errorf("cross-goroutine buffer corruption: %+v", out)
					return
				}
				rpc.PutBuf(b)
			}
		}(g)
	}
	wg.Wait()
}

// TestWireBinarySizePredictable sanity-checks the wire sizes the
// comm-byte counters report: the binary encoding of an n-element pull
// response is 8n plus a few header bytes (no type descriptors, no
// per-value expansion), and it never regresses meaningfully against gob
// even on dense float payloads where gob's trailing-zero trimming is at
// its best. On small messages — the fan-out hot case — binary must beat
// gob outright, because gob re-sends type descriptors on every message
// (each message gets a fresh encoder).
func TestWireBinarySizePredictable(t *testing.T) {
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = float64(i) * 0.1
	}
	msg := vecPullResp{Values: vals, Lo: 0}
	bin := enc(msg)
	gb := gobBytes(t, msg)
	if lo, hi := 8*len(vals), 8*len(vals)+24; len(bin) < lo || len(bin) > hi {
		t.Fatalf("binary encoding %dB outside expected [%d,%d]", len(bin), lo, hi)
	}
	if len(bin) > len(gb)+len(gb)/50 {
		t.Fatalf("binary encoding (%dB) regresses >2%% vs gob (%dB)", len(bin), len(gb))
	}
	if !bytes.Equal(bin[:2], []byte{tagBin, msgVecPullResp}) {
		t.Fatalf("unexpected header % x", bin[:2])
	}
	small := pullReq{Model: "m", Part: 1, Keys: []int64{10, 11, 12}}
	sb := enc(small)
	sg := gobBytes(t, small)
	if len(sb) >= len(sg) {
		t.Fatalf("small message: binary %dB not smaller than gob %dB", len(sb), len(sg))
	}
}

// TestCommCountersConsistent checks the paper's communication-volume
// accounting stays truthful under the new codec: client-observed sent
// bytes must equal the encoded request sizes, and a pull's recv bytes
// must match the response encoding.
func TestCommCountersConsistent(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "cc", Size: 100})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	cl.ResetComm()
	idx := []int64{1, 2, 3, 50, 99}
	vals := []float64{1, 2, 3, 4, 5}
	if err := v.PushAdd(idx, vals); err != nil {
		t.Fatalf("push: %v", err)
	}
	sent, recv := cl.Comm()
	if sent == 0 {
		t.Fatal("push recorded zero sent bytes")
	}
	if recv != 0 {
		t.Fatalf("push recorded %d recv bytes, want 0 (empty responses)", recv)
	}
	cl.ResetComm()
	if _, err := v.Pull(idx); err != nil {
		t.Fatalf("pull: %v", err)
	}
	sent, recv = cl.Comm()
	if sent == 0 || recv == 0 {
		t.Fatalf("pull comm counters sent=%d recv=%d, want both > 0", sent, recv)
	}
	// Each pull response carries ≤ len(idx) float64s plus framing; the
	// binary codec should keep recv well under gob's ~25B/element.
	if recv > int64(len(idx)*8*2*len(v.Meta.Parts)+64*len(v.Meta.Parts)) {
		t.Fatalf("recv=%dB implausibly large for %d elements", recv, len(idx))
	}
}

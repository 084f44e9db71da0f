package ps

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"psgraph/internal/dfs"
	"psgraph/internal/rpc"
)

// newFaultyCluster builds a cluster over a fault-injecting transport so
// tests can drop responses at exact points. Each test gets its own
// transport, so symbolic endpoint names never collide.
func newFaultyCluster(t *testing.T, servers int, prefix string) (*Cluster, *rpc.Faulty) {
	t.Helper()
	f := rpc.NewFaulty(rpc.NewInProc(), 1)
	c, err := NewCluster(ClusterConfig{NumServers: servers, Transport: f, NamePrefix: prefix})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, f
}

// assertExactlyOnce checks the ledger after a run with injected response
// drops: every logical client mutation was applied exactly once, and at
// least one retry was answered from the dedup window.
func assertExactlyOnce(t *testing.T, c *Cluster, agent *Client) {
	t.Helper()
	applied, replayed, err := c.MutationTotals()
	if err != nil {
		t.Fatal(err)
	}
	sent, retried := agent.MutationStats()
	if applied != sent {
		t.Fatalf("applied %d mutations for %d logical sends (double-apply!)", applied, sent)
	}
	if replayed == 0 {
		t.Fatalf("no replays despite injected response drops (retried=%d)", retried)
	}
}

// TestResponseDropVecOpsExactlyOnce drops the response of one push per
// vector operator and asserts the retried push is applied exactly once:
// the defining failure mode is PushAdd landing twice.
func TestResponseDropVecOpsExactlyOnce(t *testing.T) {
	c, f := newFaultyCluster(t, 1, "drop-vec")
	agent := c.NewClient()
	srv := c.ServerAddrs()[0]
	v, err := agent.CreateDenseVector(DenseVectorSpec{Name: "v", Size: 8})
	if err != nil {
		t.Fatal(err)
	}

	f.DropResponses(srv, 1)
	if err := v.PushAdd([]int64{0}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	f.DropResponses(srv, 1)
	if err := v.PushSet([]int64{1}, []float64{5}); err != nil {
		t.Fatal(err)
	}
	f.DropResponses(srv, 1)
	if err := v.PushMin([]int64{1}, []float64{3}); err != nil {
		t.Fatal(err)
	}
	f.DropResponses(srv, 1)
	if err := v.PushMax([]int64{0}, []float64{0.5}); err != nil {
		t.Fatal(err)
	}

	got, err := v.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	// A double-applied PushAdd would read 2, not 1.
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("vector after dropped-response pushes: %v", got[:2])
	}
	assertExactlyOnce(t, c, agent)
}

// TestResponseDropSparseNbrMatExactlyOnce covers the remaining push
// handles: sparse add (double-apply doubles the value), neighbor append
// (double-apply duplicates the adjacency list), and matrix add. The sparse
// vector and the matrix are embeddings, so theirs are EmbPush retries.
func TestResponseDropSparseNbrMatExactlyOnce(t *testing.T) {
	c, f := newFaultyCluster(t, 1, "drop-snm")
	agent := c.NewClient()
	srv := c.ServerAddrs()[0]

	s, err := agent.CreateSparseVector("s")
	if err != nil {
		t.Fatal(err)
	}
	f.DropResponses(srv, 1)
	if err := s.PushAdd([]int64{7}, []float64{2.5}); err != nil {
		t.Fatal(err)
	}
	sv, err := s.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	if sv[7] != 2.5 {
		t.Fatalf("sparse value = %v, want 2.5", sv[7])
	}

	nb, err := agent.CreateNeighbor("n")
	if err != nil {
		t.Fatal(err)
	}
	f.DropResponses(srv, 1)
	if err := nb.Push(map[int64][]int64{1: {2, 3}}); err != nil {
		t.Fatal(err)
	}
	tables, err := nb.Pull([]int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[1]) != 2 {
		t.Fatalf("neighbor list %v, want 2 entries (double-applied append?)", tables[1])
	}

	m, err := agent.CreateMatrix(MatrixSpec{Name: "m", Rows: 2, Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.DropResponses(srv, 1)
	if err := m.PushAdd([]float64{1, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	mv, err := m.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	if mv[0] != 1 || mv[3] != 1 {
		t.Fatalf("matrix after dropped-response add: %v", mv)
	}
	assertExactlyOnce(t, c, agent)
}

// TestResponseDropEmbeddingExactlyOnce exercises the embedding update
// path (the Adam/SGD server-side optimizer step the issue calls out).
func TestResponseDropEmbeddingExactlyOnce(t *testing.T) {
	c, f := newFaultyCluster(t, 1, "drop-emb")
	agent := c.NewClient()
	srv := c.ServerAddrs()[0]
	e, err := agent.CreateEmbedding(EmbeddingSpec{Name: "e", Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	f.DropResponses(srv, 1)
	if err := e.PushAdd(map[int64][]float64{3: {1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	rows, err := e.Pull([]int64{3})
	if err != nil {
		t.Fatal(err)
	}
	if rows[3][0] != 1 || rows[3][3] != 4 {
		t.Fatalf("embedding row after dropped-response push: %v", rows[3])
	}
	assertExactlyOnce(t, c, agent)
}

// TestPublishSnapshotRetryPublishesOnce: a PublishSnapshot whose reply is
// lost is retried under the same sequence, and the retry gets the layout
// the first call published — not a second generation seeded and installed
// behind it.
func TestPublishSnapshotRetryPublishesOnce(t *testing.T) {
	c, f := newFaultyCluster(t, 2, "drop-publish")
	agent := c.NewClient()
	if _, err := agent.CreateEmbedding(EmbeddingSpec{Name: "e", Dim: 2}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seeds := make(map[int]int) // partition → ServeSeed calls
	for addr, srv := range c.servers {
		if err := c.Transport.Register(addr, func(method string, body []byte) ([]byte, error) {
			var req serveSeedReq
			if method == "ServeSeed" && dec(body, &req) == nil {
				mu.Lock()
				seeds[req.Part]++
				mu.Unlock()
			}
			return srv.Handle(method, body)
		}); err != nil {
			t.Fatal(err)
		}
	}
	f.DropResponses(c.MasterAddr, 1)
	sl, err := agent.PublishSnapshot("e")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := c.Master.GetServeLayout("e")
	if err != nil {
		t.Fatal(err)
	}
	if sl.SnapEpoch != 1 || cur.SnapEpoch != 1 {
		t.Fatalf("one publication answered with generation %d, current %d; want 1 and 1", sl.SnapEpoch, cur.SnapEpoch)
	}
	if len(seeds) != 2 || seeds[0] != 1 || seeds[1] != 1 {
		t.Fatalf("ServeSeed calls per partition: %v, want one each", seeds)
	}
}

// dedup-test-inc increments element 0 of the partition it is called on,
// or of the co-located partition of the model named by arg.
func init() {
	RegisterFunc("dedup-test-inc", func(s *Store, model string, part int, arg []byte) ([]byte, error) {
		if len(arg) > 0 {
			model = string(arg)
		}
		pv, err := s.Partition(model, part)
		if err != nil {
			return nil, err
		}
		data, _, unlock := pv.VecLock()
		data[0]++
		unlock()
		return []byte("ok"), nil
	})
}

// TestResponseDropPSFuncExactlyOnce: a psFunc with a side effect must
// run once even when its response is dropped and the call retried; the
// replay must still return the original output bytes.
func TestResponseDropPSFuncExactlyOnce(t *testing.T) {
	c, f := newFaultyCluster(t, 1, "drop-func")
	agent := c.NewClient()
	srv := c.ServerAddrs()[0]
	if _, err := agent.CreateDenseVector(DenseVectorSpec{Name: "fv", Size: 4}); err != nil {
		t.Fatal(err)
	}
	f.DropResponses(srv, 1)
	out, err := agent.CallFunc("fv", "dedup-test-inc", func(Partition) []byte { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || string(out[0]) != "ok" {
		t.Fatalf("replayed psFunc output = %q", out)
	}
	v, err := agent.Vector("fv")
	if err != nil {
		t.Fatal(err)
	}
	vals, err := v.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 1 {
		t.Fatalf("psFunc side effect ran %v times, want 1", vals[0])
	}
	assertExactlyOnce(t, c, agent)
}

// TestDedupDisabledDoubleApplies is the negative control: with the
// envelope switched off, a dropped response plus retry double-applies,
// which is exactly the defect the window exists to prevent.
func TestDedupDisabledDoubleApplies(t *testing.T) {
	SetDedup(false)
	defer SetDedup(true)
	c, f := newFaultyCluster(t, 1, "nodedup")
	agent := c.NewClient()
	srv := c.ServerAddrs()[0]
	v, err := agent.CreateDenseVector(DenseVectorSpec{Name: "v", Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	f.DropResponses(srv, 1)
	if err := v.PushAdd([]int64{0}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	got, err := v.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatalf("without dedup, dropped-response PushAdd applied %v times, want the double-apply (2)", got[0])
	}
	applied, _, err := c.MutationTotals()
	if err != nil {
		t.Fatal(err)
	}
	sent, _ := agent.MutationStats()
	if applied <= sent {
		t.Fatalf("negative control: applied %d <= sent %d, expected over-apply", applied, sent)
	}
}

// TestDedupEnvelopeTags: epoch 0 travels in the tagSeqE envelope like
// any other epoch, and the retired epoch-less 0x02 tag is no envelope at
// all — the server rejects it as an unknown wire format without
// applying anything.
func TestDedupEnvelopeTags(t *testing.T) {
	payload := enc(vecPushReq{Model: "v", Part: 0, Indices: []int64{0}, Values: []float64{1}, Op: vecAdd})
	b := wrapDedup(7, 9, 0, payload)
	if b[0] != tagSeqE {
		t.Fatalf("epoch-0 envelope tag = 0x%02x, want tagSeqE", b[0])
	}
	id, seq, epoch, rest, ok := unwrapDedup(b)
	if !ok || id != 7 || seq != 9 || epoch != 0 || string(rest) != string(payload) {
		t.Fatalf("unwrap = (%d, %d, %d, %d bytes, %v)", id, seq, epoch, len(rest), ok)
	}
	old := append([]byte{0x02, 7, 9}, payload...)
	if _, _, _, _, ok := unwrapDedup(old); ok {
		t.Fatal("retired 0x02 envelope still unwraps")
	}
	s := NewServer("s0", dfs.NewDefault())
	if _, err := s.Handle("VecPush", old); err == nil || !strings.Contains(err.Error(), "unknown wire format tag 0x02") {
		t.Fatalf("0x02 frame: err = %v, want unknown wire format tag", err)
	}
}

// FuzzDedupEnvelope: a tagSeqE envelope comes from another process.
// unwrapDedup and replaySafeCall never panic on hostile bytes; an envelope
// wrapDedup made unwraps to what went in; and what unwraps is the tail of
// the bytes it came from, which wraps and unwraps again unchanged.
func FuzzDedupEnvelope(f *testing.F) {
	safe := enc(funcReq{Model: "e", Name: "dedup-test-row"})
	if !replaySafeCall("Func", safe) || replaySafeCall("EmbPush", safe) {
		f.Fatal("the replay-safe seed is not recognised as one")
	}
	push := enc(vecPushReq{Model: "v", Indices: []int64{0}, Values: []float64{1}, Op: vecAdd})
	f.Add(uint64(7), uint64(9), int64(0), push)
	f.Add(uint64(1)<<63, uint64(math.MaxUint64), int64(-1), safe)
	f.Add(uint64(0), uint64(0), int64(math.MaxInt64), wrapDedup(1, 2, 3, safe))
	// A cut varint, and a funcReq whose model name claims 2⁶⁴−1 bytes.
	f.Add(uint64(1), uint64(1), int64(1), []byte{tagSeqE, 0x80, 0x80})
	f.Add(uint64(2), uint64(2), int64(2), []byte{tagBin, msgFuncReq, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, id, seq uint64, epoch int64, body []byte) {
		safe := replaySafeCall("Func", body)
		if gotID, gotSeq, gotEpoch, rest, ok := unwrapDedup(body); ok {
			if len(rest) > len(body)-4 || !bytes.Equal(rest, body[len(body)-len(rest):]) {
				t.Fatalf("unwrapped %d payload bytes that are not the tail of %x", len(rest), body)
			}
			replaySafeCall("Func", rest)
			again := wrapDedup(gotID, gotSeq, gotEpoch, rest)
			if i, s, e, r, ok := unwrapDedup(again); !ok || i != gotID || s != gotSeq || e != gotEpoch || !bytes.Equal(r, rest) {
				t.Fatalf("re-wrapped envelope of %x unwraps to (%d, %d, %d, %x, %v)", body, i, s, e, r, ok)
			}
			rpc.PutBuf(again)
		}
		b := wrapDedup(id, seq, epoch, body)
		gotID, gotSeq, gotEpoch, rest, ok := unwrapDedup(b)
		if !ok || gotID != id || gotSeq != seq || gotEpoch != epoch || !bytes.Equal(rest, body) {
			t.Fatalf("wrapDedup(%d, %d, %d, %x) unwraps to (%d, %d, %d, %x, %v)", id, seq, epoch, body, gotID, gotSeq, gotEpoch, rest, ok)
		}
		if replaySafeCall("Func", rest) != safe {
			t.Fatalf("the envelope changed whether %x is replay-safe", body)
		}
		rpc.PutBuf(b)
	})
}

// TestDedupWindowEviction checks the recency-window semantics directly:
// a sequence still inside the window replays; one evicted past the
// window re-executes.
func TestDedupWindowEviction(t *testing.T) {
	old := dedupWindowSize.Load()
	dedupWindowSize.Store(4)
	defer dedupWindowSize.Store(old)

	tbl := newDedupTable()
	var execs atomic.Int64
	exec := func(bool) ([]byte, error) {
		execs.Add(1)
		return []byte("r"), nil
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if _, err := tbl.handle(1, seq, false, exec); err != nil {
			t.Fatal(err)
		}
	}
	if execs.Load() != 10 {
		t.Fatalf("execs = %d, want 10", execs.Load())
	}
	// seq 10 is in the window: replayed, not re-executed.
	out, err := tbl.handle(1, 10, false, exec)
	if err != nil || string(out) != "r" {
		t.Fatalf("replay = %q, %v", out, err)
	}
	if execs.Load() != 10 || tbl.Replayed() != 1 {
		t.Fatalf("after in-window replay: execs=%d replayed=%d", execs.Load(), tbl.Replayed())
	}
	// seq 1 was evicted (maxSeq 10, window 4): re-executes.
	if _, err := tbl.handle(1, 1, false, exec); err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 11 {
		t.Fatalf("evicted sequence re-executed %d times total, want 11", execs.Load())
	}
	// Distinct clients have independent windows.
	if _, err := tbl.handle(2, 10, false, exec); err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 12 {
		t.Fatalf("cross-client isolation broken: execs=%d", execs.Load())
	}
}

// TestFanOutCancelEarlyExit: when one partition call fails outright, a
// sibling parked in the retry backoff against an unreachable server must
// exit on the cancel channel instead of sleeping out RetryTimeout.
func TestFanOutCancelEarlyExit(t *testing.T) {
	tr := rpc.NewInProc()
	if err := tr.Register("alive", func(string, []byte) ([]byte, error) {
		return nil, errors.New("hard failure")
	}); err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, "master")
	c.RetryTimeout = 5 * time.Second

	parts := []Partition{{Server: "dead"}, {Server: "alive"}}
	start := time.Now()
	err := c.fanOut(parts, func(i int, p Partition, cancel <-chan struct{}) error {
		if p.Server == "alive" {
			// Give the sibling time to enter its retry backoff first.
			time.Sleep(50 * time.Millisecond)
		}
		return c.callE(cancel, p.Server, "Ping", nil, nil, 0, nil)
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fanOut succeeded against a dead server")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("fanOut took %v: loser did not exit early on cancel", elapsed)
	}
}

// TestRestoreRejectsCorruptCheckpoint: a bit-flip in the published
// snapshot must surface as ErrCorruptCheckpoint, not load garbage.
func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	fsys := dfs.NewDefault()
	c, err := NewCluster(ClusterConfig{NumServers: 1, FS: fsys, NamePrefix: "corrupt1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	agent := c.NewClient()
	v, err := agent.CreateDenseVector(DenseVectorSpec{Name: "cv", Size: 8, ConsistentRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.SetAll([]float64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := agent.Checkpoint("cv"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.CorruptFile(CheckpointPath("cv", 0), 9); err != nil {
		t.Fatal(err)
	}
	err = agent.RestoreModel("cv")
	if err == nil {
		t.Fatal("restore of corrupt checkpoint succeeded")
	}
	if !strings.Contains(err.Error(), corruptCheckpointMsg) {
		t.Fatalf("error does not identify corruption: %v", err)
	}
}

// TestRestoreFallsBackToPreviousGeneration: with two published
// generations and a corrupt latest, RestoreModels must land on the
// previous fence's values for every partition — never a mix.
func TestRestoreFallsBackToPreviousGeneration(t *testing.T) {
	fsys := dfs.NewDefault()
	c, err := NewCluster(ClusterConfig{NumServers: 2, FS: fsys, NamePrefix: "corrupt2"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	agent := c.NewClient()
	v, err := agent.CreateDenseVector(DenseVectorSpec{Name: "gv", Size: 8, ConsistentRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	gen1 := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	if err := v.SetAll(gen1); err != nil {
		t.Fatal(err)
	}
	if err := agent.Checkpoint("gv"); err != nil {
		t.Fatal(err)
	}
	if err := v.SetAll([]float64{2, 2, 2, 2, 2, 2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := agent.Checkpoint("gv"); err != nil {
		t.Fatal(err)
	}
	// Tear the latest generation of one partition; .prev still holds gen1.
	if err := fsys.CorruptFile(CheckpointPath("gv", 0), 5); err != nil {
		t.Fatal(err)
	}
	if err := v.SetAll([]float64{9, 9, 9, 9, 9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := agent.RestoreModels([]string{"gv"}); err != nil {
		t.Fatal(err)
	}
	got, err := v.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range got {
		if x != 1 {
			t.Fatalf("element %d = %v after fallback restore, want gen1 value 1 (mixed fences?): %v", i, x, got)
		}
	}
}

// TestTornWriteNeverPublishes: dying between prepare and publish leaves
// the previous checkpoint untouched — the .tmp staging file is not
// visible to restore.
func TestTornWriteNeverPublishes(t *testing.T) {
	fsys := dfs.NewDefault()
	srv := NewServer("s0", fsys)
	if err := srv.createPart(createPartReq{
		Meta: ModelMeta{Name: "t", Kind: DenseVector, Size: 4,
			Parts: []Partition{{Server: "s0", Lo: 0, Hi: 4}}},
		Part: 0,
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.checkpoint(ckptReq{Model: "t", Part: 0}); err != nil {
		t.Fatal(err)
	}
	// Prepare a second snapshot but "crash" before publishing.
	if err := srv.ckptPrepare(ckptReq{Model: "t", Part: 0}); err != nil {
		t.Fatal(err)
	}
	if !fsys.Exists(checkpointTmpPath("t", 0)) {
		t.Fatal("staging file missing after prepare")
	}
	// The published checkpoint still verifies.
	if _, err := fsys.ReadFileSummed(CheckpointPath("t", 0)); err != nil {
		t.Fatalf("published checkpoint unreadable after torn prepare: %v", err)
	}
}

// TestWindowForgetsRoutingRejection pins the rule the rebalance smoke
// depends on: a push (or psFunc) that reaches a migration destination
// before the partition does is rejected without writing anything, and
// the retry — the SAME envelope, by design — must execute once the
// partition has arrived instead of replaying the rejection out of the
// window. Later retries of it replay the ack as usual. The same holds for
// a psFunc whose own partition is here but whose co-located partner is
// not yet — a server restored model by model after a restart — and for a
// push to an index a split has narrowed away.
func TestWindowForgetsRoutingRejection(t *testing.T) {
	meta := ModelMeta{Name: "late", Kind: DenseVector, Size: 8,
		Parts: []Partition{{Server: "s0", Lo: 0, Hi: 8}}}
	for _, tc := range []struct {
		method string
		body   []byte
	}{
		{"VecPush", enc(vecPushReq{Model: "late", Part: 0, Indices: []int64{0}, Values: []float64{1}, Op: vecAdd})},
		{"Func", enc(funcReq{Model: "late", Part: 0, Name: "dedup-test-inc"})},
		{"Func", enc(funcReq{Model: "anchor", Part: 0, Name: "dedup-test-inc", Arg: []byte("late")})},
	} {
		t.Run(tc.method, func(t *testing.T) {
			s := NewServer("s0", dfs.NewDefault())
			anchor := meta
			anchor.Name = "anchor"
			if _, err := s.Handle("CreatePart", enc(createPartReq{Meta: anchor, Part: 0})); err != nil {
				t.Fatal(err)
			}
			envelope := wrapDedup(7, 1, 0, tc.body)
			_, err := s.Handle(tc.method, envelope)
			if err == nil || !strings.Contains(err.Error(), "not on this server") {
				t.Fatalf("call before the partition exists: err = %v, want a not-on-this-server rejection", err)
			}
			if _, err := s.Handle("CreatePart", enc(createPartReq{Meta: meta, Part: 0})); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := s.Handle(tc.method, envelope); err != nil {
					t.Fatalf("retry %d after the partition arrived: %v", i, err)
				}
			}
			out, err := s.Handle("VecPull", enc(pullReq{Model: "late", Part: 0, Keys: []int64{0}}))
			if err != nil {
				t.Fatal(err)
			}
			var r vecPullResp
			if err := dec(out, &r); err != nil {
				t.Fatal(err)
			}
			if st := s.stats(); r.Values[0] != 1 || st.MutApplied != 1 || st.MutReplayed != 1 {
				t.Fatalf("value %v, applied %d, replayed %d; want one application and one replayed ack",
					r.Values[0], st.MutApplied, st.MutReplayed)
			}
		})
	}
	t.Run("range-moved", func(t *testing.T) {
		nbr := ModelMeta{Name: "nbr", Kind: Neighbor, Scheme: SchemeRange, Size: 8,
			Parts: []Partition{{Server: "s0", Lo: 0, Hi: 8}}}
		s := NewServer("s0", dfs.NewDefault())
		for _, tc := range []struct {
			meta   ModelMeta
			method string
			body   []byte
		}{
			{meta, "VecPush", enc(vecPushReq{Model: "late", Part: 0, Indices: []int64{6}, Values: []float64{1}, Op: vecAdd})},
			{nbr, "NbrPush", enc(nbrPushReq{Model: "nbr", Part: 0, Tables: map[int64][]int64{6: {1}}})},
		} {
			if _, err := s.Handle("CreatePart", enc(createPartReq{Meta: tc.meta, Part: 0})); err != nil {
				t.Fatal(err)
			}
			e, err := s.store.get(tc.meta.Name, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.splitAt(4); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Handle(tc.method, wrapDedup(7, 1, 0, tc.body)); !IsRangeMovedErr(err) {
				t.Fatalf("%s to a split-off key: err = %v, want a range-moved rejection", tc.method, err)
			}
			if _, n := windowReplyBytes(s); n != 0 {
				t.Fatalf("the window keeps %d entries after a range-moved %s, want none", n, tc.method)
			}
		}
	})
}

// rowRuns counts the runs of dedup-test-row, a replay-safe psFunc that
// answers with row 1 of the embedding partition it is called on,
// materialising the row on first use as core.lineDot does.
var rowRuns atomic.Int64

func init() {
	RegisterReplaySafeFunc("dedup-test-row", func(s *Store, model string, part int, _ []byte) ([]byte, error) {
		pv, err := s.Partition(model, part)
		if err != nil {
			return nil, err
		}
		rowRuns.Add(1)
		return AppendArgF64s(nil, pv.Row(1)), nil
	})
}

// windowReplyBytes sums the reply bytes srv's dedup window holds, and
// counts its entries.
func windowReplyBytes(srv *Server) (bytes, entries int) {
	srv.dedup.mu.Lock()
	defer srv.dedup.mu.Unlock()
	for _, w := range srv.dedup.clients {
		for _, e := range w.entries {
			bytes += len(e.Resp)
			entries++
		}
	}
	return bytes, entries
}

// wantRow is what dedup-test-row answers on the server at addr now.
func wantRow(t *testing.T, c *Cluster, addr, model string) []byte {
	t.Helper()
	pv, err := c.servers[addr].store.Partition(model, 0)
	if err != nil {
		t.Fatal(err)
	}
	return AppendArgF64s(nil, pv.Row(1))
}

// TestWindowKeepsNoReplaySafeReplies: the window remembers every
// replay-safe call it served — sequence and outcome — but none of their
// replies, while a psFunc that is not replay-safe keeps its reply as
// before.
func TestWindowKeepsNoReplaySafeReplies(t *testing.T) {
	c, _ := newFaultyCluster(t, 1, "keep-none")
	agent := c.NewClient()
	if _, err := agent.CreateEmbedding(EmbeddingSpec{Name: "e", Dim: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := agent.CreateDenseVector(DenseVectorSpec{Name: "v", Size: 4}); err != nil {
		t.Fatal(err)
	}
	srv := c.servers[c.ServerAddrs()[0]]
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := agent.CallFunc("e", "dedup-test-row", func(Partition) []byte { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if b, entries := windowReplyBytes(srv); b != 0 || entries != n {
		t.Fatalf("window after %d replay-safe calls: %d reply bytes in %d entries, want 0 in %d", n, b, entries, n)
	}
	for i := 0; i < n; i++ {
		if _, err := agent.CallFunc("v", "dedup-test-inc", func(Partition) []byte { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	want := n * len(enc(funcResp{Out: []byte("ok")}))
	if b, _ := windowReplyBytes(srv); b != want {
		t.Fatalf("window keeps %d reply bytes of %d cached-reply calls, want %d", b, n, want)
	}
}

// TestReplaySafeCallPeek: the retention decision reads the psFunc's name
// off the frame — no decode, no allocation, which every Func call would
// otherwise pay — and anything it cannot read is not replay-safe.
func TestReplaySafeCallPeek(t *testing.T) {
	safe := enc(funcReq{Model: "e", Part: 3, Name: "dedup-test-row", Arg: []byte{1, 2, 3}})
	for _, tc := range []struct {
		method string
		body   []byte
		want   bool
	}{
		{"Func", safe, true},
		{"VecPush", safe, false},
		{"Func", enc(funcReq{Model: "v", Name: "dedup-test-inc"}), false},
		{"Func", enc(funcReq{Model: "e", Name: "not-registered"}), false},
		{"Func", append([]byte{0x00}, safe[1:]...), false}, // 0x00 is an unknown tag
		{"Func", safe[:6], false},
	} {
		if got := replaySafeCall(tc.method, tc.body); got != tc.want {
			t.Errorf("replaySafeCall(%s, %x) = %v, want %v", tc.method, tc.body, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { replaySafeCall("Func", safe) }); n != 0 {
		t.Fatalf("replaySafeCall allocates %v times per call", n)
	}
}

// BenchmarkDedupWindowFull is one client's mutations to one server past
// the window (4,096 sequences): every call inserts into a full window.
// ~0.4 µs per call on a 2-vCPU host; while every insert past the window
// swept all of it, ~57 µs over 20 k calls and ~69 µs over 200 k.
func BenchmarkDedupWindowFull(b *testing.B) {
	tbl := newDedupTable()
	exec := func(bool) ([]byte, error) { return nil, nil }
	seq := uint64(0)
	for ; seq < 2*uint64(dedupWindowSize.Load()); seq++ {
		tbl.handle(1, seq+1, false, exec)
	}
	for b.Loop() {
		seq++
		tbl.handle(1, seq, false, exec)
	}
}

package ps

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"psgraph/internal/rpc"
)

// rangeBounces counts the VecPull and VecPush calls a server answered and
// those it rejected as range-moved.
type rangeBounces struct {
	rpc.Transport
	answered, moved atomic.Int64
}

func (b *rangeBounces) Call(addr, method string, body []byte) ([]byte, error) {
	out, err := b.Transport.Call(addr, method, body)
	if method == "VecPull" || method == "VecPush" {
		if err == nil {
			b.answered.Add(1)
		} else if IsRangeMovedErr(err) {
			b.moved.Add(1)
		}
	}
	return out, err
}

// take returns the counts since the last take.
func (b *rangeBounces) take() (answered, moved int64) {
	return b.answered.Swap(0), b.moved.Swap(0)
}

// TestVecKeysAcrossSplitMoveAndPromotion: keys made before a failover
// promotion, a move and a partition split answer every pull and push
// exactly as with no layout change, through a client whose layout no other
// call refreshes. A promotion and a move keep every range: the keys stay as
// they are and each call follows its partition to the new address without
// a bounce. A split costs stale keys one range-moved bounce a call; the
// calls after it route by the rebuilt keys, with no bounce and one call a
// non-empty bucket. Ascending keys (windows) and shuffled ones (copied
// buckets) both.
func TestVecKeysAcrossSplitMoveAndPromotion(t *testing.T) {
	tr := &rangeBounces{Transport: rpc.NewInProc()}
	c, err := NewCluster(ClusterConfig{NumServers: 3, Transport: tr, NamePrefix: "vk", Replicate: true,
		LeaseDuration: 60 * time.Millisecond, RestartDelay: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	const size = 900
	v, err := c.NewClient().CreateDenseVector(DenseVectorSpec{Name: "k", Size: size, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, size)
	for i := range want {
		want[i] = float64(i) + 0.5
	}
	if err := v.SetAll(want); err != nil {
		t.Fatal(err)
	}
	stale, err := c.NewClient().Vector("k")
	if err != nil {
		t.Fatal(err)
	}
	var asc []int64
	for i := int64(1); i < size; i += 3 {
		asc = append(asc, i)
	}
	shuffled := slices.Clone(asc)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	keys := [][]int64{asc, shuffled}
	var vks []*VecKeys
	for _, ids := range keys {
		vks = append(vks, stale.Keys(ids))
	}
	ones := make([]float64, len(asc))
	for i := range ones {
		ones[i] = float64(i%7) + 1
	}
	// round pulls and pushes through each column's keys and checks every
	// pull against want, which takes every push. With dropCache, the
	// client forgets its layout before each call, so the call routes by the
	// handle's own snapshot, from before any change. It returns the calls
	// answered and the bounces the round cost.
	round := func(what string, dropCache bool) (answered, moved int64) {
		t.Helper()
		tr.take()
		for k, vk := range vks {
			if dropCache {
				stale.c.invalidate("k")
			}
			got, err := vk.Pull()
			if err != nil {
				t.Fatalf("%s: pull: %v", what, err)
			}
			for i, id := range keys[k] {
				if got[i] != want[id] {
					t.Fatalf("%s: key column %d position %d (id %d) = %v, want %v", what, k, i, id, got[i], want[id])
				}
			}
			if dropCache {
				stale.c.invalidate("k")
			}
			if err := vk.PushAdd(ones); err != nil {
				t.Fatalf("%s: push: %v", what, err)
			}
			for i, id := range keys[k] {
				want[id] += ones[i]
			}
		}
		return tr.take()
	}
	if answered, moved := round("before any change", false); answered != 12 || moved != 0 {
		t.Fatalf("before any change: %d calls answered, %d bounces, want 12 and 0", answered, moved)
	}

	// A promotion and a move keep every range: no bounce.
	c.KillServer(v.Meta.Parts[2].Server)
	waitPromotion(t, c)
	if _, moved := round("keys across a promotion", false); moved != 0 {
		t.Fatalf("keys across a promotion: %d bounces, want 0", moved)
	}
	if err := c.NewClient().MovePartition("k", v.Meta.Parts[0].Index, ""); err != nil {
		t.Fatal(err)
	}
	if _, moved := round("keys across a move", false); moved != 0 {
		t.Fatalf("keys across a move: %d bounces, want 0", moved)
	}

	if err := c.NewClient().SplitPartition("k", v.Meta.Parts[1].Index, ""); err != nil {
		t.Fatal(err)
	}
	// Each of the four calls bounces once off the split partition and sends
	// that bucket again, to the two halves: 2 + 2 calls answered.
	if answered, moved := round("stale keys across the split", true); answered != 4*4 || moved != 4 {
		t.Fatalf("stale keys across the split: %d calls answered, %d bounces, want 16 and 4", answered, moved)
	}
	if answered, moved := round("rebuilt keys", false); answered != 4*4 || moved != 0 {
		t.Fatalf("rebuilt keys: %d calls answered, %d bounces, want 16 and 0", answered, moved)
	}
	got, err := v.PullAll()
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("PullAll after the changes: %v (err %v), want %v", got, err, want)
	}
}

// frameLog keeps a copy of every VecPull and VecPush frame sent, without
// its dedup envelope.
type frameLog struct {
	rpc.Transport
	mu     sync.Mutex
	frames map[string][][]byte
}

func (l *frameLog) Call(addr, method string, body []byte) ([]byte, error) {
	if method == "VecPull" || method == "VecPush" {
		frame := body
		if _, _, _, payload, ok := unwrapDedup(body); ok {
			frame = payload
		}
		l.mu.Lock()
		l.frames[method] = append(l.frames[method], slices.Clone(frame))
		l.mu.Unlock()
	}
	return l.Transport.Call(addr, method, body)
}

// TestKeyedFramesMatchTheEncoder: every frame a keyed pull or push writes
// by hand is byte for byte the frame the walked encoder writes for the
// request it decodes to — kept keys and keys for one call, windows and
// copied buckets, each op — so the server, the wire format and the dedup
// envelope see nothing new.
func TestKeyedFramesMatchTheEncoder(t *testing.T) {
	log := &frameLog{Transport: rpc.NewInProc(), frames: map[string][][]byte{}}
	c, err := NewCluster(ClusterConfig{NumServers: 2, Transport: log, NamePrefix: "kf"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	v, err := c.NewClient().CreateDenseVector(DenseVectorSpec{Name: "f", Size: 600, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	asc := []int64{0, 1, 5, 199, 200, 201, 450, 599}
	shuffled := []int64{450, 1, 599, 200, 0, 201, 5, 199}
	vals := []float64{0.5, -1, 2, 1e-300, 7, 0, 3, math.Inf(1)}
	for _, ids := range [][]int64{asc, shuffled} {
		for _, k := range []*VecKeys{v.Keys(ids), v.once(ids)} {
			if _, err := k.Pull(); err != nil {
				t.Fatal(err)
			}
			for _, op := range []vecOp{vecAdd, vecSet, vecMin, vecMax} {
				if err := k.push(vals, op); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if n, m := len(log.frames["VecPull"]), len(log.frames["VecPush"]); n != 2*2*3 || m != 2*2*4*3 {
		t.Fatalf("%d VecPull and %d VecPush frames, want 12 and 48", n, m)
	}
	for _, f := range log.frames["VecPull"] {
		var req pullReq
		if err := dec(f, &req); err != nil || !bytes.Equal(enc(req), f) {
			t.Fatalf("VecPull frame %x decodes to %+v (%v), which encodes as %x", f, req, err, enc(req))
		}
	}
	for _, f := range log.frames["VecPush"] {
		var req vecPushReq
		if err := dec(f, &req); err != nil || !bytes.Equal(enc(req), f) {
			t.Fatalf("VecPush frame %x decodes to %+v (%v), which encodes as %x", f, req, err, enc(req))
		}
	}
}

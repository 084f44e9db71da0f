package ps

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"psgraph/internal/dfs"
	"psgraph/internal/rpc"
)

func newTestCluster(t *testing.T, n int) (*Cluster, *Client) {
	t.Helper()
	c, err := NewCluster(ClusterConfig{NumServers: n, NamePrefix: "t" + t.Name()})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c, c.NewClient()
}

// expire backdates the leases of addrs and runs one tick of the failure
// detector, the code the lease checker's ticker runs. It returns the
// addresses the tick recovered.
func expire(m *Master, addrs ...string) []string {
	m.mu.Lock()
	for _, a := range addrs {
		m.leases[a] = time.Time{}
	}
	m.mu.Unlock()
	return m.checkLeases()
}

func TestDenseVectorPullPush(t *testing.T) {
	_, cl := newTestCluster(t, 3)
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "ranks", Size: 100})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := v.PushAdd([]int64{0, 50, 99}, []float64{1, 2, 3}); err != nil {
		t.Fatalf("push: %v", err)
	}
	got, err := v.Pull([]int64{99, 0, 50, 1})
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	want := []float64{3, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pull[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	all, err := v.PullAll()
	if err != nil {
		t.Fatalf("pullAll: %v", err)
	}
	if len(all) != 100 || all[50] != 2 {
		t.Fatalf("PullAll: len=%d all[50]=%v", len(all), all[50])
	}
}

func TestDenseVectorSetAllAndZero(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "v", Size: 10})
	vals := make([]float64, 10)
	for i := range vals {
		vals[i] = float64(i)
	}
	if err := v.SetAll(vals); err != nil {
		t.Fatalf("SetAll: %v", err)
	}
	got, _ := v.PullAll()
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("got[%d] = %v", i, got[i])
		}
	}
	v.Fill(0)
	got, _ = v.PullAll()
	for i := range got {
		if got[i] != 0 {
			t.Fatalf("after Fill(0) got[%d] = %v", i, got[i])
		}
	}
}

func TestDenseVectorAddIsCommutativeProperty(t *testing.T) {
	_, cl := newTestCluster(t, 3)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "p", Size: 64})
	f := func(idx []uint8, val float64) bool {
		if math.IsNaN(val) || math.IsInf(val, 0) || math.Abs(val) > 1e9 {
			return true
		}
		var sum float64
		indices := make([]int64, len(idx))
		vals := make([]float64, len(idx))
		for i, x := range idx {
			indices[i] = int64(x) % 64
			vals[i] = val
			sum += val
		}
		before, _ := v.PullAll()
		var total float64
		for _, b := range before {
			total += b
		}
		if err := v.PushAdd(indices, vals); err != nil {
			return false
		}
		after, _ := v.PullAll()
		var totalAfter float64
		for _, a := range after {
			totalAfter += a
		}
		return math.Abs(totalAfter-(total+sum)) < 1e-6*(1+math.Abs(total+sum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseVector(t *testing.T) {
	_, cl := newTestCluster(t, 3)
	s, err := cl.CreateSparseVector("v2c")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := s.PushAdd([]int64{1, 1 << 40, -7}, []float64{1.5, 2.5, 3}); err != nil {
		t.Fatalf("push: %v", err)
	}
	got, err := s.Pull([]int64{1, 1 << 40, -7, 999})
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	// Positional, and an absent key reads 0, as an embedding row does.
	if !slices.Equal(got, []float64{1.5, 2.5, 3, 0}) {
		t.Fatalf("got %v", got)
	}
	if err := s.PushAdd([]int64{1}, []float64{1, 2}); err == nil {
		t.Fatal("a push of 2 values for 1 key was accepted")
	}
	s.PushAdd([]int64{1}, []float64{0.5})
	all, _ := s.PullAll()
	if all[1] != 2.0 || all[999] != 0 || len(all) != 4 {
		t.Fatalf("add: got %v", all)
	}
	s.PushSet([]int64{1}, []float64{9})
	all, _ = s.PullAll()
	if all[1] != 9 {
		t.Fatalf("set: got %v", all[1])
	}
}

func TestEmbeddingHashPartitioned(t *testing.T) {
	_, cl := newTestCluster(t, 3)
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "emb", Dim: 4})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := e.PushSet(map[int64][]float64{7: {1, 2, 3, 4}}); err != nil {
		t.Fatalf("push: %v", err)
	}
	got, err := e.Pull([]int64{7, 8})
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	if got[7][2] != 3 {
		t.Fatalf("got %v", got[7])
	}
	// InitScale=0: absent rows are zero vectors.
	for _, x := range got[8] {
		if x != 0 {
			t.Fatalf("uninitialized row not zero: %v", got[8])
		}
	}
	e.PushAdd(map[int64][]float64{7: {1, 1, 1, 1}})
	got, _ = e.Pull([]int64{7})
	if got[7][0] != 2 {
		t.Fatalf("after add got %v", got[7])
	}
}

func TestEmbeddingLazyInitDeterministic(t *testing.T) {
	_, cl1 := newTestCluster(t, 2)
	e1, _ := cl1.CreateEmbedding(EmbeddingSpec{Name: "e", Dim: 8, InitScale: 0.5})
	a, _ := e1.Pull([]int64{42})

	// A differently-partitioned cluster must produce the same init values.
	c2, err := NewCluster(ClusterConfig{NumServers: 5, NamePrefix: "init2"})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	e2, _ := c2.NewClient().CreateEmbedding(EmbeddingSpec{Name: "e", Dim: 8, InitScale: 0.5, ByColumn: true})
	b, _ := e2.Pull([]int64{42})
	for i := range a[42] {
		if a[42][i] != b[42][i] {
			t.Fatalf("init differs at dim %d: %v vs %v", i, a[42][i], b[42][i])
		}
		if math.Abs(a[42][i]) > 0.5 {
			t.Fatalf("init out of range: %v", a[42][i])
		}
	}
}

func TestColumnEmbeddingRoundTrip(t *testing.T) {
	_, cl := newTestCluster(t, 3)
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "colemb", Dim: 10, ByColumn: true})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	vec := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if err := e.PushSet(map[int64][]float64{5: vec}); err != nil {
		t.Fatalf("push: %v", err)
	}
	got, err := e.Pull([]int64{5})
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	for i := range vec {
		if got[5][i] != vec[i] {
			t.Fatalf("dim %d = %v, want %v", i, got[5][i], vec[i])
		}
	}
}

func TestNeighborTables(t *testing.T) {
	_, cl := newTestCluster(t, 3)
	n, err := cl.CreateNeighbor("adj")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	n.Push(map[int64][]int64{1: {2, 3}, 2: {1}})
	n.Push(map[int64][]int64{1: {4}}) // append semantics
	got, err := n.Pull([]int64{1, 2, 3})
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	if len(got[1]) != 3 || len(got[2]) != 1 {
		t.Fatalf("got %v", got)
	}
	if _, ok := got[3]; ok {
		t.Fatal("vertex with no neighbors present")
	}
}

func TestDenseMatrix(t *testing.T) {
	_, cl := newTestCluster(t, 3)
	m, err := cl.CreateMatrix(MatrixSpec{Name: "W", Rows: 2, Cols: 5})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if err := m.PushSet(data); err != nil {
		t.Fatalf("set: %v", err)
	}
	got, err := m.PullAll()
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], data[i])
		}
	}
}

func TestSGDOptimizerOnMatrix(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	m, _ := cl.CreateMatrix(MatrixSpec{Name: "W", Rows: 1, Cols: 4, Opt: sgd(0.1)})
	m.PushSet([]float64{1, 1, 1, 1})
	m.PushGrad([]float64{1, 2, 3, 4})
	got, _ := m.PullAll()
	want := []float64{0.9, 0.8, 0.7, 0.6}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAdamOptimizerDecreasesLoss(t *testing.T) {
	// Minimize f(x) = x^2 on a 1x1 matrix via server-side Adam.
	_, cl := newTestCluster(t, 1)
	m, _ := cl.CreateMatrix(MatrixSpec{Name: "x", Rows: 1, Cols: 1, Opt: Adam(0.1)})
	m.PushSet([]float64{3})
	for i := 0; i < 200; i++ {
		x, _ := m.PullAll()
		m.PushGrad([]float64{2 * x[0]})
	}
	x, _ := m.PullAll()
	if math.Abs(x[0]) > 0.05 {
		t.Fatalf("Adam did not converge: x = %v", x[0])
	}
}

func TestAdaGradOnEmbedding(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	e, _ := createGradEmb(cl, EmbeddingSpec{Name: "emb", Dim: 2}, adaGrad(0.5))
	e.PushSet(map[int64][]float64{1: {2, -2}})
	for i := 0; i < 100; i++ {
		cur, _ := e.Pull([]int64{1})
		g := []float64{2 * cur[1][0], 2 * cur[1][1]}
		pushGrad(e, map[int64][]float64{1: g})
	}
	cur, _ := e.Pull([]int64{1})
	if math.Abs(cur[1][0]) > 0.1 || math.Abs(cur[1][1]) > 0.1 {
		t.Fatalf("AdaGrad did not converge: %v", cur[1])
	}
}

func TestPSFunc(t *testing.T) {
	RegisterFunc("test.sumRow", func(s *Store, model string, part int, arg []byte) ([]byte, error) {
		id := int64(binary.LittleEndian.Uint64(arg))
		view, err := s.Partition(model, part)
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, x := range liveRow(view.eng.(*embEngine), id) {
			sum += x
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, math.Float64bits(sum))
		return out, nil
	})
	_, cl := newTestCluster(t, 3)
	e, _ := cl.CreateEmbedding(EmbeddingSpec{Name: "f", Dim: 6, ByColumn: true})
	e.PushSet(map[int64][]float64{9: {1, 2, 3, 4, 5, 6}})
	arg := make([]byte, 8)
	binary.LittleEndian.PutUint64(arg, 9)
	outs, err := cl.CallFunc("f", "test.sumRow", func(p Partition) []byte { return arg })
	if err != nil {
		t.Fatalf("CallFunc: %v", err)
	}
	var total float64
	for _, o := range outs {
		total += math.Float64frombits(binary.LittleEndian.Uint64(o))
	}
	if total != 21 {
		t.Fatalf("partial sums total %v, want 21", total)
	}
}

func TestCheckpointRestoreAfterServerFailure(t *testing.T) {
	c, cl := newTestCluster(t, 3)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "ranks", Size: 30})
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	v.SetAll(vals)
	if err := cl.Checkpoint("ranks"); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Overwrite after the checkpoint; recovery must roll back only the
	// failed partition (inconsistent-ok mode).
	v.PushAdd([]int64{0, 29}, []float64{100, 100})

	addr := c.ServerAddrs()[1]
	c.KillServer(addr)
	recovered := expire(c.Master, addr)
	if len(recovered) != 1 || recovered[0] != addr {
		t.Fatalf("recovered = %v", recovered)
	}
	got, err := v.PullAll()
	if err != nil {
		t.Fatalf("pull after recovery: %v", err)
	}
	// Partition 1 of 3 over 30 elements covers [10,20): it must hold the
	// checkpointed values again.
	for i := 10; i < 20; i++ {
		if got[i] != vals[i] {
			t.Fatalf("restored[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
}

func TestConsistentRecoveryRestoresAllPartitions(t *testing.T) {
	c, cl := newTestCluster(t, 3)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "pr", Size: 30, ConsistentRecovery: true})
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = 1
	}
	v.SetAll(vals)
	cl.Checkpoint("pr")
	// Mutate partitions on surviving servers too.
	v.PushAdd([]int64{0, 15, 29}, []float64{5, 5, 5})
	c.KillServer(c.ServerAddrs()[0])
	expire(c.Master, c.ServerAddrs()[0])
	got, _ := v.PullAll()
	for i, x := range got {
		if x != 1 {
			t.Fatalf("consistent recovery left got[%d] = %v, want 1", i, x)
		}
	}
}

func TestRecoveryWithoutCheckpointGivesEmptyPartition(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "x", Size: 10})
	v.Fill(7)
	c.KillServer(c.ServerAddrs()[0])
	expire(c.Master, c.ServerAddrs()[0])
	got, err := v.PullAll()
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	// Partition 0 ([0,5)) was never checkpointed: must read as zeros.
	for i := 0; i < 5; i++ {
		if got[i] != 0 {
			t.Fatalf("got[%d] = %v, want 0", i, got[i])
		}
	}
	for i := 5; i < 10; i++ {
		if got[i] != 7 {
			t.Fatalf("got[%d] = %v, want 7", i, got[i])
		}
	}
}

// TestStaleCheckpointDiesWithItsModel: a deleted model's checkpoints,
// layout manifest and serve manifest leave the DFS with it, so a model
// created under the same name afterwards — here with another size, hence
// other ranges — recovers a never-checkpointed partition empty instead of
// adopting the dead model's file and its [Lo,Hi).
func TestStaleCheckpointDiesWithItsModel(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	old, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "x", Size: 10})
	old.Fill(7)
	if err := cl.Checkpoint("x"); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := cl.PublishSnapshot("x"); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := cl.Checkpoint("x"); err != nil { // a .prev generation too
		t.Fatalf("second checkpoint: %v", err)
	}
	if err := cl.DeleteModel("x"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	for _, prefix := range []string{"/ps/ckpt/x/", "/ps/serve/x/"} {
		if left := c.FS.List(prefix); len(left) != 0 {
			t.Fatalf("DeleteModel left %v on the DFS", left)
		}
	}
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "x", Size: 20})
	if err != nil {
		t.Fatalf("recreate: %v", err)
	}
	v.Fill(3)
	c.KillServer(c.ServerAddrs()[0])
	expire(c.Master, c.ServerAddrs()[0])
	got, err := v.PullAll()
	if err != nil {
		t.Fatalf("pull after recovery: %v", err)
	}
	// Partition 0 ([0,10)) of the NEW model was never checkpointed.
	for i, x := range got {
		if want := map[bool]float64{true: 0, false: 3}[i < 10]; x != want {
			t.Fatalf("got[%d] = %v, want %v (all: %v)", i, x, want, got)
		}
	}
}

func TestClientRetriesWhileServerDown(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "r", Size: 10})
	v.Fill(1)
	cl.Checkpoint("r")
	addr := c.ServerAddrs()[0]
	c.KillServer(addr)
	// Recover 50ms later, while a pull is retrying.
	go func() {
		time.Sleep(50 * time.Millisecond)
		expire(c.Master, addr)
	}()
	got, err := v.PullAll()
	if err != nil {
		t.Fatalf("pull during recovery: %v", err)
	}
	for i, x := range got {
		if x != 1 {
			t.Fatalf("got[%d] = %v", i, x)
		}
	}
}

// TestLeaseRecoversAutomatically: with nothing but a lease configured, a
// killed server is detected, restarted and restored in the background.
func TestLeaseRecoversAutomatically(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		NumServers: 2, NamePrefix: "lease", LeaseDuration: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "m", Size: 4})
	v.Fill(2)
	cl.Checkpoint("m")
	c.KillServer(c.ServerAddrs()[1])
	got, err := v.PullAll() // retried until the lease expires and the server is restored
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	for _, x := range got {
		if x != 2 {
			t.Fatalf("got %v", got)
		}
	}
}

func TestOptimizerStateSurvivesCheckpoint(t *testing.T) {
	c, cl := newTestCluster(t, 1)
	m, _ := cl.CreateMatrix(MatrixSpec{Name: "w", Rows: 1, Cols: 1, Opt: Adam(0.1)})
	m.PushSet([]float64{3})
	for i := 0; i < 50; i++ {
		x, _ := m.PullAll()
		m.PushGrad([]float64{2 * x[0]})
	}
	cl.Checkpoint("w")
	mid, _ := m.PullAll()
	c.KillServer(c.ServerAddrs()[0])
	expire(c.Master, c.ServerAddrs()[0])
	// Training continues from restored optimizer state and still converges.
	for i := 0; i < 150; i++ {
		x, _ := m.PullAll()
		m.PushGrad([]float64{2 * x[0]})
	}
	x, _ := m.PullAll()
	if math.Abs(x[0]) >= math.Abs(mid[0]) {
		t.Fatalf("no progress after restore: before %v, after %v", mid[0], x[0])
	}
}

func TestModelLifecycle(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	if _, err := cl.CreateDenseVector(DenseVectorSpec{Name: "dup", Size: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CreateDenseVector(DenseVectorSpec{Name: "dup", Size: 4}); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if err := cl.DeleteModel("dup"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := cl.CreateDenseVector(DenseVectorSpec{Name: "dup", Size: 4}); err != nil {
		t.Fatalf("recreate after delete: %v", err)
	}
	if _, err := cl.GetModel("never"); err == nil {
		t.Fatal("GetModel on missing model succeeded")
	}
}

func TestPartitionForCoversAllKeys(t *testing.T) {
	meta := layout(ModelMeta{Name: "x", Kind: DenseVector, Size: 1000}, []string{"a", "b", "c"})
	for k := int64(0); k < 1000; k++ {
		p := meta.PartitionFor(k)
		part := meta.Parts[p]
		if k < part.Lo || k >= part.Hi {
			t.Fatalf("key %d mapped to partition [%d,%d)", k, part.Lo, part.Hi)
		}
	}
	hmeta := layout(ModelMeta{Name: "h", Kind: Neighbor}, []string{"a", "b", "c"})
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		p := hmeta.PartitionFor(rng.Int63())
		if p < 0 || p >= 3 {
			t.Fatalf("hash partition out of range: %d", p)
		}
		counts[p]++
	}
	for i, c := range counts {
		if c < 500 {
			t.Fatalf("hash partition %d badly skewed: %v", i, counts)
		}
	}
}

func TestLayoutColumnPartitions(t *testing.T) {
	meta := layout(ModelMeta{Kind: ColumnEmbedding, Size: 4, Dim: 10}, []string{"a", "b", "c"})
	covered := make([]bool, 10)
	for _, p := range meta.Parts {
		for c := p.Col0; c < p.Col1; c++ {
			if covered[c] {
				t.Fatalf("column %d covered twice", c)
			}
			covered[c] = true
		}
	}
	for c, ok := range covered {
		if !ok {
			t.Fatalf("column %d not covered", c)
		}
	}
}

func TestClusterOverTCP(t *testing.T) {
	// The PS must work identically over a real network transport. TCP
	// endpoints need real addresses, so wire the pieces manually.
	tr := rpc.NewTCP()
	defer tr.Close()
	fs := dfs.NewDefault()
	master := NewMaster("", tr)
	masterAddr, err := tr.Listen(master.Handle)
	if err != nil {
		t.Fatal(err)
	}
	master.Addr = masterAddr
	for i := 0; i < 2; i++ {
		srv := NewServer("", fs)
		addr, err := tr.Listen(srv.Handle)
		if err != nil {
			t.Fatal(err)
		}
		srv.Addr = addr
		if _, err := tr.Call(masterAddr, "RegisterServer", enc(registerServerReq{Addr: addr})); err != nil {
			t.Fatal(err)
		}
	}
	cl := NewClient(tr, masterAddr)
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "net", Size: 20})
	if err != nil {
		t.Fatalf("create over tcp: %v", err)
	}
	if err := v.PushAdd([]int64{3, 17}, []float64{1.25, -4}); err != nil {
		t.Fatalf("push over tcp: %v", err)
	}
	got, err := v.Pull([]int64{3, 17})
	if err != nil {
		t.Fatalf("pull over tcp: %v", err)
	}
	if got[0] != 1.25 || got[1] != -4 {
		t.Fatalf("got %v", got)
	}
}

func TestConcurrentPushesAggregate(t *testing.T) {
	_, cl := newTestCluster(t, 3)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "agg", Size: 8})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				v.PushAdd([]int64{0, 7}, []float64{1, 1})
			}
		}()
	}
	wg.Wait()
	got, _ := v.PullAll()
	if got[0] != 160 || got[7] != 160 {
		t.Fatalf("lost updates: got %v", got)
	}
}

func TestPartitionSchemes(t *testing.T) {
	servers := []string{"a", "b", "c", "d"}
	// Range: contiguous, covers the domain, monotone.
	rng := layout(ModelMeta{Kind: Embedding, Scheme: SchemeRange, Size: 1000}, servers)
	prev := 0
	for k := int64(0); k < 1000; k++ {
		p := rng.PartitionFor(k)
		if p < prev {
			t.Fatalf("range partitioning not monotone at key %d", k)
		}
		prev = p
	}
	if rng.PartitionFor(0) != 0 || rng.PartitionFor(999) != 3 {
		t.Fatalf("range endpoints: %d, %d", rng.PartitionFor(0), rng.PartitionFor(999))
	}
	// Out-of-domain keys clamp instead of panicking.
	if p := rng.PartitionFor(-5); p != 0 {
		t.Fatalf("negative key -> %d", p)
	}
	if p := rng.PartitionFor(5000); p != 3 {
		t.Fatalf("overflow key -> %d", p)
	}

	// Hash (buckets in ranges): valid partitions, reasonably balanced,
	// deterministic.
	hr := layout(ModelMeta{Kind: Neighbor, Scheme: SchemeHash}, servers)
	counts := make([]int, 4)
	for k := int64(0); k < 4000; k++ {
		p := hr.PartitionFor(k)
		if p < 0 || p >= 4 {
			t.Fatalf("hash-range out of range: %d", p)
		}
		if p != hr.PartitionFor(k) {
			t.Fatal("hash-range not deterministic")
		}
		counts[p]++
	}
	for i, c := range counts {
		if c < 500 {
			t.Fatalf("hash-range partition %d badly skewed: %v", i, counts)
		}
	}
}

func TestSparseVectorRangeSchemeRoundTrip(t *testing.T) {
	_, cl := newTestCluster(t, 3)
	meta, err := cl.CreateModel(ModelMeta{Name: "rangevec", Kind: Embedding, Dim: 1, Scheme: SchemeRange, Size: 300})
	if err != nil {
		t.Fatal(err)
	}
	s := &SparseVec{emb: &Emb{c: cl, Meta: meta}, Meta: meta}
	var keys []int64
	var vals []float64
	for k := int64(0); k < 300; k += 7 {
		keys, vals = append(keys, k), append(vals, float64(k)*1.5)
	}
	if err := s.PushSet(keys, vals); err != nil {
		t.Fatal(err)
	}
	got, err := s.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("got %d keys, want %d", len(got), len(keys))
	}
	for i, k := range keys {
		if got[k] != vals[i] {
			t.Fatalf("got[%d] = %v, want %v", k, got[k], vals[i])
		}
	}
}

func TestNeighborSealCSR(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	n, err := cl.CreateNeighbor("csr")
	if err != nil {
		t.Fatal(err)
	}
	n.Push(map[int64][]int64{1: {5, 3}, 2: {9}})
	n.Push(map[int64][]int64{1: {3, 7}}) // duplicate 3 must be deduped
	// Seal every partition.
	for addr, srv := range csrServers(c) {
		_ = addr
		for part := 0; part < len(n.Meta.Parts); part++ {
			view, err := storeOf(srv).Partition("csr", part)
			if err != nil {
				continue // partition lives on the other server
			}
			view.SealCSR()
		}
	}
	got, err := n.Pull([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got[1]) != "[3 5 7]" {
		t.Fatalf("csr adjacency = %v", got[1])
	}
	if fmt.Sprint(got[2]) != "[9]" {
		t.Fatalf("csr adjacency = %v", got[2])
	}
	if _, ok := got[3]; ok {
		t.Fatal("absent vertex present after seal")
	}
	// Pushes to a sealed partition must be rejected.
	if err := n.Push(map[int64][]int64{1: {11}}); err == nil {
		t.Fatal("push to sealed model succeeded")
	}
}

func TestCSRSurvivesCheckpointRestore(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	n, _ := cl.CreateNeighbor("csr2")
	n.Push(map[int64][]int64{1: {2, 3}, 4: {5}})
	for _, srv := range csrServers(c) {
		for part := 0; part < len(n.Meta.Parts); part++ {
			if view, err := storeOf(srv).Partition("csr2", part); err == nil {
				view.SealCSR()
			}
		}
	}
	if err := cl.Checkpoint("csr2"); err != nil {
		t.Fatal(err)
	}
	victim := c.ServerAddrs()[0]
	c.KillServer(victim)
	expire(c.Master, victim)
	got, err := n.Pull([]int64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got[1]) != "[2 3]" || fmt.Sprint(got[4]) != "[5]" {
		t.Fatalf("restored CSR = %v", got)
	}
}

// csrServers exposes the live server map for white-box CSR tests.
func csrServers(c *Cluster) map[string]*Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*Server, len(c.servers))
	for k, v := range c.servers {
		out[k] = v
	}
	return out
}

func storeOf(s *Server) *Store { return s.store }

func TestMultiplePartitionsPerServer(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "multi", Size: 100, Partitions: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Meta.Parts) != 7 {
		t.Fatalf("parts = %d, want 7", len(v.Meta.Parts))
	}
	// Ranges must tile [0, 100).
	var covered int64
	for _, p := range v.Meta.Parts {
		covered += p.Hi - p.Lo
	}
	if covered != 100 {
		t.Fatalf("ranges cover %d, want 100", covered)
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	if err := v.SetAll(vals); err != nil {
		t.Fatal(err)
	}
	got, err := v.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("got[%d] = %v", i, got[i])
		}
	}
	// Point access works through the range scan.
	one, err := v.Pull([]int64{93})
	if err != nil || one[0] != 93 {
		t.Fatalf("pull 93 = %v, %v", one, err)
	}
}

func TestMultiPartitionEmbeddingColumns(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "mpc", Dim: 10, ByColumn: true, Partitions: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Meta.Parts) != 5 {
		t.Fatalf("parts = %d", len(e.Meta.Parts))
	}
	vec := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if err := e.PushSet(map[int64][]float64{3: vec}); err != nil {
		t.Fatal(err)
	}
	got, err := e.Pull([]int64{3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range vec {
		if got[3][i] != vec[i] {
			t.Fatalf("dim %d = %v", i, got[3][i])
		}
	}
}

func TestMultiPartitionRecovery(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "mr", Size: 40, Partitions: 6})
	v.Fill(3)
	cl.Checkpoint("mr")
	// Killing one of two servers loses three of six partitions.
	c.KillServer(c.ServerAddrs()[0])
	expire(c.Master, c.ServerAddrs()[0])
	got, err := v.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range got {
		if x != 3 {
			t.Fatalf("got[%d] = %v after multi-partition recovery", i, x)
		}
	}
}

func TestPeriodicCheckpointRecovers(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		NumServers:    2,
		NamePrefix:    "periodic",
		LeaseDuration: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Master.SetCheckpointInterval(10 * time.Millisecond)
	cl := c.NewClient()
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "auto", Size: 8})
	v.Fill(5)
	// No explicit Checkpoint call: the periodic snapshot must cover us.
	deadline := time.Now().Add(2 * time.Second)
	for !c.FS.Exists(CheckpointPath("auto", 0)) {
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoint never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.KillServer(c.ServerAddrs()[0])
	got, err := v.PullAll() // lease expiry recovers; restore uses the periodic snapshot
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range got {
		if x != 5 {
			t.Fatalf("got[%d] = %v after periodic-checkpoint recovery", i, x)
		}
	}
}

func TestClusterStats(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "sv", Size: 1000})
	v.Fill(1)
	n, _ := cl.CreateNeighbor("sn")
	n.Push(map[int64][]int64{1: {2, 3, 4}, 5: {6}})
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats for %d servers", len(stats))
	}
	var bytes int64
	var parts int
	for _, s := range stats {
		bytes += s.Bytes
		parts += s.Partitions
	}
	if bytes < 8000 { // the dense vector alone is 8000 bytes
		t.Fatalf("resident bytes = %d", bytes)
	}
	if parts != 4 { // 2 models x 2 partitions
		t.Fatalf("partitions = %d", parts)
	}
}

func TestRecoveryCountAndRestoreModel(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "rc", Size: 10})
	v.Fill(4)
	cl.Checkpoint("rc")
	n0, err := cl.RecoveryCount()
	if err != nil {
		t.Fatal(err)
	}
	c.KillServer(c.ServerAddrs()[0])
	expire(c.Master, c.ServerAddrs()[0])
	n1, err := cl.RecoveryCount()
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n0+1 {
		t.Fatalf("recovery count %d -> %d", n0, n1)
	}
	// Taint the surviving partitions, then roll the whole model back.
	v.PushAdd([]int64{0, 9}, []float64{100, 100})
	if err := cl.RestoreModels([]string{"rc"}); err != nil {
		t.Fatal(err)
	}
	got, _ := v.PullAll()
	for i, x := range got {
		if x != 4 {
			t.Fatalf("got[%d] = %v after RestoreModels", i, x)
		}
	}
	if err := cl.RestoreModels([]string{"missing"}); err == nil {
		t.Fatal("restore of unknown model succeeded")
	}
}

func TestVectorPushMinMax(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "mm", Size: 4})
	v.SetAll([]float64{5, 5, 5, 5})
	if err := v.PushMin([]int64{0, 1}, []float64{3, 9}); err != nil {
		t.Fatal(err)
	}
	if err := v.PushMax([]int64{2, 3}, []float64{9, 3}); err != nil {
		t.Fatal(err)
	}
	got, _ := v.PullAll()
	want := []float64{3, 5, 9, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestClusterOverTCPTransport(t *testing.T) {
	// The cluster constructor must wire real TCP endpoints end-to-end,
	// including kill/recovery at the same host:port.
	c, err := NewCluster(ClusterConfig{
		NumServers: 2,
		Transport:  rpc.NewTCP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "tcp", Size: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Fill(2.5); err != nil {
		t.Fatal(err)
	}
	if err := cl.Checkpoint("tcp"); err != nil {
		t.Fatal(err)
	}
	victim := c.ServerAddrs()[1]
	c.KillServer(victim)
	if got := expire(c.Master, victim); len(got) != 1 {
		t.Fatalf("recovered = %v", got)
	}
	got, err := v.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range got {
		if x != 2.5 {
			t.Fatalf("got[%d] = %v after tcp recovery", i, x)
		}
	}
}

func TestHandleGettersAndKindString(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	cl.CreateDenseVector(DenseVectorSpec{Name: "hv", Size: 4})
	cl.CreateEmbedding(EmbeddingSpec{Name: "he", Dim: 2})

	if _, err := cl.Vector("hv"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Embedding("he"); err != nil {
		t.Fatal(err)
	}
	// Kind mismatches are rejected.
	if _, err := cl.Vector("he"); err == nil {
		t.Fatal("Vector() accepted an embedding model")
	}
	if _, err := cl.Embedding("hv"); err == nil {
		t.Fatal("Embedding() accepted a vector model")
	}
	// A second client resolves layouts through the master (cache miss).
	// Kind names render for diagnostics; a retired kind is unknown.
	for _, k := range []Kind{DenseVector, Embedding, ColumnEmbedding, Neighbor} {
		if k.String() == "" || k.String()[0] == 'K' {
			t.Fatalf("Kind(%d).String() = %q", k, k.String())
		}
	}
	for _, k := range []Kind{1, 5, 99, -1} {
		if want := fmt.Sprintf("Kind(%d)", k); k.String() != want {
			t.Fatalf("unknown kind renders %q, want %q", k.String(), want)
		}
	}
}

func TestSecondClientResolvesViaMaster(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "shared", Size: 6})
	v.Fill(3)
	other := c.NewClient()
	got, err := other.Vector("shared")
	if err != nil {
		t.Fatal(err)
	}
	vals, err := got.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	if vals[5] != 3 {
		t.Fatalf("second client sees %v", vals)
	}
	if len(got.Meta.Parts) != 2 {
		t.Fatalf("parts = %d", len(got.Meta.Parts))
	}
	if _, err := other.Vector("missing"); err == nil {
		t.Fatal("missing model resolved")
	}
}

func TestVectorPushSetPointwise(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "pp", Size: 6})
	v.Fill(1)
	if err := v.PushSet([]int64{0, 5}, []float64{9, 8}); err != nil {
		t.Fatal(err)
	}
	got, _ := v.PullAll()
	if got[0] != 9 || got[5] != 8 || got[3] != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestClientCommCounters(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "cc", Size: 100})
	v.Fill(1)
	s0, r0 := cl.Comm()
	v.PullAll()
	sent, recv := cl.Comm()
	if sent <= s0 || recv <= r0 {
		t.Fatalf("comm counters: sent %d -> %d, recv %d -> %d", s0, sent, r0, recv)
	}
}

// TestMisshapedReplyIsAnError: a pull reply comes from another process,
// so a short or mis-shaped one must surface as an error naming the model
// and partition — it used to index out of range and take the executor
// down.
func TestMisshapedReplyIsAnError(t *testing.T) {
	c, cl := newTestCluster(t, 1)
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "rv", Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "re", Dim: 4, ByColumn: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := cl.CreateMatrix(MatrixSpec{Name: "rm", Rows: 2, Cols: 3})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := cl.CreateSparseVector("rsv")
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.CreateEmbedding(EmbeddingSpec{Name: "rh", Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The serve handle adopts a real published layout before the server
	// is replaced by the liar below; ids 101..103 are pulled first, so they
	// (and nothing else) are its hot head.
	for i := 0; i < 3; i++ {
		if _, err := h.Pull([]int64{101, 102, 103}); err != nil {
			t.Fatal(err)
		}
	}
	if sl, err := cl.PublishSnapshot("rh"); err != nil || len(sl.HotIDs) != 3 {
		t.Fatalf("publish: hot head %v, %v", sl.HotIDs, err)
	}
	sc, err := cl.Serve("rh")
	if err != nil {
		t.Fatal(err)
	}
	// A 3-partition table, all of it on the one server: a serve lookup that
	// misses in every partition is one ServePull of three parts, answered —
	// when the server is honest — by batches a, b and c back to back.
	if _, err := cl.CreateEmbedding(EmbeddingSpec{Name: "rs", Dim: 2, Partitions: 3}); err != nil {
		t.Fatal(err)
	}
	rsl, err := cl.PublishSnapshot("rs")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := cl.Serve("rs")
	if err != nil {
		t.Fatal(err)
	}
	var rsIDs []int64
	var abc [3]RowBatch
	for id := int64(0); len(rsIDs) < 6; id++ {
		if b := &abc[rsl.Meta.PartitionFor(id)]; len(b.IDs) < 2 {
			b.IDs, b.Dim, b.Data = append(b.IDs, id), 2, append(b.Data, 1, 2)
			rsIDs = append(rsIDs, id)
		}
	}
	a, b, c3 := abc[0], abc[1], abc[2]
	rsPart := func(slot int) string { return fmt.Sprintf("rs/%d", rsl.Meta.Parts[slot].Index) }
	bShort := RowBatch{IDs: b.IDs[:1], Dim: 2, Data: b.Data[:2]}
	// rsTarget is the decode target of that lookup's reply over block: part
	// k fills rows 2k and 2k+1.
	rsTarget := func(block []float64) *serveReply {
		target := &serveReply{}
		for slot, part := range abc {
			target.parts = append(target.parts, rowScatter{msg: msgServePullResp, model: "rs", part: rsl.Meta.Parts[slot].Index,
				work: rowWork{ids: part.IDs, pos: []int32{int32(2 * slot), int32(2*slot + 1)}}, dst: block, width: 2, strd: 2})
		}
		return target
	}
	nb, err := cl.CreateNeighbor("rn")
	if err != nil {
		t.Fatal(err)
	}
	nbrs := func(adj []int64, off ...int32) nbrPullResp {
		return nbrPullResp{Nbrs: NbrBatch{Off: off, Adj: adj}}
	}
	rows := func(dim int, data []float64, ids ...int64) RowBatch {
		return RowBatch{IDs: ids, Dim: dim, Data: data}
	}
	// noRows passes a map pull's error on; whatever the reply, a failed
	// pull hands the caller no rows.
	noRows := func(rows map[int64][]float64, err error) error {
		if err != nil && rows != nil {
			t.Errorf("a failed pull returned rows: %v", rows)
		}
		return err
	}
	var reply any
	if err := c.Transport.Register(c.ServerAddrs()[0], func(string, []byte) ([]byte, error) {
		if r, ok := reply.([]byte); ok {
			return r, nil
		}
		return encReply(reply), nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		reply any
		pull  func() error
		model string
	}{
		{"vector pull, one value short", vecPullResp{Values: []float64{1}},
			func() error { _, err := v.Pull([]int64{1, 2}); return err }, "rv/0"},
		{"vector PullAll, range past the end", vecPullResp{Values: make([]float64, 8), Lo: 4},
			func() error { _, err := v.PullAll(); return err }, "rv/0"},
		{"vector PullAll, negative start", vecPullResp{Values: make([]float64, 2), Lo: -1},
			func() error { _, err := v.PullAll(); return err }, "rv/0"},
		{"column embedding, row never asked for", embPullResp{Rows: rows(4, make([]float64, 4), 9)},
			func() error { _, err := e.Pull([]int64{1}); return err }, "re/0"},
		{"column embedding, slice too wide", embPullResp{Rows: rows(5, make([]float64, 5), 1)},
			func() error { _, err := e.Pull([]int64{1}); return err }, "re/0"},
		{"column embedding, block shorter than its rows", embPullResp{Rows: rows(4, make([]float64, 3), 1)},
			func() error { _, err := e.Pull([]int64{1}); return err }, "re/0"},
		{"column embedding, requested row missing", embPullResp{Rows: rows(4, make([]float64, 4), 1)},
			func() error { _, err := e.Pull([]int64{1, 2}); return err }, "re/0"},
		{"column embedding, rows out of request order", embPullResp{Rows: rows(4, make([]float64, 8), 2, 1)},
			func() error { _, err := e.Pull([]int64{1, 2}); return err }, "re/0"},
		{"hash embedding, row never asked for", embPullResp{Rows: rows(4, make([]float64, 4), 9)},
			func() error { _, err := h.Pull([]int64{1}); return err }, "rh/0"},
		{"hash embedding, rows too narrow", embPullResp{Rows: rows(3, make([]float64, 3), 1)},
			func() error { _, err := h.Pull([]int64{1}); return err }, "rh/0"},
		{"hash embedding, block longer than its rows", embPullResp{Rows: rows(4, make([]float64, 9), 1, 2)},
			func() error { _, err := h.Pull([]int64{1, 2}); return err }, "rh/0"},
		{"hash embedding, requested row missing", embPullResp{Rows: rows(4, nil)},
			func() error { _, _, err := h.PullBatch([]int64{1, 1}); return err }, "rh/0"},
		{"hash embedding, a reply of another message type", servePullResp{Rows: rows(4, make([]float64, 4), 1)},
			func() error { _, err := h.Pull([]int64{1}); return err }, "message id"},
		{"serve pull, row never asked for", servePullResp{Rows: rows(4, make([]float64, 4), 9)},
			func() error { _, err := sc.Pull([]int64{1}); return err }, "rh/0"},
		{"serve pull, rows too wide", servePullResp{Rows: rows(5, make([]float64, 5), 1)},
			func() error { _, err := sc.Pull([]int64{1}); return err }, "rh/0"},
		{"serve pull, block shorter than its rows", servePullResp{Rows: rows(4, make([]float64, 7), 1, 2)},
			func() error { _, err := sc.Pull([]int64{1, 2}); return err }, "rh/0"},
		{"serve pull, requested row missing", servePullResp{Rows: rows(4, make([]float64, 4), 2)},
			func() error { _, err := sc.Pull([]int64{1, 2}); return err }, "rh/0"},
		// What the streaming id check meets first: the reply's ids are
		// compared with the request's as they are read.
		{"hash embedding, first id differs", embPullResp{Rows: rows(4, make([]float64, 12), 9, 2, 3)},
			func() error { return noRows(h.Pull([]int64{1, 2, 3})) }, "rh/0"},
		{"hash embedding, a middle id differs", embPullResp{Rows: rows(4, make([]float64, 12), 1, 9, 3)},
			func() error { return noRows(h.Pull([]int64{1, 2, 3})) }, "rh/0"},
		{"hash embedding, last id differs", embPullResp{Rows: rows(4, make([]float64, 12), 1, 2, 9)},
			func() error { return noRows(h.Pull([]int64{1, 2, 3})) }, "rh/0"},
		{"hash embedding, one id too few", embPullResp{Rows: rows(4, make([]float64, 8), 1, 2)},
			func() error { return noRows(h.Pull([]int64{1, 2, 3})) }, "rh/0"},
		{"hash embedding, one id too many", embPullResp{Rows: rows(4, make([]float64, 16), 1, 2, 3, 4)},
			func() error { return noRows(h.Pull([]int64{1, 2, 3})) }, "rh/0"},
		{"hash embedding, right ids, block one row short", embPullResp{Rows: rows(4, make([]float64, 8), 1, 2, 3)},
			func() error { return noRows(h.Pull([]int64{1, 2, 3})) }, "rh/0"},
		{"column embedding, last id differs", embPullResp{Rows: rows(4, make([]float64, 12), 1, 2, 9)},
			func() error { return noRows(e.Pull([]int64{1, 2, 3})) }, "re/0"},
		{"serve pull, first id differs", servePullResp{Rows: rows(4, make([]float64, 12), 9, 2, 3)},
			func() error { return noRows(sc.Pull([]int64{1, 2, 3})) }, "rh/0"},
		{"serve pull, a middle id differs", servePullResp{Rows: rows(4, make([]float64, 12), 1, 9, 3)},
			func() error { return noRows(sc.Pull([]int64{1, 2, 3})) }, "rh/0"},
		{"serve pull, last id differs", servePullResp{Rows: rows(4, make([]float64, 12), 1, 2, 9)},
			func() error { return noRows(sc.Pull([]int64{1, 2, 3})) }, "rh/0"},
		{"serve pull, one id too few", servePullResp{Rows: rows(4, make([]float64, 8), 1, 2)},
			func() error { return noRows(sc.Pull([]int64{1, 2, 3})) }, "rh/0"},
		{"serve pull, one id too many", servePullResp{Rows: rows(4, make([]float64, 16), 1, 2, 3, 4)},
			func() error { return noRows(sc.Pull([]int64{1, 2, 3})) }, "rh/0"},
		{"serve pull, right ids, block one row short", servePullResp{Rows: rows(4, make([]float64, 8), 1, 2, 3)},
			func() error { return noRows(sc.Pull([]int64{1, 2, 3})) }, "rh/0"},
		{"hot head, skips an id it then repeats", servePullResp{Rows: rows(4, make([]float64, 12), 101, 103, 102)},
			func() error { return noRows(sc.Pull([]int64{101, 102, 103})) }, "the hot head of rh"},
		{"hot head, an id nobody asked for", servePullResp{Rows: rows(4, make([]float64, 4), 104)},
			func() error { return noRows(sc.Pull([]int64{101, 102, 103})) }, "the hot head of rh"},
		{"hot head, right ids, block one row short", servePullResp{Rows: rows(4, make([]float64, 4), 101, 103)},
			func() error { return noRows(sc.Pull([]int64{101, 102, 103})) }, "the hot head of rh"},
		// The multi-part ServePull reply: one batch per part asked for, in
		// request order, and nothing behind the last.
		{"serve parts, one part too few", serveParts{a, b},
			func() error { return noRows(rs.Pull(rsIDs)) }, rsPart(2)},
		{"serve parts, one part too many", serveParts{a, b, c3, c3},
			func() error { return noRows(rs.Pull(rsIDs)) }, rsPart(2)},
		{"serve parts, two parts swapped", serveParts{b, a, c3},
			func() error { return noRows(rs.Pull(rsIDs)) }, rsPart(0)},
		{"serve parts, a middle part one row short", serveParts{a, bShort, c3},
			func() error { return noRows(rs.Pull(rsIDs)) }, rsPart(1)},
		{"serve parts, a trailing byte", append(encReply(serveParts{a, b, c3}), 0),
			func() error { return noRows(rs.Pull(rsIDs)) }, rsPart(2)},
		{"serve parts, the right parts under another message id", append([]byte{tagBin, msgEmbPullResp}, encReply(serveParts{a, b, c3})[2:]...),
			func() error { return noRows(rs.Pull(rsIDs)) }, "message id"},
		{"matrix, a row never asked for", embPullResp{Rows: rows(3, make([]float64, 6), 0, 9)},
			func() error { _, err := m.PullAll(); return err }, "rm/0"},
		{"matrix, rows wider than its columns", embPullResp{Rows: rows(9, make([]float64, 18), 0, 1)},
			func() error { _, err := m.PullAll(); return err }, "rm/0"},
		{"matrix, block shorter than its rows", embPullResp{Rows: rows(3, make([]float64, 4), 0, 1)},
			func() error { _, err := m.PullAll(); return err }, "rm/0"},
		{"sparse vector, whole-partition rows wider than one", embPullResp{Rows: rows(2, make([]float64, 2), 1)},
			func() error { _, err := sv.PullAll(); return err }, "rsv/0"},
		{"neighbor, too few segments", nbrs([]int64{7}, 0, 1),
			func() error { _, err := nb.PullBatch([]int64{1, 2}); return err }, "rn/0"},
		{"neighbor, too many segments", nbrs([]int64{7}, 0, 1, 1, 1),
			func() error { _, err := nb.Pull([]int64{1, 2}); return err }, "rn/0"},
		{"neighbor, offsets past the neighbours", []byte{tagBin, msgNbrPullResp, 2, 1, 3, 2, 14},
			func() error { _, err := nb.PullBatch([]int64{1, 2}); return err }, "rn/0"},
		{"neighbor, a reply of another message type", vecPullResp{},
			func() error { _, err := nb.PullBatch([]int64{1}); return err }, "message id"},
		{"neighbor, a 0x00-tagged reply", append([]byte{0x00}, enc(nbrs([]int64{7}, 0, 1))[1:]...),
			func() error { _, err := nb.PullBatch([]int64{1}); return err }, "unknown wire format tag"},
	} {
		reply = tc.reply
		err := tc.pull()
		if err == nil || !strings.Contains(err.Error(), tc.model) {
			t.Errorf("%s: err = %v, want an error naming %s", tc.name, err, tc.model)
		}
		// The multi-part shapes again, straight into a block: a reply that is
		// rejected has written none of it, whichever part gave it away.
		if !strings.HasPrefix(tc.name, "serve parts") {
			continue
		}
		body, _ := tc.reply.([]byte)
		if body == nil {
			body = encReply(tc.reply)
		}
		block := make([]float64, 6*2)
		if err := dec(body, rsTarget(block)); err == nil || !strings.Contains(err.Error(), tc.model) {
			t.Errorf("%s, decoded directly: err = %v, want an error naming %s", tc.name, err, tc.model)
		}
		if slices.ContainsFunc(block, func(v float64) bool { return v != 0 }) {
			t.Errorf("%s: the rejected reply wrote into the block: %v", tc.name, block)
		}
	}
	// The honest reply fills the block.
	block := make([]float64, 6*2)
	if err := dec(encReply(serveParts{a, b, c3}), rsTarget(block)); err != nil || !slices.Equal(block, []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2}) {
		t.Errorf("an honest three-part reply: %v, block %v", err, block)
	}
}

// nbrHandle is a handle to an existing Neighbor model.
func nbrHandle(c *Client, name string) (*Nbr, error) {
	meta, err := c.GetModel(name)
	return &Nbr{c: c, Meta: meta}, err
}

// rebalance runs one load-balancing pass on the master.
func rebalance(c *Client) (RebalanceResult, error) {
	var res RebalanceResult
	err := c.invoke(c.masterAddr, "Rebalance", nil, &res)
	return res, err
}

package ps

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// oneServerMeta lays model out over a single server so engine-level
// tests get one partition covering the whole route space.
// invalidate drops the client's cached layout of model, so the next
// operation routes by its handle's own snapshot again.
func (c *Client) invalidate(model string) {
	c.mu.Lock()
	delete(c.cache, model)
	c.mu.Unlock()
}

func oneServerMeta(meta ModelMeta) ModelMeta {
	return layout(meta, []string{"s0"})
}

// TestSealedNeighborExportStaysSealed checks that a sealed CSR source
// exports CSR and the destination arrives sealed with identical
// adjacency.
func TestSealedNeighborExportStaysSealed(t *testing.T) {
	meta := oneServerMeta(ModelMeta{Name: "n", Kind: Neighbor})
	src, _ := newEngine(meta, 0, 0)
	ne := src.(*nbrEngine)
	ne.push(nbrPushReq{Tables: map[int64][]int64{1: {3, 2, 2}, 9: {1}}})
	ne.seal()
	img := exportAll(ne)
	if !img.Sealed || img.Nbr != nil || len(img.CsrIDs) != 2 {
		t.Fatalf("sealed export did not produce CSR: %+v", img)
	}
	dst, _ := newEngine(meta, 0, 0)
	if err := mergeImage(dst, enc(img)); err != nil {
		t.Fatalf("merge: %v", err)
	}
	de := dst.(*nbrEngine)
	if de.state != nbrSealed {
		t.Fatalf("destination of a sealed export is not sealed")
	}
	reply, err := de.pull(pullReq{Keys: []int64{1}})
	var got nbrPullResp
	if err == nil {
		err = dec(reply, &got)
	}
	if err != nil || !reflect.DeepEqual(got.Nbrs.Adj, []int64{2, 3}) {
		t.Fatalf("pull(1) = %v, %v, want [2 3]", got.Nbrs, err)
	}
}

// TestEmbSplitClearsMemo: rows move only in a split, so a split drops
// every value a psFunc left in the partition's Memo, while locking and
// unlocking keep them; each engine has a Memo of its own.
func TestEmbSplitClearsMemo(t *testing.T) {
	meta := oneServerMeta(ModelMeta{Name: "e", Kind: Embedding, Dim: 3})
	src, _ := newEngine(meta, 0, 0)
	twin, _ := newEngine(meta, 0, 0)
	view := PartView{eng: src}
	rows := lockRows(t, view)
	memo := rows.Memo()
	if len(memo) != memoSlots {
		t.Fatalf("Memo has %d slots, want %d", len(memo), memoSlots)
	}
	for i := range memo {
		memo[i] = rows.Rows(nil, []int64{int64(i), 1000 + int64(i)})
	}
	rows.Unlock()
	if other := lockRows(t, PartView{eng: twin}); other.Memo()[0] != nil {
		t.Fatal("a second engine sees the first one's Memo")
	} else {
		other.Unlock()
	}
	rows = lockRows(t, view)
	if rows.Memo()[memoSlots-1] == nil {
		t.Fatalf("a second lock sees Memo %v", rows.Memo())
	}
	rows.Unlock()
	if err := src.splitAt(meta.routeSpan() / 2); err != nil {
		t.Fatal(err)
	}
	rows = lockRows(t, view)
	defer rows.Unlock()
	for i, m := range rows.Memo() {
		if m != nil {
			t.Fatalf("Memo slot %d survived the split", i)
		}
	}
}

// TestEmbSplitLandsMidShard splits a default-sharded (32-way) embedding
// engine at the route-space midpoint. The shard hash is independent of
// the route hash, so the split necessarily lands mid-shard: every shard
// gives up exactly its moved keys. The kept and exported halves must
// partition the original rows with no loss, no overlap, and optimizer
// state following its rows.
func TestEmbSplitLandsMidShard(t *testing.T) {
	meta := oneServerMeta(ModelMeta{Name: "e", Kind: Embedding, Dim: 3, Opt: Adam(0.05)})
	src, _ := newEngine(meta, 0, 0)
	ee := src.(*embEngine)
	if len(ee.shards) != defaultEmbShards {
		t.Fatalf("expected %d shards, got %d", defaultEmbShards, len(ee.shards))
	}
	const n = 400
	grads := make(map[int64][]float64)
	for id := int64(0); id < n; id++ {
		grads[id] = []float64{1, 2, 3}
	}
	if err := pushReq(ee, embPushReq{Rows: mustRows(grads, 3), Grad: true}); err != nil {
		t.Fatalf("grad push: %v", err)
	}
	// rowMaps views an image's rows and moments by id.
	type rowMaps struct{ emb, mom, vel map[int64][]float64 }
	mapsOf := func(img partImage) rowMaps {
		return rowMaps{img.Rows.Map(), img.Mom.Map(), img.Vel.Map()}
	}
	before := mapsOf(exportAll(ee))

	mid := meta.routeSpan() / 2
	moved := mapsOf(ee.export(mid, meta.routeSpan()))
	if err := ee.splitAt(mid); err != nil {
		t.Fatalf("splitAt: %v", err)
	}
	kept := mapsOf(exportAll(ee))

	if len(moved.emb) == 0 || len(kept.emb) == 0 {
		t.Fatalf("split landed on one side only: moved=%d kept=%d", len(moved.emb), len(kept.emb))
	}
	if len(moved.emb)+len(kept.emb) != len(before.emb) {
		t.Fatalf("rows lost or duplicated: %d + %d != %d", len(moved.emb), len(kept.emb), len(before.emb))
	}
	for id, row := range before.emb {
		rk := routeBucket(id)
		half := kept
		if rk >= mid {
			half = moved
		}
		if !reflect.DeepEqual(half.emb[id], row) {
			t.Fatalf("row %d (route %d) wrong after split", id, rk)
		}
		if !reflect.DeepEqual(half.mom[id], before.mom[id]) || !reflect.DeepEqual(half.vel[id], before.vel[id]) {
			t.Fatalf("optimizer state of row %d did not follow its half", id)
		}
	}
	// The narrowed engine must now reject moved keys as range-moved.
	for id := int64(0); id < n; id++ {
		if routeBucket(id) >= mid {
			err := pushReq(ee, embPushReq{Rows: mustRows(map[int64][]float64{id: {1, 1, 1}}, 3)})
			if !IsRangeMovedErr(err) {
				t.Fatalf("push of moved key %d: err = %v, want range-moved", id, err)
			}
			break
		}
	}
}

// TestLoadReportShowsPushSkew drives a skewed push workload and checks
// the skew is visible in the master's load report (satellite: the
// planner's input signal).
func TestLoadReportShowsPushSkew(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "skew", Size: 1000, Partitions: 4})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// 40 push requests into partition 0's range [0, 250), 2 into the rest.
	for i := 0; i < 40; i++ {
		if err := v.PushAdd([]int64{int64(i % 250)}, []float64{1}); err != nil {
			t.Fatalf("hot push: %v", err)
		}
	}
	v.PushAdd([]int64{300}, []float64{1})
	v.PushAdd([]int64{900}, []float64{1})

	rep, err := cl.LoadReport()
	if err != nil {
		t.Fatalf("LoadReport: %v", err)
	}
	var hot, rest int64
	for _, pl := range rep.Parts {
		if pl.Model != "skew" {
			continue
		}
		if pl.Lo == 0 {
			hot = pl.Muts
		} else {
			rest += pl.Muts
		}
	}
	if hot < 40 {
		t.Fatalf("hot partition reported %d mutations, want >= 40", hot)
	}
	if rest >= hot {
		t.Fatalf("load report shows no skew: hot=%d rest=%d", hot, rest)
	}
}

// TestSplitPartitionLive splits a dense vector partition while pushes
// are in flight: the sum over the vector afterwards must equal the
// number of increments (nothing lost, nothing double-applied), and both
// a stale and a fresh client must read the post-split state.
func TestSplitPartitionLive(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	const size = 1 << 12
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "hot", Size: size, Partitions: 2})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	const workers, perWorker = 4, 150
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wcl := c.NewClient()
			wv, err := wcl.Vector("hot")
			if err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				idx := rng.Int63n(size)
				if err := wv.PushAdd([]int64{idx}, []float64{1}); err != nil {
					errs <- fmt.Errorf("worker %d push %d: %w", w, i, err)
					return
				}
				if i == perWorker/2 && w == 0 {
					if err := cl.SplitPartition("hot", 0, ""); err != nil {
						errs <- fmt.Errorf("split: %w", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	fresh := c.NewClient()
	meta, err := fresh.GetModel("hot")
	if err != nil {
		t.Fatalf("GetModel: %v", err)
	}
	if len(meta.Parts) != 3 {
		t.Fatalf("post-split partitions = %d, want 3", len(meta.Parts))
	}
	// The stale client (v still holds the pre-split handle meta) and a
	// fresh one must agree, and the total must account for every push.
	sum := func(vals []float64) (s float64) {
		for _, x := range vals {
			s += x
		}
		return s
	}
	got, err := v.PullAll()
	if err != nil {
		t.Fatalf("stale PullAll: %v", err)
	}
	if s := sum(got); s != workers*perWorker {
		t.Fatalf("sum after split = %v, want %d", s, workers*perWorker)
	}
	fv, _ := fresh.Vector("hot")
	got2, err := fv.PullAll()
	if err != nil {
		t.Fatalf("fresh PullAll: %v", err)
	}
	if !reflect.DeepEqual(got, got2) {
		t.Fatalf("stale and fresh clients disagree after split")
	}
	st, err := c.FailoverStats()
	if err != nil {
		t.Fatalf("FailoverStats: %v", err)
	}
	if st.Splits != 1 {
		t.Fatalf("FailoverStats.Splits = %d, want 1", st.Splits)
	}
}

// TestMovePartitionToLateServer adds a server after the model exists and
// migrates a partition onto it; data survives, a stale client heals, and
// the applied counter follows the partition (applied == sent).
func TestMovePartitionToLateServer(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "mv", Size: 100, Partitions: 2})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	if err := v.SetAll(vals); err != nil {
		t.Fatalf("SetAll: %v", err)
	}
	late, err := c.AddServer("late")
	if err != nil {
		t.Fatalf("AddServer: %v", err)
	}
	// Move the upper partition (stable id 1) onto the late server.
	if err := cl.MovePartition("mv", 1, late); err != nil {
		t.Fatalf("MovePartition: %v", err)
	}
	fresh := c.NewClient()
	meta, _ := fresh.GetModel("mv")
	if p, ok := meta.partByID(1); !ok || p.Server != late {
		t.Fatalf("partition 1 on %v, want %s", p.Server, late)
	}
	// Stale client: its cached layout still points at the old owner; the
	// push must be fenced there and transparently rerouted.
	staleCl := c.NewClient()
	sv, _ := staleCl.Vector("mv")
	if err := cl.MovePartition("mv", 1, c.ServerAddrs()[0]); err != nil {
		t.Fatalf("second move: %v", err)
	}
	if err := sv.PushAdd([]int64{99}, []float64{1}); err != nil {
		t.Fatalf("stale push after move: %v", err)
	}
	got, err := sv.PullAll()
	if err != nil {
		t.Fatalf("PullAll: %v", err)
	}
	for i := 0; i < 99; i++ {
		if got[i] != vals[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
	if got[99] != 100 {
		t.Fatalf("got[99] = %v, want 100", got[99])
	}
	// Exactly-once across the moves: every mutating call one of the three
	// clients sent is applied exactly once somewhere.
	applied, _, err := c.MutationTotals()
	if err != nil {
		t.Fatalf("MutationTotals: %v", err)
	}
	var sent int64
	for _, cc := range []*Client{cl, fresh, staleCl} {
		s, _ := cc.MutationStats()
		sent += s
	}
	if applied != sent {
		t.Fatalf("applied = %d, sent = %d", applied, sent)
	}
}

// TestDrainServerScaleIn drains one server of a three-server cluster:
// every primary leaves it, data survives, and it takes no new models.
func TestDrainServerScaleIn(t *testing.T) {
	c, cl := newTestCluster(t, 3)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "d", Size: 90, Partitions: 3})
	s, _ := cl.CreateSparseVector("ds")
	vals := make([]float64, 90)
	for i := range vals {
		vals[i] = float64(i) + 0.5
	}
	v.SetAll(vals)
	s.PushAdd([]int64{1, 1 << 40}, []float64{1, 2})

	victim := c.ServerAddrs()[0]
	if err := cl.DrainServer(victim); err != nil {
		t.Fatalf("DrainServer: %v", err)
	}
	fresh := c.NewClient()
	for _, name := range []string{"d", "ds"} {
		meta, err := fresh.GetModel(name)
		if err != nil {
			t.Fatalf("GetModel %s: %v", name, err)
		}
		for _, p := range meta.Parts {
			if p.Server == victim {
				t.Fatalf("%s/%d still on drained server %s", name, p.Index, victim)
			}
		}
	}
	// A model created after the drain must avoid the drained server too.
	v2, err := cl.CreateDenseVector(DenseVectorSpec{Name: "post", Size: 10})
	if err != nil {
		t.Fatalf("create post-drain: %v", err)
	}
	for _, p := range v2.Meta.Parts {
		if p.Server == victim {
			t.Fatalf("post-drain model placed on drained server")
		}
	}
	got, err := v.PullAll()
	if err != nil {
		t.Fatalf("PullAll: %v", err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
	sm, err := s.PullAll()
	if err != nil {
		t.Fatalf("sparse PullAll: %v", err)
	}
	if sm[1] != 1 || sm[1<<40] != 2 {
		t.Fatalf("sparse data lost after drain: %v", sm)
	}
}

// TestRebalanceFillsEmptyServerAndSplitsHot checks the planner end to
// end: a late, empty server receives a partition, and a partition hot
// enough past the threshold is split.
func TestRebalanceFillsEmptyServerAndSplitsHot(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "rb", Size: 1024, Partitions: 2})
	c.Master.SetRebalanceOptions(RebalanceOptions{SplitFactor: 1.5, MinLoad: 8})
	if _, err := c.AddServer("late"); err != nil {
		t.Fatalf("AddServer: %v", err)
	}
	// Heavy skew into partition 0's range [0, 512).
	for i := 0; i < 48; i++ {
		if err := v.PushAdd([]int64{int64(i % 512)}, []float64{1}); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	res, err := rebalance(cl)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	// With one partition per original server there is no multi-partition
	// server to steal from, so the planner fills the empty server by
	// homing the split's upper half there. Either way the outcomes are:
	// the hot partition split, and the late server owns a primary.
	if res.Splits < 1 {
		t.Fatalf("hot partition not split: %+v", res)
	}
	fresh := c.NewClient()
	meta, _ := fresh.GetModel("rb")
	if len(meta.Parts) < 3 {
		t.Fatalf("post-rebalance partitions = %d, want >= 3", len(meta.Parts))
	}
	late := c.ServerAddrs()[len(c.ServerAddrs())-1]
	onLate := 0
	for _, p := range meta.Parts {
		if p.Server == late {
			onLate++
		}
	}
	if onLate == 0 {
		t.Fatalf("late server still empty after rebalance: %+v (%+v)", meta.Parts, res)
	}
	sum := 0.0
	got, err := v.PullAll()
	if err != nil {
		t.Fatalf("PullAll: %v", err)
	}
	for _, x := range got {
		sum += x
	}
	if int(sum) != 48 {
		t.Fatalf("sum = %v after rebalance, want 48 (all pushes preserved)", sum)
	}
}

// TestCheckpointManifestRestoresSplitLayout checkpoints a model after a
// split and checks that recovery from a full server loss restores the
// post-split partition table (not the CreateModel-time one) along with
// the data.
func TestCheckpointManifestRestoresSplitLayout(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "ck", Size: 64, Partitions: 2})
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i) * 2
	}
	v.SetAll(vals)
	if err := cl.SplitPartition("ck", 0, ""); err != nil {
		t.Fatalf("split: %v", err)
	}
	if err := cl.Checkpoint("ck"); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for _, addr := range c.ServerAddrs() {
		c.KillServer(addr)
	}
	expire(c.Master, c.ServerAddrs()...)
	fresh := c.NewClient()
	meta, err := fresh.GetModel("ck")
	if err != nil {
		t.Fatalf("GetModel: %v", err)
	}
	if len(meta.Parts) != 3 {
		t.Fatalf("restored partitions = %d, want 3 (post-split)", len(meta.Parts))
	}
	if meta.Parts[0].Hi != 16 || meta.Parts[1].Lo != 16 || meta.Parts[1].Hi != 32 {
		t.Fatalf("restored ranges wrong: %+v", meta.Parts)
	}
	fv, _ := fresh.Vector("ck")
	got, err := fv.PullAll()
	if err != nil {
		t.Fatalf("PullAll: %v", err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("restored[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
}

// TestStaleClientHealsAfterSplit drives every routed operation through
// a client whose cached layout predates a split: the range fence rejects
// the bucket that straddles the split whole, and the client re-splits
// just that bucket under the refreshed layout. Each case seeds 64 keys
// through a fresh client, warms the stale one, splits partition 0, runs
// one stale operation and checks every key — and that the servers
// applied exactly what the clients sent.
func TestStaleClientHealsAfterSplit(t *testing.T) {
	const n = 64
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	// Each case returns the stale operations and a check of the outcome.
	// Seeds differ per key, so a lost, doubled or misplaced value shows.
	cases := []struct {
		name  string
		setup func(t *testing.T, cl, stale *Client) (op func() error, check func(t *testing.T))
	}{
		{"Vector", func(t *testing.T, cl, stale *Client) (func() error, func(*testing.T)) {
			v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "m", Size: n, Partitions: 2})
			if err != nil {
				t.Fatal(err)
			}
			seed, ones, nines := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range seed {
				seed[i], ones[i], nines[i] = float64(1+i), 1, 9
			}
			if err := v.SetAll(seed); err != nil {
				t.Fatal(err)
			}
			sv, _ := stale.Vector("m")
			if _, err := sv.Pull(ids[:4]); err != nil {
				t.Fatal(err)
			}
			op := func() error {
				// Pull, PushAdd and SetAll in turn. Each heals the client's
				// cache, so the cache is dropped in between: the next one
				// routes by the handle's own pre-split snapshot again.
				got, err := sv.Pull(ids)
				if err != nil {
					return err
				}
				for i, x := range got {
					if x != seed[i] {
						t.Errorf("stale Pull[%d] = %v, want %v", i, x, seed[i])
					}
				}
				stale.invalidate("m")
				if err := sv.PushAdd(ids, ones); err != nil {
					return err
				}
				stale.invalidate("m")
				return sv.SetAll(nines)
			}
			return op, func(t *testing.T) {
				got, err := v.PullAll()
				if err != nil {
					t.Fatal(err)
				}
				for i, x := range got {
					if x != 9 {
						t.Fatalf("element %d = %v after the stale SetAll, want 9", i, x)
					}
				}
			}
		}},
		{"SparseVec", func(t *testing.T, cl, stale *Client) (func() error, func(*testing.T)) {
			s, err := cl.CreateSparseVector("m")
			if err != nil {
				t.Fatal(err)
			}
			seed, ones := make([]float64, n), make([]float64, n)
			for i, id := range ids {
				seed[i], ones[i] = float64(1+id), 1
			}
			if err := s.PushSet(ids, seed); err != nil {
				t.Fatal(err)
			}
			ss := &SparseVec{emb: &Emb{c: stale, Meta: s.Meta}, Meta: s.Meta}
			if _, err := ss.Pull(ids[:4]); err != nil {
				t.Fatal(err)
			}
			op := func() error {
				got, err := ss.Pull(ids)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(got, seed) {
					t.Errorf("stale Pull = %v, want %v", got, seed)
				}
				stale.invalidate("m")
				return ss.PushAdd(ids, ones)
			}
			return op, func(t *testing.T) {
				got, err := s.Pull(ids)
				if err != nil {
					t.Fatal(err)
				}
				for i, id := range ids {
					if got[i] != float64(2+id) {
						t.Fatalf("key %d = %v, want %v", id, got[i], float64(2+id))
					}
				}
			}
		}},
		{"Emb", func(t *testing.T, cl, stale *Client) (func() error, func(*testing.T)) {
			e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "m", Dim: 2, Partitions: 2})
			if err != nil {
				t.Fatal(err)
			}
			seed, add := make(map[int64][]float64, n), make(map[int64][]float64, n)
			for _, id := range ids {
				seed[id], add[id] = []float64{float64(id), 1}, []float64{0, 1}
			}
			if err := e.PushSet(seed); err != nil {
				t.Fatal(err)
			}
			se, _ := stale.Embedding("m")
			if _, err := se.Pull(ids[:4]); err != nil {
				t.Fatal(err)
			}
			op := func() error {
				got, err := se.Pull(ids)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(got, seed) {
					t.Errorf("stale Pull = %v, want %v", got, seed)
				}
				stale.invalidate("m")
				return se.PushAdd(add)
			}
			return op, func(t *testing.T) {
				got, err := e.Pull(ids)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range ids {
					if want := []float64{float64(id), 2}; !reflect.DeepEqual(got[id], want) {
						t.Fatalf("row %d = %v, want %v", id, got[id], want)
					}
				}
			}
		}},
		{"Nbr", func(t *testing.T, cl, stale *Client) (func() error, func(*testing.T)) {
			nb, err := cl.CreateNeighbor("m")
			if err != nil {
				t.Fatal(err)
			}
			seed, more := make(map[int64][]int64, n), make(map[int64][]int64, n)
			for _, id := range ids {
				seed[id], more[id] = []int64{id + 1}, []int64{id + 2}
			}
			if err := nb.Push(seed); err != nil {
				t.Fatal(err)
			}
			sn, _ := nbrHandle(stale, "m")
			if _, err := sn.Pull(ids[:4]); err != nil {
				t.Fatal(err)
			}
			op := func() error {
				got, err := sn.Pull(ids)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(got, seed) {
					t.Errorf("stale Pull = %v, want %v", got, seed)
				}
				stale.invalidate("m")
				return sn.Push(more)
			}
			return op, func(t *testing.T) {
				got, err := nb.Pull(ids)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range ids {
					if want := []int64{id + 1, id + 2}; !reflect.DeepEqual(got[id], want) {
						t.Fatalf("vertex %d = %v, want %v (an append lost or doubled)", id, got[id], want)
					}
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, cl := newTestCluster(t, 2)
			stale := c.NewClient()
			op, check := tc.setup(t, cl, stale)
			if err := cl.SplitPartition("m", 0, ""); err != nil {
				t.Fatalf("split: %v", err)
			}
			if err := op(); err != nil {
				t.Fatalf("stale operation after split: %v", err)
			}
			check(t)
			applied, _, err := c.MutationTotals()
			if err != nil {
				t.Fatalf("MutationTotals: %v", err)
			}
			var sent int64
			for _, cc := range []*Client{cl, stale} {
				s, _ := cc.MutationStats()
				sent += s
			}
			if applied != sent {
				t.Fatalf("applied = %d, sent = %d after healed split operations", applied, sent)
			}
		})
	}
}

// TestSplitRejectedForColumnKinds pins the unsplittable kinds: column
// partitions are structural, so the master refuses to split them.
func TestSplitRejectedForColumnKinds(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	if _, err := cl.CreateEmbedding(EmbeddingSpec{Name: "col", Dim: 4, ByColumn: true}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := cl.SplitPartition("col", 0, ""); err == nil {
		t.Fatal("split of a column-partitioned model succeeded, want error")
	}
}

package ps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"psgraph/internal/rpc"
)

// TestServePublishAndPull pins the basic serving contract: published
// rows are readable through the serving tier, never-pushed rows
// materialize deterministically (same init the primary would use), and
// none of it touches the primaries.
func TestServePublishAndPull(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "sv", Dim: 4, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64][]float64{1: {1, 1, 1, 1}, 2: {2, 2, 2, 2}, 3: {3, 3, 3, 3}}
	if err := e.PushSet(want); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PublishSnapshot("sv"); err != nil {
		t.Fatalf("publish: %v", err)
	}
	sc, err := cl.Serve("sv")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Pull([]int64{1, 2, 3})
	if err != nil {
		t.Fatalf("serve pull: %v", err)
	}
	for id, w := range want {
		if !reflect.DeepEqual(got[id], w) {
			t.Fatalf("row %d = %v, want %v", id, got[id], w)
		}
	}
	// A never-pushed row must match what the primary would lazily init.
	fromServe, err := sc.Pull([]int64{99})
	if err != nil {
		t.Fatalf("serve pull of absent row: %v", err)
	}
	fromPrimary, err := e.Pull([]int64{99})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromServe[99], fromPrimary[99]) {
		t.Fatalf("deterministic init mismatch: serve %v, primary %v", fromServe[99], fromPrimary[99])
	}
	if st := sc.Stats(); st.PrimaryRows != 0 {
		t.Fatalf("serve pulls touched the primaries: %+v", st)
	}
}

// TestServeSnapshotImmutability: rows pushed after a publication are
// invisible to the serving tier until the next publication; a republish
// plus Refresh (which invalidates the row cache via the snapshot-epoch
// advance) exposes them.
func TestServeSnapshotImmutability(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "im", Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PushSet(map[int64][]float64{7: {1, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PublishSnapshot("im"); err != nil {
		t.Fatal(err)
	}
	sc, err := cl.Serve("im")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sc.Pull([]int64{7}); err != nil || got[7][0] != 1 {
		t.Fatalf("pre-overwrite pull: %v, %v", got, err)
	}
	if err := e.PushSet(map[int64][]float64{7: {9, 9}}); err != nil {
		t.Fatal(err)
	}
	if got, err := sc.Pull([]int64{7}); err != nil || got[7][0] != 1 {
		t.Fatalf("snapshot leaked a post-publication push: %v, %v", got, err)
	}
	if _, err := cl.PublishSnapshot("im"); err != nil {
		t.Fatal(err)
	}
	sc.Refresh()
	if got, err := sc.Pull([]int64{7}); err != nil || got[7][0] != 9 {
		t.Fatalf("republish not visible after refresh: %v, %v", got, err)
	}
}

// TestServeFallbackBeforePublish: a handle opened before any publication
// answers from the primaries, and switches to the serving path once a
// snapshot appears — without being recreated.
func TestServeFallbackBeforePublish(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "fb", Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PushSet(map[int64][]float64{1: {5, 5}}); err != nil {
		t.Fatal(err)
	}
	sc, err := cl.Serve("fb")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sc.Pull([]int64{1}); err != nil || got[1][0] != 5 {
		t.Fatalf("fallback pull: %v, %v", got, err)
	}
	if st := sc.Stats(); st.PrimaryRows == 0 {
		t.Fatalf("pre-publication pull not attributed to primaries: %+v", st)
	}
	if _, err := cl.PublishSnapshot("fb"); err != nil {
		t.Fatal(err)
	}
	// Primary-served rows are never cached, so this miss re-resolves —
	// now through the snapshot path.
	before := sc.Stats()
	if got, err := sc.Pull([]int64{1}); err != nil || got[1][0] != 5 {
		t.Fatalf("post-publication pull: %v, %v", got, err)
	}
	after := sc.Stats()
	if after.SnapRows+after.HotRows == before.SnapRows+before.HotRows {
		t.Fatalf("post-publication pull did not use the serving path: %+v -> %+v", before, after)
	}
	if after.PrimaryRows != before.PrimaryRows {
		t.Fatalf("post-publication pull still hit the primaries: %+v -> %+v", before, after)
	}
}

// TestServeHotHeadReplication: heavily pulled ids are mined from the
// engine counters into the published hot set, the head is installed on
// every serving endpoint, and hot pulls are answered from it.
func TestServeHotHeadReplication(t *testing.T) {
	c, cl := newTestCluster(t, 3)
	c.Master.SetServeOptions(ServeOptions{Replicas: 2, HotKeys: 4})
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "hh", Dim: 2, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PushSet(map[int64][]float64{10: {1, 0}, 11: {2, 0}, 500: {3, 0}}); err != nil {
		t.Fatal(err)
	}
	// Skew the training-side pull counters toward 10 and 11.
	for i := 0; i < 50; i++ {
		if _, err := e.Pull([]int64{10, 11}); err != nil {
			t.Fatal(err)
		}
	}
	sl, err := cl.PublishSnapshot("hh")
	if err != nil {
		t.Fatal(err)
	}
	hot := make(map[int64]bool)
	for _, id := range sl.HotIDs {
		hot[id] = true
	}
	if !hot[10] || !hot[11] {
		t.Fatalf("hot head %v missing the skewed ids", sl.HotIDs)
	}
	// Every serving endpoint answers the full head locally.
	for _, ep := range sl.Endpoints {
		body, err := c.Transport.Call(ep, "ServeHotPull", enc(serveHotPullReq{
			Model: "hh", SnapEpoch: sl.SnapEpoch, IDs: []int64{10, 11},
		}))
		if err != nil {
			t.Fatalf("hot pull on %s: %v", ep, err)
		}
		var resp servePullResp
		if err := dec(body, &resp); err != nil {
			t.Fatal(err)
		}
		if rows := resp.Rows.Map(); len(rows) != 2 || rows[10][0] != 1 || rows[11][0] != 2 {
			t.Fatalf("hot head on %s = %v", ep, resp.Rows)
		}
	}
	sc, err := cl.Serve("hh")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sc.Pull([]int64{10, 11, 500}); err != nil || got[10][0] != 1 || got[500][0] != 3 {
		t.Fatalf("mixed pull: %v, %v", got, err)
	}
	if st := sc.Stats(); st.HotRows == 0 {
		t.Fatalf("hot ids not served from the replicated head: %+v", st)
	}
}

// TestServeThroughSplit is the satellite-2 regression: a reader keeps
// pulling while a partition splits mid-stream, and when enough
// republishes retire its snapshot generation the handle recovers by
// refetching the serve layout — the same resolve-and-retry the mutation
// path does on ErrStaleEpoch/range-moved.
func TestServeThroughSplit(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "sp", Dim: 2, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64][]float64)
	for id := int64(0); id < 64; id++ {
		want[id] = []float64{float64(id), 1}
	}
	if err := e.PushSet(want); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PublishSnapshot("sp"); err != nil {
		t.Fatal(err)
	}
	sc, err := cl.Serve("sp")
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		for id := int64(0); id < 64; id++ {
			got, err := sc.Pull([]int64{id})
			if err != nil {
				t.Fatalf("%s: pull %d: %v", stage, id, err)
			}
			if !reflect.DeepEqual(got[id], want[id]) {
				t.Fatalf("%s: row %d = %v, want %v", stage, id, got[id], want[id])
			}
		}
	}
	check("pre-split")
	if err := cl.SplitPartition("sp", 0, ""); err != nil {
		t.Fatalf("split: %v", err)
	}
	// Mid-split stream: the published generation still serves under its
	// own layout; the split must not disturb it.
	check("mid-split")
	// Republish twice: the generation the handle reads at is retired
	// (servers keep two), so its next miss is rejected stale and the
	// handle must refetch the layout to recover.
	if _, err := cl.PublishSnapshot("sp"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PublishSnapshot("sp"); err != nil {
		t.Fatal(err)
	}
	before := sc.Stats().Refreshes
	// Invalidate the local cache so pulls actually hit the wire at the
	// retired epoch (mirrors a reader whose cache was cold).
	sc.cache.invalidate()
	check("post-retirement")
	if sc.Stats().Refreshes == before {
		t.Fatal("handle recovered without refetching the serve layout")
	}
	if now := snapEpoch(sc); now < 3 {
		t.Fatalf("handle still at snap epoch %d after recovery", now)
	}
	_ = c
}

// TestServeSnapshotConsistency is the satellite-3 race test: writers
// push whole batches (one equal delta to every id, ids spread across
// engine shards) while publications run concurrently. Because the seed
// exports under the replication write gate, a snapshot must reflect
// each batch entirely or not at all — so in every published generation
// all ids carry the same value. A torn multi-shard push would show
// unequal values. Run with -race.
func TestServeSnapshotConsistency(t *testing.T) {
	_, cl := newTestCluster(t, 1)
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "cons", Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 48)
	batch := make(map[int64][]float64, len(ids))
	zero := make(map[int64][]float64, len(ids))
	for i := range ids {
		ids[i] = int64(i * 7) // spread over the 32-way shard hash
		batch[ids[i]] = []float64{1}
		zero[ids[i]] = []float64{0}
	}
	if err := e.PushSet(zero); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wcl := cl // clients are concurrency-safe; share the agent
			for {
				select {
				case <-stop:
					return
				default:
				}
				we, err := wcl.Embedding("cons")
				if err != nil {
					continue
				}
				if err := we.PushAdd(batch); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}()
	}
	sc, err := cl.Serve("cons")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		if _, err := cl.PublishSnapshot("cons"); err != nil {
			t.Fatalf("publish %d: %v", round, err)
		}
		sc.Refresh()
		got, err := sc.Pull(ids)
		if err != nil {
			t.Fatalf("pull %d: %v", round, err)
		}
		first := got[ids[0]][0]
		for _, id := range ids {
			if got[id][0] != first {
				close(stop)
				wg.Wait()
				t.Fatalf("round %d: torn snapshot: id %d = %v, id %d = %v",
					round, ids[0], first, id, got[id][0])
			}
		}
	}
	close(stop)
	wg.Wait()
}

// serveFrames is a client-side transport that records every ServePull it
// carries: the endpoint and the partitions the frame asked it for.
type serveFrames struct {
	rpc.Transport
	mu     sync.Mutex
	frames []servedFrame
}

type servedFrame struct {
	addr  string
	parts []int
}

func (f *serveFrames) Call(addr, method string, body []byte) ([]byte, error) {
	if method == "ServePull" {
		var req servePullReq
		if err := dec(body, &req); err != nil {
			return nil, err
		}
		fr := servedFrame{addr: addr}
		for _, p := range req.Parts {
			fr.parts = append(fr.parts, p.Part)
		}
		f.mu.Lock()
		f.frames = append(f.frames, fr)
		f.mu.Unlock()
	}
	return f.Transport.Call(addr, method, body)
}

// take returns the frames recorded since the last take.
func (f *serveFrames) take() []servedFrame {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.frames
	f.frames = nil
	return out
}

// servePlanCluster is the benchmark's serving shape — 3 servers, a 6-partition
// hash table of 600 known rows, no hot head, no agent cache — with a serve
// handle whose ServePull frames are recorded.
func servePlanCluster(t *testing.T, replicas int) (*Cluster, *ServeClient, ServeLayout, *serveFrames) {
	t.Helper()
	c, cl := newTestCluster(t, 3)
	c.Master.SetServeOptions(ServeOptions{Replicas: replicas, HotKeys: -1})
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "plan", Dim: 2, Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[int64][]float64)
	for id := int64(0); id < 600; id++ {
		rows[id] = []float64{float64(id), -float64(id)}
	}
	if err := e.PushSet(rows); err != nil {
		t.Fatal(err)
	}
	sl, err := cl.PublishSnapshot("plan")
	if err != nil {
		t.Fatal(err)
	}
	tr := &serveFrames{Transport: c.Transport}
	agent := NewClient(tr, c.MasterAddr)
	agent.SetRowCacheLimits(1, 0) // every lookup misses the agent's cache
	sc, err := agent.Serve("plan")
	if err != nil {
		t.Fatal(err)
	}
	return c, sc, sl, tr
}

// lookup pulls ids and checks every row against what servePlanCluster pushed.
func lookup(t *testing.T, sc *ServeClient, ids []int64) {
	t.Helper()
	got, err := sc.Pull(ids)
	if err != nil {
		t.Fatalf("pull %v: %v", ids, err)
	}
	for _, id := range ids {
		if want := []float64{float64(id), -float64(id)}; !reflect.DeepEqual(got[id], want) {
			t.Fatalf("row %d = %v, want %v", id, got[id], want)
		}
	}
}

// TestServePlan: a lookup is one frame per endpoint it needs. On 3 servers
// x 6 partitions x 2 replicas every endpoint holds 4 partitions and any two
// cover the table: a lookup that misses everywhere is exactly 2 ServePulls,
// one whose misses fit one endpoint is 1, no lookup sends two frames to one
// endpoint or asks for a partition twice, and the rotation spreads the rows
// evenly over the endpoints. With one replica a lookup is one frame per
// owning server.
func TestServePlan(t *testing.T) {
	c, sc, sl, tr := servePlanCluster(t, 2)
	owned := make(map[int][]int64) // partition index -> ids it owns
	for id := int64(0); id < 600; id++ {
		p := sl.Meta.Parts[sl.Meta.PartitionFor(id)].Index
		owned[p] = append(owned[p], id)
	}
	check := func(what string, frames []servedFrame, want int, parts ...int) {
		t.Helper()
		if len(frames) != want {
			t.Fatalf("%s: %d ServePull frames %v, want %d", what, len(frames), frames, want)
		}
		var asked []int
		eps := make(map[string]bool)
		for _, fr := range frames {
			if eps[fr.addr] {
				t.Fatalf("%s: two frames to %s: %v", what, fr.addr, frames)
			}
			eps[fr.addr] = true
			for _, p := range fr.parts {
				if !slices.Contains(sl.Replicas[p], fr.addr) {
					t.Fatalf("%s: %s asked for partition %d, which it does not hold", what, fr.addr, p)
				}
			}
			asked = append(asked, fr.parts...)
		}
		slices.Sort(asked)
		if !slices.Equal(asked, parts) {
			t.Fatalf("%s: frames asked for partitions %v, want each of %v once", what, asked, parts)
		}
	}
	rng := rand.New(rand.NewSource(5))
	every := []int{0, 1, 2, 3, 4, 5}
	for i := 0; i < 300; i++ {
		ids := make([]int64, 0, 64)
		for _, p := range every { // every partition misses, unevenly
			for k := 0; k < 4+rng.Intn(12); k++ {
				ids = append(ids, owned[p][rng.Intn(len(owned[p]))])
			}
		}
		lookup(t, sc, ids)
		check("all-miss lookup", tr.take(), 2, every...)
	}
	var total int64
	stats := make(map[string]int64)
	for _, ep := range sl.Endpoints {
		stats[ep] = c.servers[ep].serve.snapRows.Load()
		total += stats[ep]
	}
	if st := sc.Stats(); st.SnapRows != total || st.PrimaryRows != 0 {
		t.Fatalf("client counted %+v, the servers %d snapshot rows", st, total)
	}
	mean := float64(total) / float64(len(sl.Endpoints))
	for ep, n := range stats {
		if math.Abs(float64(n)-mean) > 0.1*mean {
			t.Errorf("%s served %d rows of %d, more than 10%% off the mean %.0f: %v", ep, n, total, mean, stats)
		}
	}
	// Misses that fit one endpoint: one partition, and every pair of
	// partitions some endpoint holds both of.
	for _, p := range every {
		lookup(t, sc, owned[p][:5])
		check("one-partition lookup", tr.take(), 1, p)
		for _, q := range every[p+1:] {
			shared := false
			for _, ep := range sl.Replicas[p] {
				shared = shared || slices.Contains(sl.Replicas[q], ep)
			}
			lookup(t, sc, append(slices.Clone(owned[p][:3]), owned[q][:3]...))
			if shared {
				check("two partitions on one endpoint", tr.take(), 1, p, q)
			} else {
				check("two partitions no endpoint shares", tr.take(), 2, p, q)
			}
		}
	}

	_, sc, sl, tr = servePlanCluster(t, 1)
	for i := 0; i < 10; i++ {
		ids := make([]int64, 64)
		for k := range ids {
			ids[k] = rng.Int63n(600)
		}
		lookup(t, sc, ids)
		check("one replica", tr.take(), 3, every...)
	}
}

// TestServeEndpointFailover: killing one serving endpoint mid-stream must
// not fail reads, leak them to the primaries or count a row twice — the
// partitions the dead endpoint was asked for, and only those, are planned
// again over their surviving replicas.
func TestServeEndpointFailover(t *testing.T) {
	c, sc, sl, tr := servePlanCluster(t, 2)
	rng := rand.New(rand.NewSource(9))
	stream := func(lookups int) (asked int64) {
		for i := 0; i < lookups; i++ {
			ids := rng.Perm(600)[:48] // distinct: nothing is cached, every row is a snapshot row
			batch := make([]int64, len(ids))
			for k, id := range ids {
				batch[k] = int64(id)
			}
			lookup(t, sc, batch)
			asked += int64(len(batch))
		}
		return asked
	}
	served := func() (n int64) {
		for _, ep := range sl.Endpoints {
			if srv := c.servers[ep]; srv != nil {
				n += srv.serve.snapRows.Load()
			}
		}
		return n
	}
	// The agent's one-row cache answers the odd row; every other row asked
	// for is counted once by the client and once by the server that sent it.
	asked := stream(30)
	st := sc.Stats()
	if st.CacheRows+st.SnapRows != asked || served() != st.SnapRows || st.TotalRows() != asked {
		t.Fatalf("before the kill: %d rows asked, client %+v, servers %d", asked, st, served())
	}
	tr.take()
	dead := sl.Endpoints[1]
	c.KillServer(dead)
	live := served() // the surviving servers' count so far
	asked = stream(60)
	now := sc.Stats()
	if now.PrimaryRows != 0 || now.Refreshes != st.Refreshes {
		t.Fatalf("failover leaked reads to the primaries or refetched the layout: %+v", now)
	}
	if got := now.CacheRows + now.SnapRows - st.CacheRows - st.SnapRows; got != asked {
		t.Fatalf("client counted %d rows for %d asked after the kill: %+v", got, asked, now)
	}
	if got, want := served()-live, now.SnapRows-st.SnapRows; got != want {
		t.Fatalf("live servers counted %d snapshot rows after the kill, the client %d", got, want)
	}
	// Frames to the dead endpoint were sent (the rotation still starts
	// there), and each was answered by frames to the live ones.
	toDead := 0
	for _, fr := range tr.take() {
		if fr.addr == dead {
			toDead++
		}
	}
	if toDead == 0 {
		t.Fatal("no lookup ever tried the killed endpoint: the failover path did not run")
	}
}

// TestServePartRejectionFailsTheFrame: a part the endpoint cannot answer —
// a generation it has retired, a partition it never held — rejects the
// whole ServePull, names that part and writes nothing; the handle reacts as
// it always has, by refetching the layout.
func TestServePartRejectionFailsTheFrame(t *testing.T) {
	c, sc, sl, _ := servePlanCluster(t, 2)
	ep := sl.Endpoints[0]
	var held, foreign []int
	for _, p := range sl.Meta.Parts {
		if slices.Contains(sl.Replicas[p.Index], ep) {
			held = append(held, p.Index)
		} else {
			foreign = append(foreign, p.Index)
		}
	}
	ask := func(epoch int64, parts ...int) error {
		req := servePullReq{Model: "plan", SnapEpoch: epoch}
		for _, p := range parts {
			req.Parts = append(req.Parts, servePart{Part: p, IDs: []int64{}})
		}
		_, err := c.Transport.Call(ep, "ServePull", enc(req))
		return err
	}
	before := c.servers[ep].serve.snapRows.Load()
	err := ask(sl.SnapEpoch, held[0], foreign[0], held[1])
	if want := fmt.Sprintf("plan/%d on this server", foreign[0]); !isNoServeSnapErr(err) || !strings.Contains(err.Error(), want) {
		t.Fatalf("a part the endpoint never held: err = %v, want a no-snapshot error naming %q", err, want)
	}
	if err := ask(sl.SnapEpoch+1, held[0], held[1]); !IsStaleSnapErr(err) || !strings.Contains(err.Error(), fmt.Sprintf("plan/%d", held[0])) {
		t.Fatalf("a generation the endpoint does not hold: err = %v, want a stale-snapshot error naming plan/%d", err, held[0])
	}
	if got := c.servers[ep].serve.snapRows.Load(); got != before {
		t.Fatalf("rejected frames counted %d rows", got-before)
	}
	// Two republishes retire the handle's generation everywhere: its next
	// lookup is rejected stale on its first frame, refetches and is served.
	for i := 0; i < 2; i++ {
		if _, err := c.NewClient().PublishSnapshot("plan"); err != nil {
			t.Fatal(err)
		}
	}
	refreshes := sc.Stats().Refreshes
	lookup(t, sc, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	if st, now := sc.Stats(), snapEpoch(sc); st.Refreshes == refreshes || st.PrimaryRows != 0 || now != sl.SnapEpoch+2 {
		t.Fatalf("after the generation was retired: %+v at snap epoch %d", st, now)
	}
}

// TestServeColumnEmbedding pins full-width reassembly across column
// partitions — the layout LINE trains (ByColumn), so this is the path
// examples/serve exercises.
func TestServeColumnEmbedding(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "col", Dim: 8, ByColumn: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64][]float64)
	for id := int64(1); id <= 5; id++ {
		row := make([]float64, 8)
		for j := range row {
			row[j] = float64(id)*10 + float64(j)
		}
		want[id] = row
	}
	if err := e.PushSet(want); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PublishSnapshot("col"); err != nil {
		t.Fatal(err)
	}
	sc, err := cl.Serve("col")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Pull([]int64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	for id, w := range want {
		if !reflect.DeepEqual(got[id], w) {
			t.Fatalf("column row %d = %v, want %v", id, got[id], w)
		}
	}
	if st := sc.Stats(); st.PrimaryRows != 0 {
		t.Fatalf("column serve leaked to primaries: %+v", st)
	}
}

// TestServeDenseVector pins the DenseVector serving path end to end.
func TestServeDenseVector(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "dv", Size: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.PushSet([]int64{3, 50, 99}, []float64{3, 50, 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PublishSnapshot("dv"); err != nil {
		t.Fatal(err)
	}
	sc, err := cl.Serve("dv")
	if err != nil {
		t.Fatal(err)
	}
	vals, err := sc.Pull([]int64{3, 50, 99})
	if err != nil {
		t.Fatal(err)
	}
	if vals[3][0] != 3 || vals[50][0] != 50 || vals[99][0] != 99 {
		t.Fatalf("dense serve = %v", vals)
	}
}

// TestRowCacheLRUEviction is the satellite-1 regression: the row cache
// holds its caps by evicting least-recently-used entries, recency is
// refreshed by lookups, and a byte cap works independently of the row
// cap.
func TestRowCacheLRUEviction(t *testing.T) {
	rc := newRowCache(4, 0)
	put := func(rc *rowCache, id int64, row ...float64) {
		rc.insert(0, rowWork{ids: []int64{id}}, len(row), row)
	}
	for i := int64(0); i < 4; i++ {
		put(rc, i, float64(i))
	}
	// Touch id 0 so id 1 becomes the LRU victim.
	got := []float64{-1}
	if missing, _ := rc.lookup([]int64{0}, 1, got); len(missing.ids) != 0 || got[0] != 0 {
		t.Fatalf("warm lookup missed: missing %v, row %v", missing.ids, got)
	}
	put(rc, 10, 10)
	put(rc, 11, 11)
	rc.mu.Lock()
	n := len(rc.rows)
	_, has0 := rc.rows[0]
	_, has1 := rc.rows[1]
	_, has2 := rc.rows[2]
	rc.mu.Unlock()
	if n != 4 {
		t.Fatalf("cache size = %d, want 4", n)
	}
	if !has0 {
		t.Fatal("recently used row 0 was evicted")
	}
	if has1 || has2 {
		t.Fatalf("LRU rows not evicted: has1=%v has2=%v", has1, has2)
	}
	if ev := rc.evictions.Load(); ev != 2 {
		t.Fatalf("evictions = %d, want 2", ev)
	}

	// Byte cap: 3-wide rows cost 8*3+40 = 64 bytes; cap at two rows.
	bc := newRowCache(0, 128)
	for i := int64(0); i < 5; i++ {
		put(bc, i, 1, 2, 3)
	}
	bn := len(bc.rows)
	bb := int64(bn) * bc.entBytes()
	if bn != 2 || bb > 128 {
		t.Fatalf("byte-capped cache: %d rows, %d bytes", bn, bb)
	}
	if bc.evictions.Load() != 3 {
		t.Fatalf("byte-cap evictions = %d, want 3", bc.evictions.Load())
	}
}

// TestRowCacheLimitsEndToEnd: a client-configured row cap bounds the
// prefetch cache under real PrefetchRows traffic and reports evictions.
func TestRowCacheLimitsEndToEnd(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	cl.SetRowCacheLimits(8, 0)
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "lim", Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 32; i++ {
		if _, _, err := e.PrefetchRows([]int64{i}).Batch(); err != nil {
			t.Fatal(err)
		}
	}
	rc := cl.rowCache("lim")
	rc.mu.Lock()
	n := len(rc.rows)
	rc.mu.Unlock()
	if n > 8 {
		t.Fatalf("cache holds %d rows past its cap of 8", n)
	}
	if cl.CacheEvictions() == 0 {
		t.Fatal("no evictions recorded under a tight cap")
	}
	// The hottest (most recent) ids are the survivors.
	missing, _ := rc.lookup([]int64{31, 30, 29}, 2, make([]float64, 6))
	if len(missing.ids) != 0 {
		t.Fatalf("recent rows evicted: %v missing", missing.ids)
	}
}

// TestServeHotStatsFeedback: serve-side pull traffic (snapshot hot
// counters) feeds the NEXT publication's hot set even without training
// pulls — the steady-state feedback loop.
func TestServeHotStatsFeedback(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	c.Master.SetServeOptions(ServeOptions{HotKeys: 2})
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "fbk", Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[int64][]float64)
	for id := int64(0); id < 20; id++ {
		rows[id] = []float64{float64(id), 0}
	}
	if err := e.PushSet(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PublishSnapshot("fbk"); err != nil {
		t.Fatal(err)
	}
	sc, err := cl.Serve("fbk")
	if err != nil {
		t.Fatal(err)
	}
	// Hammer two ids through the serving tier only. Bypass the local
	// cache so every pull registers on the server-side counters.
	for i := 0; i < 40; i++ {
		sc.cache.invalidate()
		if _, err := sc.Pull([]int64{4, 17}); err != nil {
			t.Fatal(err)
		}
	}
	sl, err := cl.PublishSnapshot("fbk")
	if err != nil {
		t.Fatal(err)
	}
	hot := make(map[int64]bool)
	for _, id := range sl.HotIDs {
		hot[id] = true
	}
	if !hot[4] || !hot[17] {
		t.Fatalf("serve traffic did not shape the hot set: %v", sl.HotIDs)
	}
}

// TestSnapshotIsAnEngine pins what a snapshot generation being a frozen
// engine means, at the servers themselves (the ServeClient heals most of
// this by falling back): reads go through the engine's own pull — lazy
// deterministic init, route validation, range errors — a generation is
// never reachable through the Store, and a push after publication shows
// at the next snapshot epoch only.
func TestSnapshotIsAnEngine(t *testing.T) {
	c, cl := newTestCluster(t, 3)
	snapPull := func(addr, model string, part int, epoch int64, ids ...int64) (RowBatch, error) {
		t.Helper()
		b, err := c.servers[addr].servePull(onePart(model, part, epoch, ids))
		var resp servePullResp
		if err == nil {
			err = dec(b, &resp)
		}
		return resp.Rows, err
	}

	// Never-pushed ids read through the ServeClient equal the primary's
	// deterministic init row, in the hash and in the column layout.
	hash, err := cl.CreateEmbedding(EmbeddingSpec{Name: "h", Dim: 4, Partitions: 2, InitScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	col, err := cl.CreateEmbedding(EmbeddingSpec{Name: "col", Dim: 6, ByColumn: true, InitScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Emb{hash, col} {
		name := e.Meta.Name
		if _, err := cl.PublishSnapshot(name); err != nil {
			t.Fatalf("publish %s: %v", name, err)
		}
		sc, err := cl.Serve(name)
		if err != nil {
			t.Fatal(err)
		}
		ids := []int64{5, 1 << 33, 77}
		fromServe, err := sc.Pull(ids)
		if err != nil {
			t.Fatalf("serve pull of %s: %v", name, err)
		}
		if st := sc.Stats(); st.PrimaryRows != 0 {
			t.Fatalf("%s: never-pushed rows came from the primaries: %+v", name, st)
		}
		fromPrimary, err := e.Pull(ids)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromServe, fromPrimary) || fromServe[5][0] == 0 {
			t.Fatalf("%s: init rows differ: serve %v, primary %v", name, fromServe, fromPrimary)
		}
	}

	// A hash-range id outside the published span of the addressed
	// partition, and a DenseVector index outside the published range.
	sl, err := cl.GetServeLayout("h")
	if err != nil {
		t.Fatal(err)
	}
	var foreign int64
	for sl.Meta.Parts[sl.Meta.PartitionFor(foreign)].Index == 0 {
		foreign++
	}
	if _, err := snapPull(sl.Replicas[0][0], "h", 0, sl.SnapEpoch, foreign); !IsRangeMovedErr(err) {
		t.Fatalf("id %d of partition 1 read off partition 0's snapshot: err = %v, want range-moved", foreign, err)
	}
	vec, err := cl.CreateDenseVector(DenseVectorSpec{Name: "dv", Size: 30, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := vec.Fill(2); err != nil {
		t.Fatal(err)
	}
	vl, err := cl.PublishSnapshot("dv")
	if err != nil {
		t.Fatal(err)
	}
	p0 := vl.Meta.Parts[0]
	if rows, err := snapPull(vl.Replicas[p0.Index][0], "dv", p0.Index, vl.SnapEpoch, p0.Lo, p0.Hi-1); err != nil ||
		!reflect.DeepEqual(rows, RowBatch{IDs: []int64{p0.Lo, p0.Hi - 1}, Dim: 1, Data: []float64{2, 2}}) {
		t.Fatalf("in-range vector read = %+v, %v", rows, err)
	}
	if _, err := snapPull(vl.Replicas[p0.Index][0], "dv", p0.Index, vl.SnapEpoch, p0.Hi); !IsRangeMovedErr(err) {
		t.Fatalf("index %d outside [%d,%d): err = %v, want range-moved", p0.Hi, p0.Lo, p0.Hi, err)
	}

	// A push after publication is invisible at that snapshot epoch and
	// visible at the next; both generations stay readable.
	one, err := cl.CreateEmbedding(EmbeddingSpec{Name: "one", Dim: 2, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := one.PushSet(map[int64][]float64{7: {1, 1}}); err != nil {
		t.Fatal(err)
	}
	first, err := cl.PublishSnapshot("one")
	if err != nil {
		t.Fatal(err)
	}
	if err := one.PushSet(map[int64][]float64{7: {9, 9}}); err != nil {
		t.Fatal(err)
	}
	part := first.Meta.Parts[0]
	holders := first.Replicas[part.Index]
	for _, addr := range holders {
		if rows, err := snapPull(addr, "one", part.Index, first.SnapEpoch, 7); err != nil || rows.Data[0] != 1 {
			t.Fatalf("%s: read at epoch %d after a later push = %+v, %v; want the published 1", addr, first.SnapEpoch, rows, err)
		}
	}
	second, err := cl.PublishSnapshot("one")
	if err != nil {
		t.Fatal(err)
	}
	for epoch, want := range map[int64]float64{first.SnapEpoch: 1, second.SnapEpoch: 9} {
		if rows, err := snapPull(holders[0], "one", part.Index, epoch, 7); err != nil || rows.Data[0] != want {
			t.Fatalf("read at epoch %d = %+v, %v; want %v", epoch, rows, err, want)
		}
	}

	// The generation is not in the Store: a push addressed to a server
	// that holds only the replica fails exactly as if it held nothing.
	var replicaOnly string
	for _, addr := range holders {
		if addr != part.Server {
			replicaOnly = addr
		}
	}
	if replicaOnly == "" {
		t.Fatalf("no replica-only holder among %v (primary %s)", holders, part.Server)
	}
	push := embPushReq{Model: "one", Part: part.Index, Rows: RowBatch{IDs: []int64{7}, Dim: 2, Data: []float64{5, 5}}, Set: true}
	if _, err := c.servers[replicaOnly].Handle("EmbPush", encReply(push)); err == nil || !strings.Contains(err.Error(), "not on this server") {
		t.Fatalf("EmbPush to a snapshot-only server: err = %v, want \"not on this server\"", err)
	}
	if _, err := c.servers[replicaOnly].store.get("one", part.Index); err == nil {
		t.Fatalf("snapshot engine reachable through Store.get")
	}
	if rows, err := snapPull(replicaOnly, "one", part.Index, second.SnapEpoch, 7); err != nil || rows.Data[0] != 9 {
		t.Fatalf("snapshot changed under a rejected push: %+v, %v", rows, err)
	}
}

// slabRows counts e's rows and the rows its slabs have room for, over all
// its shards.
func slabRows(e *embEngine) (rows, capacity int) {
	for i := range e.shards {
		rows += e.shards[i].store.len()
		for _, chunk := range e.shards[i].store.rows {
			capacity += len(chunk) / e.width()
		}
	}
	return rows, capacity
}

// generation returns the newest generation of model's partition part that
// the server at addr holds.
func generation(t *testing.T, c *Cluster, addr, model string, part int) *embEngine {
	t.Helper()
	s := c.servers[addr]
	s.serve.mu.Lock()
	defer s.serve.mu.Unlock()
	gens := s.serve.snaps[partKey{model: model, part: part}]
	if len(gens) == 0 {
		t.Fatalf("%s holds no generation of %s/%d", addr, model, part)
	}
	return gens[0].e.(*embEngine)
}

// TestServeGenerationIsOneShard: at the benchmark's shape (65,536 × 32
// rows, 6 partitions, 2 replicas) every installed generation is one shard
// whose slabs hold at most 5% more rows than it has — 32 shards held 45%
// more — and it answers as an engine of the default shard count merged from
// the same image: the same reply bytes, absent rows included, and the same
// pull counts.
func TestServeGenerationIsOneShard(t *testing.T) {
	const rows, dim = 65536, 32
	c, cl := newTestCluster(t, 3)
	c.Master.SetServeOptions(ServeOptions{Replicas: 2, HotKeys: -1})
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "one", Dim: dim, Partitions: 6, InitScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const chunk = 4096
	for lo := 0; lo < rows; lo += chunk {
		b := RowBatch{Dim: dim, IDs: make([]int64, chunk), Data: make([]float64, chunk*dim)}
		for i := range b.IDs {
			b.IDs[i] = int64(lo + i)
		}
		for i := range b.Data {
			b.Data[i] = rng.Float64() - 0.5
		}
		if err := e.pushBatch(b, false, true); err != nil {
			t.Fatal(err)
		}
	}
	sl, err := cl.PublishSnapshot("one")
	if err != nil {
		t.Fatal(err)
	}
	for slot, p := range sl.Meta.Parts {
		for _, ep := range sl.Replicas[p.Index] {
			g := generation(t, c, ep, "one", p.Index)
			if n, capacity := slabRows(g); len(g.shards) != 1 || float64(capacity) > 1.05*float64(n) {
				t.Fatalf("generation of partition %d on %s: %d shards, slabs for %d rows of %d", p.Index, ep, len(g.shards), capacity, n)
			}
		}
		primary, err := c.servers[p.Server].store.get("one", p.Index)
		if err != nil {
			t.Fatal(err)
		}
		built, err := engineFromImage(sl.Meta, p.Index, exportAll(primary), 0)
		if err != nil {
			t.Fatal(err)
		}
		ref, g := built.(*embEngine), generation(t, c, sl.Replicas[p.Index][0], "one", p.Index)
		if len(ref.shards) == 1 {
			t.Fatal("the reference engine has one shard too: nothing is compared")
		}
		srv := c.servers[sl.Replicas[p.Index][0]]
		for round := 0; round < 20; round++ {
			ids := make([]int64, 0, 96)
			for len(ids) < cap(ids) {
				// Half the ids were never pushed; repeats come by chance.
				if id := rng.Int63n(2 * rows); sl.Meta.PartitionFor(id) == slot {
					ids = append(ids, id)
				}
			}
			got, err := srv.servePull(onePart("one", p.Index, sl.SnapEpoch, ids))
			if err != nil {
				t.Fatal(err)
			}
			n, err := ref.rowsLen(ids)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.appendRows(frame(msgServePullResp, 2+n), ids); !bytes.Equal(got, want) {
				t.Fatalf("partition %d, round %d: the one-shard generation's reply differs from a %d-shard engine's", p.Index, round, len(ref.shards))
			}
		}
		if got, want := g.hotTop(0), ref.hotTop(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("partition %d: the pull counts of %d rows differ from a %d-shard engine's of %d", p.Index, len(got), len(ref.shards), len(want))
		}
	}
}

// TestServeAbsentRowsRace: readers on their own agents materialise the same
// absent rows of one generation at once. appendRows' write-lock retry is
// the only path that writes a generation: every reader sees each row as the
// primary initialises it, and the servers' row counts equal the rows the
// generations counted as pulled. Run with -race.
func TestServeAbsentRowsRace(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	c.Master.SetServeOptions(ServeOptions{HotKeys: -1})
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "abs", Dim: 4, Partitions: 2, InitScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PushSet(map[int64][]float64{1: {1, 1, 1, 1}, 2: {2, 2, 2, 2}}); err != nil {
		t.Fatal(err)
	}
	sl, err := cl.PublishSnapshot("abs")
	if err != nil {
		t.Fatal(err)
	}
	ids := []int64{1, 2}
	for id := int64(1000); id < 1128; id++ {
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		agent := c.NewClient()
		agent.SetRowCacheLimits(1, 0) // every lookup reaches the servers
		sc, err := agent.Serve("abs")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 20; round++ {
				batch := make([]int64, 32)
				for k := range batch {
					batch[k] = ids[rng.Intn(len(ids))]
				}
				if _, err := sc.Pull(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	sc, err := cl.Serve("abs")
	if err != nil {
		t.Fatal(err)
	}
	fromServe, err := sc.Pull(ids)
	if err != nil {
		t.Fatal(err)
	}
	fromPrimary, err := e.Pull(ids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromServe, fromPrimary) {
		t.Fatal("rows materialised by concurrent readers differ from the primary's")
	}
	var served, counted int64
	for _, ep := range sl.Endpoints {
		served += c.servers[ep].serve.snapRows.Load()
	}
	for _, p := range sl.Meta.Parts {
		for _, ep := range sl.Replicas[p.Index] {
			for _, hk := range generation(t, c, ep, "abs", p.Index).hotTop(0) {
				counted += hk.Count
			}
		}
	}
	if served == 0 || served != counted {
		t.Fatalf("servers served %d snapshot rows, the generations counted %d pulls", served, counted)
	}
}

// FuzzServePullReqDecode: a ServePull request comes from another process.
// Hostile bytes never panic the decoder; nothing is allocated for the part
// count, and every id list is checked against the bytes present before it
// is made, so what is accepted holds no more parts or ids than the payload
// has bytes and a lying prefix costs an error, not a block; decode → encode
// → decode is a fixpoint.
func FuzzServePullReqDecode(f *testing.F) {
	six := servePullReq{Model: "emb", SnapEpoch: 3}
	for p := 5; p >= 0; p-- {
		six.Parts = append(six.Parts, servePart{Part: p, IDs: []int64{int64(p), 1 << 40, -7}})
	}
	for _, req := range []servePullReq{
		{},
		{Model: "m", SnapEpoch: 1, Parts: []servePart{{Part: 2, IDs: []int64{5, 5, 9}}}},
		six,
		{Model: "m", Parts: []servePart{{Part: 0, IDs: []int64{1}}, {Part: 1, IDs: []int64{}}, {Part: 2}}},
		{Model: "m", SnapEpoch: -1, Parts: []servePart{{Part: -3, IDs: []int64{4}}}},
	} {
		f.Add(enc(req)[2:])
	}
	head := binary.AppendVarint(appendStr(nil, "m"), 1)
	for _, payload := range [][]byte{
		binary.AppendUvarint(slices.Clone(head), 1<<62),                // 2⁶² parts, none present
		append(slices.Clone(head), 2, 0, 3, 2, 2),                      // two parts promised, one present
		append(slices.Clone(head), 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f), // a part of 2³² ids
		append(slices.Clone(head), 1, 0, 4, 2, 2),                      // a part of 3 ids, two present
	} {
		f.Add(payload)
		body := append([]byte{tagBin, msgServePullReq}, payload...)
		var req servePullReq
		if n := testing.AllocsPerRun(10, func() {
			if dec(body, &req) == nil {
				f.Errorf("hostile request %x decoded: %+v", payload, req)
			}
		}); n > 12 { // the error, its message, a part or two; never a block the prefix sized
			f.Errorf("hostile request %x: %v allocations on the reject path", payload, n)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		body := append([]byte{tagBin, msgServePullReq}, payload...)
		var got servePullReq
		if dec(body, &got) != nil {
			return
		}
		ids := 0
		for _, p := range got.Parts {
			ids += len(p.IDs)
		}
		if len(got.Parts) > len(payload) || ids > len(payload) {
			t.Fatalf("%d parts and %d ids out of %d bytes", len(got.Parts), ids, len(payload))
		}
		wire := enc(got)
		var again servePullReq
		if err := dec(wire, &again); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !wireEq(reflect.ValueOf(got), reflect.ValueOf(again)) || !bytes.Equal(enc(again), wire) {
			t.Fatalf("round trip changed the request:\n got %+v\nthen %+v", got, again)
		}
	})
}

// snapEpoch is the snapshot epoch sc reads at (0 before its first layout).
func snapEpoch(sc *ServeClient) int64 {
	sl, _ := sc.layout()
	return sl.SnapEpoch
}

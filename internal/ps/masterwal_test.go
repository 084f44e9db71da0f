package ps

import (
	"testing"
	"time"

	"psgraph/internal/dfs"
	"psgraph/internal/rpc"
)

// restartMaster simulates a master kill -9 + relaunch under the old
// address: the old handler is torn off the transport and a fresh Master
// (empty memory, same DFS) replays the WAL before registering.
func restartMaster(t *testing.T, tr rpc.Transport, fs *dfs.FS) (*Master, bool) {
	t.Helper()
	tr.Deregister("m")
	m := NewMaster("m", tr)
	m.SetFS(fs)
	recovered, err := m.EnableWAL()
	if err != nil {
		t.Fatalf("EnableWAL on restart: %v", err)
	}
	if err := tr.Register("m", m.Handle); err != nil {
		t.Fatal(err)
	}
	return m, recovered
}

// startWALCluster boots a WAL-enabled master with n replicating servers
// on one in-proc transport and shared memory DFS.
func startWALCluster(t *testing.T, n int) (rpc.Transport, *dfs.FS, *Master) {
	t.Helper()
	tr := rpc.NewInProc()
	fs := dfs.NewDefault()
	m := NewMaster("m", tr)
	m.SetFS(fs)
	if recovered, err := m.EnableWAL(); err != nil {
		t.Fatal(err)
	} else if recovered {
		t.Fatal("fresh WAL reported recovered state")
	}
	m.SetReplication(true)
	if err := tr.Register("m", m.Handle); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		addr := []string{"s1", "s2", "s3"}[i]
		srv := NewServer(addr, fs)
		srv.SetOutbound(tr)
		if err := tr.Register(addr, srv.Handle); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Call("m", "RegisterServer", enc(registerServerReq{Addr: addr})); err != nil {
			t.Fatal(err)
		}
	}
	return tr, fs, m
}

// TestMasterWALReplayRestoresMetadata is the tentpole contract: a master
// relaunched on the same DFS replays models, membership, serve layouts
// and the epoch high-water mark from the WAL — including across the
// compaction every restart performs — and deleted models stay deleted.
func TestMasterWALReplayRestoresMetadata(t *testing.T) {
	tr, fs, m1 := startWALCluster(t, 2)
	cl := NewClient(tr, "m")
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "walv", Size: 64, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.PushAdd([]int64{3, 33}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CreateDenseVector(DenseVectorSpec{Name: "gone", Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteModel("gone"); err != nil {
		t.Fatal(err)
	}
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "wale", Dim: 4, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PushSet(map[int64][]float64{7: {1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	slBefore, err := cl.PublishSnapshot("wale")
	if err != nil {
		t.Fatal(err)
	}
	// Bump the epoch past zero so the high-water mark is observable.
	if err := cl.SplitPartition("walv", 0, ""); err != nil {
		t.Fatal(err)
	}
	preEpoch := m1.failoverStats().Epoch
	if preEpoch == 0 {
		t.Fatal("split did not bump the epoch")
	}
	// GetModel caches client-side; an uncached client sees the post-split
	// five-partition table.
	metaBefore, err := NewClient(tr, "m").GetModel("walv")
	if err != nil {
		t.Fatal(err)
	}

	m2, recovered := restartMaster(t, tr, fs)
	if !recovered {
		t.Fatal("restart replayed nothing")
	}
	if got := m2.failoverStats().Epoch; got < preEpoch {
		t.Fatalf("replayed epoch %d below pre-kill high-water %d", got, preEpoch)
	}
	m2.mu.Lock()
	nServers := len(m2.servers)
	_, hasGone := m2.models["gone"]
	for _, s := range m2.servers {
		if beat, ok := m2.leases[s]; !ok || !beat.IsZero() {
			m2.mu.Unlock()
			t.Fatalf("replayed server %s lease = %v, want zero sentinel", s, beat)
		}
	}
	m2.mu.Unlock()
	if nServers != 2 {
		t.Fatalf("replayed %d servers, want 2", nServers)
	}
	if hasGone {
		t.Fatal("deleted model resurrected by replay")
	}
	fresh := NewClient(tr, "m") // no cached layout: a driver started post-crash
	metaAfter, err := fresh.GetModel("walv")
	if err != nil {
		t.Fatalf("GetModel after restart: %v", err)
	}
	if len(metaAfter.Parts) != len(metaBefore.Parts) {
		t.Fatalf("replayed layout has %d partitions, want %d (the post-split table)",
			len(metaAfter.Parts), len(metaBefore.Parts))
	}
	if metaAfter.Epoch < preEpoch {
		t.Fatalf("restarted master published epoch %d < pre-kill %d: stale layout", metaAfter.Epoch, preEpoch)
	}
	slAfter, err := fresh.GetServeLayout("wale")
	if err != nil {
		t.Fatalf("GetServeLayout after restart: %v", err)
	}
	if slAfter.SnapEpoch != slBefore.SnapEpoch {
		t.Fatalf("serve snapshot epoch %d after restart, want %d", slAfter.SnapEpoch, slBefore.SnapEpoch)
	}
	// The data plane survived untouched: pulls and pushes keep working
	// against the replayed layout.
	got, err := v.Pull([]int64{3, 33})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("pull after master restart = %v, want [1 2]", got)
	}
	if err := v.PushAdd([]int64{3}, []float64{1}); err != nil {
		t.Fatalf("push after master restart: %v", err)
	}

	// A third incarnation replays the compacted log: compaction must not
	// have dropped anything.
	m3, recovered := restartMaster(t, tr, fs)
	if !recovered {
		t.Fatal("second restart replayed nothing (compaction lost the state)")
	}
	if got := m3.failoverStats().Epoch; got < preEpoch {
		t.Fatalf("epoch %d after compacted replay, want >= %d", got, preEpoch)
	}
	if _, err := NewClient(tr, "m").GetModel("walv"); err != nil {
		t.Fatalf("GetModel after compacted replay: %v", err)
	}
}

// TestMasterRestartGraceWindow is the lease-grace satellite: a restarted
// master replays every lease as nominally expired, and must NOT fail
// over a server that re-heartbeats within the grace window — while a
// server that stays silent past it is failed over as genuinely dead.
func TestMasterRestartGraceWindow(t *testing.T) {
	tr, fs, _ := startWALCluster(t, 2)
	cl := NewClient(tr, "m")
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "gracev", Size: 32, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.PushAdd([]int64{1, 17}, []float64{5, 6}); err != nil {
		t.Fatal(err)
	}

	m2, recovered := restartMaster(t, tr, fs)
	if !recovered {
		t.Fatal("restart replayed nothing")
	}
	m2.SetReplication(true)
	// s2's endpoint dies with the master outage; s1 re-announces.
	tr.Deregister("s2")
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				tr.Call("m", "Heartbeat", enc(heartbeatReq{Addr: "s1"}))
			}
		}
	}()
	const grace = 400 * time.Millisecond
	m2.StartGrace(grace)
	m2.EnableLeases(80 * time.Millisecond)
	defer m2.StopLeases()

	// Mid-window: every lease is nominally expired, yet nothing may be
	// declared dead — not even the silent s2.
	time.Sleep(grace / 2)
	m2.mu.Lock()
	dead1, dead2 := m2.dead["s1"], m2.dead["s2"]
	m2.mu.Unlock()
	if dead1 || dead2 {
		t.Fatalf("failover inside the grace window: s1 dead=%v s2 dead=%v", dead1, dead2)
	}

	// After the window: the re-announcing s1 must survive, the silent s2
	// must be failed over.
	deadline := time.Now().Add(3 * time.Second)
	for {
		m2.mu.Lock()
		dead1, dead2 = m2.dead["s1"], m2.dead["s2"]
		m2.mu.Unlock()
		if dead2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if dead1 {
		t.Fatal("re-heartbeating server was failed over after the grace window")
	}
	if !dead2 {
		t.Fatal("silent server was never failed over after the grace window")
	}
	// The layout no longer routes anything to the dead s2.
	meta, err := NewClient(tr, "m").GetModel("gracev")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range meta.Parts {
		if p.Server == "s2" {
			t.Fatalf("partition %d still primaried on the dead server", p.Index)
		}
	}
}

// TestSSPRingRebuiltByTickAfterRestart: clock rings are not journaled; the
// first Tick against a restarted master must rebuild the ring at the
// worker's absolute clock in that same ClockWait (max-merge idempotence).
func TestSSPRingRebuiltByTickAfterRestart(t *testing.T) {
	tr, fs, _ := startWALCluster(t, 1)
	cl := NewClient(tr, "m")
	ck := cl.SSPClock("ring", 0, 1, 1)
	for i := 0; i < 3; i++ {
		if err := ck.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if ck.Clock() != 3 {
		t.Fatalf("clock = %d after 3 ticks", ck.Clock())
	}
	m, _ := restartMaster(t, tr, fs)
	// The next Tick lands on 4 and, with k=1 and a single worker, returns
	// without stalling.
	done := make(chan error, 1)
	go func() { done <- ck.Tick() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("tick after restart: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tick after restart stalled: ring not rebuilt at the cached clock")
	}
	if ck.Clock() != 4 {
		t.Fatalf("clock = %d after restart+tick, want 4", ck.Clock())
	}
	m.clocks.mu.Lock()
	r := m.clocks.rings["ring"]
	m.clocks.mu.Unlock()
	if r == nil || r.clocks[0] != 4 {
		t.Fatalf("restarted master's ring = %+v, want worker 0 at clock 4", r)
	}
}

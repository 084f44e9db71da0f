package ps

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"psgraph/internal/rpc"
)

// Deterministic tests of the one failure detector. Each drives a single
// lease-checker tick itself (expire, or checkLeases after backdating a
// lease) instead of waiting on the ticker.

// restoreLog logs every Restore call, and fails them with
// failRestore while that is set, so a test can see what one recovery
// batch restored and in which order.
type restoreLog struct {
	rpc.Transport
	mu          sync.Mutex
	log         []string
	failRestore error
}

func (r *restoreLog) note(event string) {
	r.mu.Lock()
	r.log = append(r.log, event)
	r.mu.Unlock()
}

func (r *restoreLog) Call(addr, method string, body []byte) ([]byte, error) {
	if method != "Restore" {
		return r.Transport.Call(addr, method, body)
	}
	var req restoreReq
	if err := dec(body, &req); err != nil {
		return nil, err
	}
	r.note(fmt.Sprintf("restore %s/%d", req.Meta.Name, req.Part))
	r.mu.Lock()
	fail := r.failRestore
	r.mu.Unlock()
	if fail != nil {
		return nil, fail
	}
	return r.Transport.Call(addr, method, body)
}

func (r *restoreLog) events() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.log...)
}

// newRecordingCluster starts an in-proc cluster over a restoreLog
// whose restart hook is logged as "restart <addr>". Its lease is an hour
// long, so the ticker never fires: the tests tick the detector themselves.
func newRecordingCluster(t *testing.T, servers int) (*Cluster, *restoreLog) {
	t.Helper()
	tr := &restoreLog{Transport: rpc.NewInProc()}
	c, err := NewCluster(ClusterConfig{NumServers: servers, Transport: tr, NamePrefix: "rec" + t.Name(), LeaseDuration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.Master.SetRestartFunc(func(addr string) error {
		tr.note("restart " + addr)
		return c.restartServer(addr)
	})
	return c, tr
}

// TestDroppedHeartbeatReplyKeepsServer: the master applies a heartbeat
// whose reply is lost, so the lease is renewed and the next tick leaves
// the live server alone — its engine, its apply counter and the layout
// epoch stay as they were.
func TestDroppedHeartbeatReplyKeepsServer(t *testing.T) {
	f := rpc.NewFaulty(rpc.NewInProc(), 1)
	// An hour-long lease: the ticker and the heartbeat loop stay idle, so
	// the only heartbeat after startup is the one sent below.
	c, err := NewCluster(ClusterConfig{NumServers: 2, Transport: f, NamePrefix: "hbdrop", LeaseDuration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.NewClient()
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "hb", Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Fill(3); err != nil {
		t.Fatal(err)
	}
	live := c.ServerAddrs()[1]
	srv := csrServers(c)[live]
	before, _ := c.Stats()
	epoch := mustFailoverStats(t, c).Epoch

	c.Master.mu.Lock()
	c.Master.leases[live] = time.Now().Add(-2 * time.Hour)
	c.Master.mu.Unlock()
	dropped := f.Stats().DroppedResponses
	f.DropResponses(c.MasterAddr, 1)
	srv.beat(c.MasterAddr)
	if f.Stats().DroppedResponses != dropped+1 {
		t.Fatal("the heartbeat reply was not dropped")
	}
	if got := c.Master.checkLeases(); len(got) != 0 {
		t.Fatalf("tick recovered %v after a lost heartbeat reply", got)
	}

	if csrServers(c)[live] != srv {
		t.Fatal("the live server was replaced")
	}
	after, _ := c.Stats()
	for i := range after {
		if after[i].Dead || after[i].MutApplied != before[i].MutApplied || after[i].Partitions != before[i].Partitions {
			t.Fatalf("server %s changed: %+v -> %+v", after[i].Addr, before[i], after[i])
		}
	}
	if st := mustFailoverStats(t, c); st.Epoch != epoch {
		t.Fatalf("epoch %d -> %d: a server was declared dead", epoch, st.Epoch)
	}
	got, err := v.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range got {
		if x != 3 {
			t.Fatalf("got[%d] = %v, want 3", i, x)
		}
	}
}

// TestTwoDeathsInOneTick: two of three servers expire in the same tick.
// Both are restarted before anything is restored, and every partition of
// the ConsistentRecovery model is restored exactly once — not once per
// dead server — while the plain model restores only the dead servers'
// partitions.
func TestTwoDeathsInOneTick(t *testing.T) {
	c, tr := newRecordingCluster(t, 3)
	cl := c.NewClient()
	whole, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "whole", Size: 30, Partitions: 3, ConsistentRecovery: true})
	plain, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "plain", Size: 30, Partitions: 3})
	whole.Fill(1)
	plain.Fill(2)
	for _, name := range []string{"whole", "plain"} {
		if err := cl.Checkpoint(name); err != nil {
			t.Fatal(err)
		}
	}
	whole.Fill(5) // rolled back everywhere by the consistent restore
	plain.Fill(6) // rolled back only on the dead servers

	addrs := c.ServerAddrs()
	c.KillServer(addrs[0])
	c.KillServer(addrs[1])
	recovered := expire(c.Master, addrs[0], addrs[1])
	if strings.Join(recovered, ",") != addrs[0]+","+addrs[1] {
		t.Fatalf("recovered %v, want %v", recovered, addrs[:2])
	}

	events := tr.events()
	restores := map[string]int{}
	restarted := 0
	for _, e := range events {
		if strings.HasPrefix(e, "restart ") {
			if len(restores) > 0 {
				t.Fatalf("a restart after a restore: %v", events)
			}
			restarted++
			continue
		}
		restores[strings.TrimPrefix(e, "restore ")]++
	}
	if restarted != 2 {
		t.Fatalf("%d restarts, want 2: %v", restarted, events)
	}
	want := map[string]int{}
	onDead := map[int64]bool{}
	for _, p := range whole.Meta.Parts {
		want[fmt.Sprintf("whole/%d", p.Index)] = 1
	}
	for _, p := range plain.Meta.Parts {
		if p.Server != addrs[2] {
			want[fmt.Sprintf("plain/%d", p.Index)] = 1
			for i := p.Lo; i < p.Hi; i++ {
				onDead[i] = true
			}
		}
	}
	if len(onDead) == 0 || len(onDead) == 30 {
		t.Fatalf("layout %+v puts no plain partition on the survivor or none on the dead", plain.Meta.Parts)
	}
	if fmt.Sprint(restores) != fmt.Sprint(want) {
		t.Fatalf("restores %v, want %v", restores, want)
	}

	for name, vec := range map[string]*Vector{"whole": whole, "plain": plain} {
		got, err := vec.PullAll()
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range got {
			want := 1.0 // rolled back everywhere
			if name == "plain" {
				want = map[bool]float64{true: 2, false: 6}[onDead[int64(i)]]
			}
			if x != want {
				t.Fatalf("%s[%d] = %v, want %v", name, i, x, want)
			}
		}
	}
}

// TestFailedRestoreStaysPending: a batch whose restore fails still moves
// RecoveryCount (a driver must roll back), stays pending, and the next
// tick — with no new expiry — completes it without restarting again.
func TestFailedRestoreStaysPending(t *testing.T) {
	c, tr := newRecordingCluster(t, 2)
	cl := c.NewClient()
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "retry", Size: 10})
	v.Fill(4)
	if err := cl.Checkpoint("retry"); err != nil {
		t.Fatal(err)
	}
	n0, _ := cl.RecoveryCount()
	victim := c.ServerAddrs()[0]
	c.KillServer(victim)

	tr.mu.Lock()
	tr.failRestore = errors.New("injected restore failure")
	tr.mu.Unlock()
	if got := expire(c.Master, victim); len(got) != 0 {
		t.Fatalf("failed batch reported %v recovered", got)
	}
	if n1, _ := cl.RecoveryCount(); n1 != n0+1 {
		t.Fatalf("recovery count %d -> %d after a failed restore, want +1", n0, n1)
	}

	tr.mu.Lock()
	tr.failRestore = nil
	tr.mu.Unlock()
	if got := c.Master.checkLeases(); len(got) != 1 || got[0] != victim {
		t.Fatalf("retry tick recovered %v, want [%s]", got, victim)
	}
	if n2, _ := cl.RecoveryCount(); n2 != n0+2 {
		t.Fatalf("recovery count %d -> %d after the retry, want +2", n0, n2)
	}
	restarts := 0
	for _, e := range tr.events() {
		if strings.HasPrefix(e, "restart ") {
			restarts++
		}
	}
	if restarts != 1 {
		t.Fatalf("%d restarts, want 1: %v", restarts, tr.events())
	}
	got, err := v.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range got {
		if x != 4 {
			t.Fatalf("got[%d] = %v after the retried restore, want 4", i, x)
		}
	}
	if got := c.Master.checkLeases(); len(got) != 0 {
		t.Fatalf("a third tick recovered %v: the batch stayed pending", got)
	}
}

// TestRestartRefusesLiveServer: the restart hook refuses to replace a
// server that was never killed — a restart would wipe its state while
// its heartbeat loop kept running — and restarts a killed one.
func TestRestartRefusesLiveServer(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	v, _ := cl.CreateDenseVector(DenseVectorSpec{Name: "live", Size: 8})
	v.Fill(7)
	live := c.ServerAddrs()[0]
	srv := csrServers(c)[live]
	if err := c.restartServer(live); !errors.Is(err, errStillLive) {
		t.Fatalf("restart over a live server: %v, want errStillLive", err)
	}
	if csrServers(c)[live] != srv {
		t.Fatal("the live server was replaced")
	}
	got, err := v.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range got {
		if x != 7 {
			t.Fatalf("got[%d] = %v after a refused restart, want 7", i, x)
		}
	}
	c.KillServer(live)
	if err := c.restartServer(live); err != nil {
		t.Fatalf("restart of a killed server: %v", err)
	}
}

package ps

import (
	"testing"

	"psgraph/internal/dfs"
	"psgraph/internal/rpc"
)

// TestRegisterServerRejoinDedupes covers the crash-restart registration
// path: a server that re-registers under its old address must not be
// double-counted in the ring, and registration must clear a dead mark —
// for a relaunched process, registering IS the rejoin.
func TestRegisterServerRejoinDedupes(t *testing.T) {
	tr := rpc.NewInProc()
	master := NewMaster("m", tr)
	if err := tr.Register("m", master.Handle); err != nil {
		t.Fatal(err)
	}
	reg := func() {
		if _, err := tr.Call("m", "RegisterServer", enc(registerServerReq{Addr: "s1"})); err != nil {
			t.Fatal(err)
		}
	}
	reg()
	reg()
	master.mu.Lock()
	n := len(master.servers)
	master.dead["s1"] = true
	master.mu.Unlock()
	if n != 1 {
		t.Fatalf("server list after duplicate registration has %d entries, want 1", n)
	}
	reg()
	master.mu.Lock()
	dead, n := master.dead["s1"], len(master.servers)
	master.mu.Unlock()
	if dead {
		t.Fatal("re-registration did not clear the dead mark")
	}
	if n != 1 {
		t.Fatalf("server list after rejoin has %d entries, want 1", n)
	}
}

// TestRegisterServerLiveRejoinFailsOver covers the fast-restart race:
// a server process that crashes and re-registers BEFORE the lease
// checker notices must still be treated as a crash-restart — the master
// runs the failover ladder (promoting its partitions onto their
// backups) rather than leaving the layout pointing at the now-empty
// incarnation.
func TestRegisterServerLiveRejoinFailsOver(t *testing.T) {
	tr := rpc.NewInProc()
	fs := dfs.NewDefault()
	master := NewMaster("m", tr)
	master.SetFS(fs)
	master.SetReplication(true)
	if err := tr.Register("m", master.Handle); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{"s1", "s2"} {
		srv := NewServer(addr, fs)
		srv.SetOutbound(tr)
		if err := tr.Register(addr, srv.Handle); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Call("m", "RegisterServer", enc(registerServerReq{Addr: addr})); err != nil {
			t.Fatal(err)
		}
	}
	cl := NewClient(tr, "m")
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "fastrestart", Size: 16, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.PushAdd([]int64{1, 5, 9, 13}, []float64{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}

	// The process behind s1 dies and is relaunched so fast the master
	// never declared it dead: a fresh, EMPTY engine re-registers under
	// the same address.
	tr.Deregister("s1")
	fresh := NewServer("s1", fs)
	fresh.SetOutbound(tr)
	if err := tr.Register("s1", fresh.Handle); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call("m", "RegisterServer", enc(registerServerReq{Addr: "s1"})); err != nil {
		t.Fatal(err)
	}

	// Registration must have run the failover ladder first: partitions
	// formerly primaried on s1 promoted to their backups...
	if fo := master.failoverStats(); fo.Promotions == 0 {
		t.Fatalf("live-address rejoin triggered no promotions: %+v", fo)
	}
	meta, err := NewClient(tr, "m").GetModel("fastrestart")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range meta.Parts {
		if p.Server == "s1" {
			t.Fatalf("partition %d still primaried on the restarted-empty server", p.Index)
		}
	}
	// ...and no update may have been lost: the replicas had every write.
	got, err := v.Pull([]int64{1, 5, 9, 13})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 1, 1, 1} {
		if got[i] != want {
			t.Fatalf("row %d = %v after fast restart, want %v", i, got[i], want)
		}
	}
	// The ring still has exactly two members.
	master.mu.Lock()
	n := len(master.servers)
	master.mu.Unlock()
	if n != 2 {
		t.Fatalf("server list has %d entries after rejoin, want 2", n)
	}
}

// TestReassignDeadRecovery exercises the no-restart-hook recovery path
// used by multi-process deployments: when a server dies and the master
// cannot exec it back (restart == nil), its partitions must be
// reassigned across the survivors and restored there from checkpoints,
// with the data intact.
func TestReassignDeadRecovery(t *testing.T) {
	tr := rpc.NewInProc()
	fs := dfs.NewDefault()
	master := NewMaster("m", tr)
	master.SetFS(fs)
	if err := tr.Register("m", master.Handle); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{"s1", "s2"} {
		srv := NewServer(addr, fs)
		if err := tr.Register(addr, srv.Handle); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Call("m", "RegisterServer", enc(registerServerReq{Addr: addr})); err != nil {
			t.Fatal(err)
		}
	}
	cl := NewClient(tr, "m")
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "reassign", Size: 32, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	idx := []int64{0, 9, 17, 30}
	if err := v.PushAdd(idx, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Checkpoint("reassign"); err != nil {
		t.Fatal(err)
	}

	// The server process "dies": its endpoint goes away and nothing the
	// master can call will bring the same address back.
	tr.Deregister("s1")
	recovered := expire(master, "s1")
	if len(recovered) != 1 || recovered[0] != "s1" {
		t.Fatalf("lease expiry recovered %v, want [s1]", recovered)
	}

	// A fresh client (no cached layout — a driver process started after
	// the crash) must see every partition off the dead address.
	meta, err := NewClient(tr, "m").GetModel("reassign")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range meta.Parts {
		if p.Server == "s1" {
			t.Fatalf("partition %d still assigned to the dead server", p.Index)
		}
		if p.Backup == "s1" {
			t.Fatalf("partition %d still backed up by the dead server", p.Index)
		}
	}

	// The ORIGINAL handle holds the pre-crash layout; its pull must heal
	// via the retry/re-resolve ladder and return the checkpointed values
	// from the partitions' new homes.
	got, err := v.Pull(idx)
	if err != nil {
		t.Fatalf("pull after reassignment: %v", err)
	}
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d after reassignment = %v, want %v", idx[i], got[i], want[i])
		}
	}
}

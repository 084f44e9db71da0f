package cluster

import (
	"testing"
	"time"

	"psgraph/internal/dfs"
	"psgraph/internal/ps"
	"psgraph/internal/rpc"
)

// TestCkptAloneCheckpoints: a master given only a checkpoint interval —
// no lease, no replication — snapshots every model on its own ticker.
func TestCkptAloneCheckpoints(t *testing.T) {
	dir := t.TempDir()
	master, err := StartNode(NodeConfig{Role: RoleMaster, DFSDir: dir, Ckpt: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	server, err := StartNode(NodeConfig{Role: RoleServer, MasterAddr: master.Addr, DFSDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	probe := rpc.NewTCP()
	defer probe.Close()
	if _, err := WaitHealthy(probe, server.Addr, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	agent := ps.NewClient(probe, master.Addr)
	if _, err := agent.CreateDenseVector(ps.DenseVectorSpec{Name: "ckpt-alone", Size: 4}); err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !fs.Exists(ps.CheckpointPath("ckpt-alone", 0)); {
		if time.Now().After(deadline) {
			t.Fatal("no periodic checkpoint within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Stop the ticker before the server goes: a CkptPrepare cut off by the
	// server's close would still be writing into the temp dir at cleanup.
	master.Close()
}

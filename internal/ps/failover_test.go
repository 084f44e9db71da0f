package ps

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"psgraph/internal/dfs"
	"psgraph/internal/rpc"
)

// newFailoverCluster builds a replicated cluster with heartbeat leases
// over a fault-injecting transport. RestartDelay is deliberately long so
// any test that finishes quickly proves recovery did NOT go through the
// checkpoint-restart path.
func newFailoverCluster(t *testing.T, servers int, prefix string) (*Cluster, *rpc.Faulty) {
	t.Helper()
	f := rpc.NewFaulty(rpc.NewInProc(), 1)
	c, err := NewCluster(ClusterConfig{
		NumServers:    servers,
		Transport:     f,
		NamePrefix:    prefix,
		Replicate:     true,
		LeaseDuration: 60 * time.Millisecond,
		RestartDelay:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, f
}

// waitPromotion polls the master's failover counters until at least one
// partition was promoted.
func waitPromotion(t *testing.T, c *Cluster) FailoverStats {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		st, err := c.FailoverStats()
		if err == nil && st.Promotions > 0 {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("no promotion before deadline (stats=%+v err=%v)", st, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFailoverPromotionZeroLoss kills a primary mid-stream and asserts
// the lease detector promotes its backup in place: every acknowledged
// push survives (values and exactly-once counters both check out) and
// recovery completes far inside the 5s RestartDelay a checkpoint restart
// would have to sit through.
func TestFailoverPromotionZeroLoss(t *testing.T) {
	c, _ := newFailoverCluster(t, 2, "fo-promote")
	agent := c.NewClient()
	v, err := agent.CreateDenseVector(DenseVectorSpec{Name: "fv", Size: 16, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Acknowledged pre-kill writes: with sync replication every one of
	// these is on the backup before the ack.
	for i := int64(0); i < 16; i++ {
		if err := v.PushAdd([]int64{i}, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}

	victim := c.ServerAddrs()[1]
	start := time.Now()
	c.KillServer(victim)
	st := waitPromotion(t, c)
	if st.Epoch == 0 {
		t.Fatalf("promotion did not bump the layout epoch: %+v", st)
	}

	// Post-kill writes follow the layout via refetch+retry.
	for i := int64(0); i < 16; i++ {
		if err := v.PushAdd([]int64{i}, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed >= 5*time.Second {
		t.Fatalf("recovery took %v: waited out RestartDelay instead of promoting", elapsed)
	}

	got, err := v.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range got {
		if x != 2 {
			t.Fatalf("element %d = %v after failover, want 2 (lost update)", i, x)
		}
	}
	applied, _, err := c.MutationTotals()
	if err != nil {
		t.Fatal(err)
	}
	sent, _ := agent.MutationStats()
	if applied != sent {
		t.Fatalf("applied %d mutations for %d sends across failover", applied, sent)
	}
}

// TestEpochFenceStalePrimary partitions a primary away from the cluster,
// waits for its backup to be promoted, then delivers a push to the OLD
// primary from inside the partition. The zombie must reject it with
// ErrStaleEpoch (it lost its lease and self-fenced) and apply nothing.
func TestEpochFenceStalePrimary(t *testing.T) {
	c, f := newFailoverCluster(t, 2, "fo-fence")
	agent := c.NewClient()
	v, err := agent.CreateDenseVector(DenseVectorSpec{Name: "zv", Size: 8, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.SetAll([]float64{0, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	meta, err := agent.GetModel("zv")
	if err != nil {
		t.Fatal(err)
	}
	oldPrimary := meta.Parts[0].Server
	oldEpoch := meta.Epoch

	// Cut the old primary (and a probe client stranded with it) off from
	// the master and the other server. Its heartbeats stop, the lease
	// expires, the backup is promoted.
	f.SetPartition(map[string][]string{"iso": {oldPrimary, "probe"}})
	waitPromotion(t, c)
	// Let the zombie's self-fence window (one lease) definitely pass.
	time.Sleep(100 * time.Millisecond)

	probe := f.Caller("probe")
	statsOf := func() int64 {
		resp, err := probe.Call(oldPrimary, "Stats", nil)
		if err != nil {
			t.Fatalf("probe stats: %v", err)
		}
		var r ServerStats
		if err := dec(resp, &r); err != nil {
			t.Fatal(err)
		}
		return r.MutApplied
	}
	before := statsOf()

	// A client stranded in the partition still holds the pre-failover
	// layout: same envelope a real push would carry, aimed at the zombie.
	body := wrapDedup(99999, 1, oldEpoch,
		enc(vecPushReq{Model: "zv", Part: 0, Indices: []int64{0}, Values: []float64{100}, Op: vecAdd}))
	_, err = probe.Call(oldPrimary, "VecPush", body)
	if err == nil {
		t.Fatal("zombie primary accepted a push after promotion")
	}
	if !IsStaleEpochErr(err) {
		t.Fatalf("zombie rejection is not a stale-epoch fence: %v", err)
	}
	if after := statsOf(); after != before {
		t.Fatalf("fenced push was applied: MutApplied %d -> %d", before, after)
	}

	// The write never reaches the surviving copy either.
	f.ClearPartition()
	got, err := v.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatalf("fenced write leaked into the promoted copy: %v", got[0])
	}
}

// TestEpochFenceOrdering exercises the numeric fence directly: a server
// that adopted epoch N rejects anything older and adopts anything newer.
func TestEpochFenceOrdering(t *testing.T) {
	s := NewServer("fence-unit", dfs.NewDefault())
	if err := s.fenceCheck(0); err != nil {
		t.Fatalf("epoch-0 call fenced on a fresh server: %v", err)
	}
	s.epochMax(5)
	if err := s.fenceCheck(3); !IsStaleEpochErr(err) {
		t.Fatalf("epoch 3 against server epoch 5: %v", err)
	}
	if err := s.fenceCheck(5); err != nil {
		t.Fatalf("current epoch rejected: %v", err)
	}
	if err := s.fenceCheck(7); err != nil {
		t.Fatalf("newer epoch rejected: %v", err)
	}
	if got := s.Epoch(); got != 7 {
		t.Fatalf("server did not adopt newer epoch: %d", got)
	}
	// Epoch 0 (a pre-failover layout) is older than any positive epoch:
	// once the server learned one, epoch-less writes must fence too.
	if err := s.fenceCheck(0); !IsStaleEpochErr(err) {
		t.Fatalf("epoch 0 against server epoch 7: %v", err)
	}
}

// TestReseedAfterPromotion survives TWO failovers: after the first
// kill, the promoted primary forwards mutations for its new partition
// to a successor that does not hold the replica yet — those forwards
// are dropped (never silently clearing the whole target), the drop
// report in the next heartbeat makes the master mark the replicas
// stale, and the reseed pass rebuilds them. Killing the promoted
// primary afterwards must then promote a COMPLETE replica: every
// acknowledged write survives both deaths.
func TestReseedAfterPromotion(t *testing.T) {
	c, _ := newFailoverCluster(t, 3, "fo-reseed")
	agent := c.NewClient()
	v, err := agent.CreateDenseVector(DenseVectorSpec{Name: "rv", Size: 12, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	push := func() {
		for i := int64(0); i < 12; i++ {
			if err := v.PushAdd([]int64{i}, []float64{1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	push()

	before, err := agent.GetModel("rv")
	if err != nil {
		t.Fatal(err)
	}
	c.KillServer(c.ServerAddrs()[1])
	waitPromotion(t, c)
	// Writes during the repair window: forwards for the promoted
	// partition fail on the successor until reseed installs the replica.
	push()

	// Wait for the reseed to repair every partition (Degraded drains).
	deadline := time.Now().Add(3 * time.Second)
	for {
		st, err := c.FailoverStats()
		if err == nil && st.Reseeds > 0 && st.Degraded == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication not repaired before deadline (stats=%+v err=%v)", st, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	push()

	// Kill the server the first failover promoted: its partitions' only
	// other copy is the reseeded replica — if reseeding left it stale,
	// this loses writes.
	after, err := agent.GetModel("rv")
	if err != nil {
		t.Fatal(err)
	}
	promoted := ""
	for i := range after.Parts {
		if after.Parts[i].Server != before.Parts[i].Server {
			promoted = after.Parts[i].Server
		}
	}
	if promoted == "" {
		t.Fatal("no partition changed servers after the first failover")
	}
	prevPromotions := mustFailoverStats(t, c).Promotions
	c.KillServer(promoted)
	deadline = time.Now().Add(3 * time.Second)
	for mustFailoverStats(t, c).Promotions <= prevPromotions {
		if time.Now().After(deadline) {
			t.Fatal("no second promotion before deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	push()

	got, err := v.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range got {
		if x != 4 {
			t.Fatalf("element %d = %v after double failover, want 4 (lost update)", i, x)
		}
	}
	applied, _, err := c.MutationTotals()
	if err != nil {
		t.Fatal(err)
	}
	sent, _ := agent.MutationStats()
	if applied != sent {
		t.Fatalf("applied %d mutations for %d sends across double failover", applied, sent)
	}
}

func mustFailoverStats(t *testing.T, c *Cluster) FailoverStats {
	t.Helper()
	st, err := c.FailoverStats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestKillCloseRace hammers KillServer, the monitor's restart path and
// Close concurrently. Run with -race: the closed flag must gate
// restartServer so a recovery sleeping through RestartDelay never
// re-registers an endpoint after Close tore everything down.
func TestKillCloseRace(t *testing.T) {
	for i := 0; i < 8; i++ {
		f := rpc.NewFaulty(rpc.NewInProc(), int64(i+1))
		c, err := NewCluster(ClusterConfig{
			NumServers:      2,
			Transport:       f,
			NamePrefix:      "fo-race",
			MonitorInterval: time.Millisecond,
			RestartDelay:    2 * time.Millisecond,
			LeaseDuration:   8 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		addrs := c.ServerAddrs()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, a := range addrs {
				c.KillServer(a)
			}
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i) * time.Millisecond / 2)
			c.Close()
		}()
		wg.Wait()
		// Close wins: nothing may be registered at the server endpoints.
		c.mu.Lock()
		n := len(c.servers)
		c.mu.Unlock()
		if n != 0 {
			t.Fatalf("iteration %d: %d servers survived Close", i, n)
		}
	}
}

// TestStatsSkipsDeadServers: a stats sweep over a half-dead cluster must
// report the dead endpoint and keep summing the survivors instead of
// aborting on the first unreachable server.
func TestStatsSkipsDeadServers(t *testing.T) {
	c, _ := newFaultyCluster(t, 2, "fo-stats")
	agent := c.NewClient()
	v, err := agent.CreateDenseVector(DenseVectorSpec{Name: "sv", Size: 8, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.PushAdd([]int64{0, 7}, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	victim := c.ServerAddrs()[1]
	c.KillServer(victim)

	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("stats aborted on dead server: %v", err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats dropped entries: %d", len(stats))
	}
	var dead, liveApplied int
	for _, s := range stats {
		if s.Dead {
			dead++
			if s.Addr != victim {
				t.Fatalf("wrong server marked dead: %s", s.Addr)
			}
		} else {
			liveApplied += int(s.MutApplied)
		}
	}
	if dead != 1 {
		t.Fatalf("dead servers marked: %d, want 1", dead)
	}
	if liveApplied == 0 {
		t.Fatal("survivor counters were not summed")
	}
	if _, _, err := c.MutationTotals(); err != nil {
		t.Fatalf("MutationTotals aborted on dead server: %v", err)
	}
}

// heldAck loses the ack of the first call of method it carries — the
// server ran the call, the caller sees ErrUnreachable — and holds that
// error back until release closes, so the test decides what happens to
// the cluster between the call and its retry.
type heldAck struct {
	rpc.Transport
	method  string
	taken   atomic.Bool
	applied chan struct{}
	release chan struct{}
}

func (h *heldAck) Call(addr, method string, body []byte) ([]byte, error) {
	if method != h.method || !h.taken.CompareAndSwap(false, true) {
		return h.Transport.Call(addr, method, body)
	}
	if _, err := h.Transport.Call(addr, method, body); err != nil {
		return nil, err
	}
	close(h.applied)
	<-h.release
	return nil, fmt.Errorf("%w: %s (ack lost)", rpc.ErrUnreachable, addr)
}

// TestSeededReplicaReplaysPreSeedPush: a push is applied on the primary
// and its ack is lost; before the client retries, the partition's
// backup dies, a fresh replica is seeded from the primary (its snapshot
// contains the push), and then the primary dies too. The retry resolves
// to the promoted replica, which never saw the push forwarded — only the
// dedup window shipped with the seed tells it the push is already in
// its data.
func TestSeededReplicaReplaysPreSeedPush(t *testing.T) {
	c, f := newFailoverCluster(t, 3, "fo-seedwin")
	agent := c.NewClient()
	if _, err := agent.CreateDenseVector(DenseVectorSpec{Name: "sw", Size: 4, Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	meta, err := agent.GetModel("sw")
	if err != nil {
		t.Fatal(err)
	}
	primary, backup := meta.Parts[0].Server, meta.Parts[0].Backup
	if backup == "" {
		t.Fatal("partition has no backup")
	}

	h := &heldAck{Transport: f, method: "VecPush", applied: make(chan struct{}), release: make(chan struct{})}
	pusher := NewClient(h, c.MasterAddr)
	v, err := pusher.Vector("sw")
	if err != nil {
		t.Fatal(err)
	}
	pushed := make(chan error, 1)
	go func() { pushed <- v.PushAdd([]int64{2}, []float64{1}) }()
	<-h.applied

	waitStats := func(what string, ok func(FailoverStats) bool) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for {
			st, err := c.FailoverStats()
			if err == nil && ok(st) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: not before deadline (stats=%+v err=%v)", what, st, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	c.KillServer(backup)
	// A lone backup death is repaired when the primary reports a forward
	// it had to drop, so give it one to drop.
	av, err := agent.Vector("sw")
	if err != nil {
		t.Fatal(err)
	}
	if err := av.PushAdd([]int64{0}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	waitStats("reseed onto the third server", func(st FailoverStats) bool { return st.Reseeds > 0 && st.Degraded == 0 })
	c.KillServer(primary)
	waitStats("promotion of the seeded replica", func(st FailoverStats) bool { return st.Promotions > 0 })

	close(h.release)
	if err := <-pushed; err != nil {
		t.Fatalf("retried push: %v", err)
	}
	got, err := v.Pull([]int64{2})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("element = %v after the retry, want 1 (the seeded replica re-applied a push its snapshot already held)", got[0])
	}
	applied, _, err := c.MutationTotals()
	if err != nil {
		t.Fatal(err)
	}
	sent, _ := pusher.MutationStats()
	agentSent, _ := agent.MutationStats()
	if applied != sent+agentSent {
		t.Fatalf("applied %d mutations for %d sends", applied, sent+agentSent)
	}
}

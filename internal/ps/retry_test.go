package ps

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"psgraph/internal/dfs"
	"psgraph/internal/rpc"
)

// countOnceRuns swaps every once entry of both dispatch tables for one that
// counts its runs per receiver address, until the test ends; take returns
// the counts since its last call. Call it before any cluster of the test
// exists: the tables are package state, read without a lock.
func countOnceRuns(t *testing.T) (take func() map[string]int) {
	var mu sync.Mutex
	runs := map[string]int{}
	count := func(addr string) {
		mu.Lock()
		runs[addr]++
		mu.Unlock()
	}
	for name, e := range serverHandlers {
		if e.class == once {
			serverHandlers[name] = entry[*Server]{once, func(s *Server, b []byte) ([]byte, error) {
				count(s.Addr)
				return e.run(s, b)
			}}
			t.Cleanup(func() { serverHandlers[name] = e })
		}
	}
	for name, e := range masterHandlers {
		if e.class == once {
			masterHandlers[name] = entry[*Master]{once, func(m *Master, b []byte) ([]byte, error) {
				count(m.Addr)
				return e.run(m, b)
			}}
			t.Cleanup(func() { masterHandlers[name] = e })
		}
	}
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		got := runs
		runs = map[string]int{}
		return got
	}
}

// lostAck makes call through a client whose first ack of method is lost,
// does what between says once the receiver has run the call, and then lets
// the client retry.
func lostAck(t *testing.T, tr rpc.Transport, master, method string, call func(*Client) error, between func()) {
	t.Helper()
	h := &heldAck{Transport: tr, method: method, applied: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- call(NewClient(h, master)) }()
	<-h.applied
	func() {
		defer close(h.release) // also when between fails the test
		between()
	}()
	if err := <-done; err != nil {
		t.Fatalf("retried %s: %v", method, err)
	}
}

// dataRow is a once server method: call makes one call of method on
// model "r", one partition of kind. rerun marks a replay-safe psFunc, whose
// retry runs it again; its reply lands in out.
type dataRow struct {
	name, method string
	kind         Kind
	call         func(c *Client, out *[]byte) error
	rerun        bool
}

// masterRow is a once master method: prepare readies the cluster through
// agent, call makes the one call.
type masterRow struct {
	method  string
	prepare func(c *Cluster, agent *Client) error
	call    func(c *Cluster, caller *Client) error
}

// TestRetryContract pins the retry class every dispatch-table entry
// declares. Every entry has one. Every once method keeps its contract
// through a lost ack: the handler runs once per copy of the partition and
// the retry is answered from the window — or, for a replay-safe psFunc,
// runs the function again — also when the partition moved or its primary
// died between the call and the retry. An envelope on an idempotent
// method is refused.
func TestRetryContract(t *testing.T) {
	for name, e := range serverHandlers {
		if e.class == 0 {
			t.Errorf("server method %s declares no retry class", name)
		}
	}
	for name, e := range masterHandlers {
		if e.class == 0 {
			t.Errorf("master method %s declares no retry class", name)
		}
	}
	take := countOnceRuns(t)
	callFunc := func(fn string) func(*Client, *[]byte) error {
		return func(c *Client, out *[]byte) error {
			outs, err := c.CallFunc("r", fn, func(Partition) []byte { return nil })
			if err == nil {
				*out = outs[0]
			}
			return err
		}
	}
	dataRows := []dataRow{
		{"VecPush", "VecPush", DenseVector,
			func(c *Client, _ *[]byte) error {
				v, err := c.Vector("r")
				if err != nil {
					return err
				}
				return v.PushAdd([]int64{1}, []float64{1})
			}, false},
		{"EmbPush", "EmbPush", Embedding,
			func(c *Client, _ *[]byte) error {
				e, err := c.Embedding("r")
				if err != nil {
					return err
				}
				return e.PushAdd(map[int64][]float64{1: make([]float64, 16)})
			}, false},
		{"NbrPush", "NbrPush", Neighbor,
			func(c *Client, _ *[]byte) error {
				n, err := nbrHandle(c, "r")
				if err != nil {
					return err
				}
				return n.Push(map[int64][]int64{1: {2, 3}})
			}, false},
		{"Func", "Func", DenseVector, callFunc("dedup-test-inc"), false},
		{"Func-replay-safe", "Func", Embedding, callFunc("dedup-test-row"), true},
	}
	masterRows := []masterRow{
		{"CreateModel", nil, func(_ *Cluster, c *Client) error { return createRetryModel(c, DenseVector) }},
		{"DeleteModel", nil, func(_ *Cluster, c *Client) error { return c.DeleteModel("r") }},
		{"Checkpoint", nil, func(_ *Cluster, c *Client) error { return c.Checkpoint("r") }},
		{"CheckpointModels", nil, func(_ *Cluster, c *Client) error {
			_, err := c.CheckpointModels([]string{"r"}, -1)
			return err
		}},
		{"RestoreModel", func(_ *Cluster, a *Client) error { return a.Checkpoint("r") },
			func(_ *Cluster, c *Client) error { return c.RestoreModel("r") }},
		{"RestoreModels", func(_ *Cluster, a *Client) error { return a.Checkpoint("r") },
			func(_ *Cluster, c *Client) error { return c.RestoreModels([]string{"r"}) }},
		{"PublishSnapshot", nil, func(_ *Cluster, c *Client) error {
			_, err := c.PublishSnapshot("r")
			return err
		}},
		{"SplitPartition", nil, func(_ *Cluster, c *Client) error { return c.SplitPartition("r", 0, "") }},
		{"MovePartition", nil, func(cl *Cluster, c *Client) error {
			meta, err := c.GetModel("r")
			if err != nil {
				return err
			}
			return c.MovePartition("r", 0, otherServer(cl, meta.Parts[0].Server))
		}},
		{"DrainServer", nil, func(cl *Cluster, c *Client) error { return c.DrainServer(cl.ServerAddrs()[0]) }},
		{"Rebalance", nil, func(_ *Cluster, c *Client) error {
			_, err := rebalance(c)
			return err
		}},
	}

	// Every once method has a row.
	covered := map[string]bool{}
	for _, r := range dataRows {
		covered["server "+r.method] = true
	}
	for _, r := range masterRows {
		covered["master "+r.method] = true
	}
	for name, e := range serverHandlers {
		if e.class == once && !covered["server "+name] {
			t.Errorf("once server method %s has no retry row", name)
		}
	}
	for name, e := range masterHandlers {
		if e.class == once && !covered["master "+name] {
			t.Errorf("once master method %s has no retry row", name)
		}
	}

	for _, row := range dataRows {
		for _, variant := range []string{"lost-ack", "move", "promote"} {
			t.Run(row.name+"/"+variant, func(t *testing.T) {
				retryDataRow(t, row, variant, take)
			})
		}
	}
	for _, row := range masterRows {
		t.Run(row.method, func(t *testing.T) {
			c, f := newFaultyCluster(t, 2, "retry-"+strings.ToLower(row.method))
			agent := c.NewClient()
			if row.method != "CreateModel" {
				if err := createRetryModel(agent, DenseVector); err != nil {
					t.Fatal(err)
				}
			}
			if row.prepare != nil {
				if err := row.prepare(c, agent); err != nil {
					t.Fatal(err)
				}
			}
			take()
			replayed := c.Master.dedup.Replayed()
			lostAck(t, f, c.MasterAddr, row.method, func(caller *Client) error { return row.call(c, caller) }, func() {})
			if runs := take(); !maps.Equal(runs, map[string]int{c.MasterAddr: 1}) {
				t.Errorf("handler runs %v, want one on the master", runs)
			}
			if got := c.Master.dedup.Replayed() - replayed; got != 1 {
				t.Errorf("master replayed %d calls, want 1", got)
			}
		})
	}

	t.Run("envelope-refused", func(t *testing.T) {
		s := NewServer("s0", dfs.NewDefault())
		m := NewMaster("m0", rpc.NewInProc())
		body := wrapDedup(1, 1, 0, nil)
		refused := func(err error) bool { return err != nil && strings.Contains(err.Error(), "takes no dedup envelope") }
		for name, e := range serverHandlers {
			if _, err := s.Handle(name, body); e.class != once && !refused(err) {
				t.Errorf("server %s with an envelope: err = %v, want it refused", name, err)
			}
		}
		for name, e := range masterHandlers {
			if _, err := m.Handle(name, body); e.class != once && !refused(err) {
				t.Errorf("master %s with an envelope: err = %v, want it refused", name, err)
			}
		}
		fwd := enc(replicateReq{Method: "CreatePart", ClientID: 1, Seq: 2, Body: body})
		if _, err := s.Handle("Replicate", fwd); !refused(err) {
			t.Errorf("a forwarded CreatePart: err = %v, want it refused", err)
		}
	})
}

// createRetryModel creates model "r" of kind in one partition.
func createRetryModel(agent *Client, kind Kind) error {
	meta := ModelMeta{Name: "r", Kind: kind, NumPartitions: 1}
	switch kind {
	case DenseVector:
		meta.Size = 8
	case Embedding:
		meta.Dim = 16
	}
	_, err := agent.CreateModel(meta)
	return err
}

// otherServer returns a server of c other than not.
func otherServer(c *Cluster, not string) string {
	for _, addr := range c.ServerAddrs() {
		if addr != not {
			return addr
		}
	}
	return ""
}

// retryDataRow makes row's call with its ack lost and, as variant says,
// moves the partition or kills its primary before the retry.
func retryDataRow(t *testing.T, row dataRow, variant string, take func() map[string]int) {
	prefix := "retry-" + strings.ToLower(row.name) + "-" + variant
	var c *Cluster
	var f *rpc.Faulty
	if variant == "promote" {
		c, f = newFailoverCluster(t, 2, prefix)
	} else {
		c, f = newFaultyCluster(t, 2, prefix)
	}
	agent := c.NewClient()
	if err := createRetryModel(agent, row.kind); err != nil {
		t.Fatal(err)
	}
	meta, err := agent.GetModel("r")
	if err != nil {
		t.Fatal(err)
	}
	p := meta.Parts[0]
	owner := p.Server
	want := map[string]int{owner: 1}
	take()
	var out []byte
	reruns := int64(0)
	lostAck(t, f, c.MasterAddr, row.method, func(caller *Client) error {
		err := row.call(caller, &out)
		if sent, _ := caller.MutationStats(); err == nil && sent != 1 {
			t.Errorf("caller counted %d sends, want 1", sent)
		}
		return err
	}, func() {
		switch variant {
		case "move":
			want[c.MasterAddr] = 1 // the MovePartition
			owner = otherServer(c, owner)
			if err := agent.MovePartition("r", p.Index, owner); err != nil {
				t.Fatal(err)
			}
		case "promote":
			// The forward ran the call on the backup, whose window keeps no
			// replay-safe reply either.
			if b, n := windowReplyBytes(c.servers[p.Backup]); n != 1 || row.rerun && b != 0 {
				t.Fatalf("backup window: %d reply bytes in %d entries, want one entry", b, n)
			}
			want[p.Backup] = 1
			c.KillServer(owner)
			waitPromotion(t, c)
			owner = p.Backup
		}
		reruns = rowRuns.Load()
	})
	if runs := take(); !maps.Equal(runs, want) {
		t.Errorf("handler runs %v, want %v: one per copy of the partition", runs, want)
	}
	if st := c.servers[owner].stats(); st.MutApplied != 1 || st.MutReplayed != 1 {
		t.Errorf("owner %s: applied %d, replayed %d; want one application and one replay", owner, st.MutApplied, st.MutReplayed)
	}
	if applied, _, err := c.MutationTotals(); err != nil || applied != 1 {
		t.Errorf("cluster applied %d (%v) for one send", applied, err)
	}
	wantReruns := int64(0)
	if row.rerun {
		wantReruns = 1
		if want := wantRow(t, c, owner, "r"); !bytes.Equal(out, want) {
			t.Errorf("retry answered %x, want %x", out, want)
		}
	}
	if got := rowRuns.Load() - reruns; got != wantReruns {
		t.Errorf("the retry ran the psFunc %d times, want %d", got, wantReruns)
	}
}

// resendState is what a bare resend may touch: each partition's image,
// role and apply counter, each server's backup target and epoch, its serve
// generations and hot head, and the master's clock rings.
func resendState(m *Master, servers ...*Server) map[string]any {
	st := map[string]any{}
	for _, s := range servers {
		s.store.mu.RLock()
		for model, parts := range s.store.parts {
			for idx, e := range parts {
				st[fmt.Sprintf("%s %s/%d image", s.Addr, model, idx)] = exportAll(e)
			}
		}
		s.store.mu.RUnlock()
		s.repl.pmu.RLock()
		for k, r := range s.repl.roles {
			st[fmt.Sprintf("%s %s/%d role", s.Addr, k.model, k.part)] = [2]any{r.replica.Load(), r.muts.Load()}
		}
		s.repl.pmu.RUnlock()
		st[s.Addr+" backup"] = s.repl.backup.Load()
		st[s.Addr+" epoch"] = s.Epoch()
		s.serve.mu.Lock()
		for k, gens := range s.serve.snaps {
			for _, g := range gens {
				st[fmt.Sprintf("%s %s/%d serve %d", s.Addr, k.model, k.part, g.snapEpoch)] = exportAll(g.e)
			}
		}
		for model, hr := range s.serve.hot {
			for _, id := range hr.rows.ids {
				st[fmt.Sprintf("%s %s hot %d row %d", s.Addr, model, hr.snapEpoch, id)] = slices.Clone(hr.rows.get(id))
			}
		}
		s.serve.mu.Unlock()
	}
	m.clocks.mu.Lock()
	for tag, r := range m.clocks.rings {
		st["clock "+tag] = [2]any{slices.Clone(r.clocks), slices.Clone(r.retired)}
	}
	m.clocks.mu.Unlock()
	return st
}

// TestBareResendIsIdempotent: the methods a master or peer resends bare
// through a lost ack (callWithRetry, rpc.Backoff) leave, run twice, what
// they leave run once. ClockWait's resend has its own test
// (TestSSPClockWaitRetryIsIdempotent).
func TestBareResendIsIdempotent(t *testing.T) {
	vec := func(parts ...Partition) ModelMeta {
		return ModelMeta{Name: "v", Kind: DenseVector, Size: 8, Parts: parts}
	}
	onA := vec(Partition{Index: 0, Server: "a", Lo: 0, Hi: 8})
	for _, tc := range []struct {
		method, to string
		// prepare readies a and b beyond the fixture (partition 0 of onA
		// on a, clock ring "c" on m) and returns the request.
		prepare func(t *testing.T, a, b *Server) any
	}{
		{"Restore", "a", func(t *testing.T, a, _ *Server) any {
			if err := a.checkpoint(ckptReq{Model: "v", Part: 0}); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Handle("VecPush", enc(vecPushReq{Model: "v", Part: 0, Indices: []int64{0}, Values: []float64{9}})); err != nil {
				t.Fatal(err)
			}
			return restoreReq{Meta: onA, Part: 0}
		}},
		{"Promote", "b", func(t *testing.T, _, b *Server) any {
			if err := b.createPart(createPartReq{Meta: onA, Part: 0, Replica: true}); err != nil {
				t.Fatal(err)
			}
			return promoteReq{Model: "v", Part: 0, Epoch: 2}
		}},
		{"SetBackup", "a", func(*testing.T, *Server, *Server) any { return setBackupReq{Addr: "b", Epoch: 1} }},
		{"SeedBackup", "a", func(*testing.T, *Server, *Server) any {
			return seedBackupReq{Meta: onA, Part: 0, Backup: "b", Epoch: 1}
		}},
		{"ServeSeed", "a", func(*testing.T, *Server, *Server) any {
			return serveSeedReq{Meta: onA, Part: 0, SnapEpoch: 1, Targets: []string{"a", "b"}}
		}},
		{"ServeHotInstall", "b", func(*testing.T, *Server, *Server) any {
			return serveHotInstallReq{Model: "v", SnapEpoch: 1, Rows: RowBatch{IDs: []int64{2, 5}, Dim: 1, Data: []float64{3, 4}}}
		}},
		{"MigratePart", "a", func(*testing.T, *Server, *Server) any {
			moved := vec(Partition{Index: 0, Server: "b", Lo: 0, Hi: 8})
			return migratePartReq{Meta: moved, Part: 0, NewPart: 0, Lo: 0, Hi: 8, Dest: "b", Epoch: 1}
		}},
		{"MigratePart", "a", func(*testing.T, *Server, *Server) any {
			split := vec(Partition{Index: 0, Server: "a", Lo: 0, Hi: 4}, Partition{Index: 1, Server: "b", Lo: 4, Hi: 8})
			return migratePartReq{Meta: split, Part: 0, NewPart: 1, Lo: 4, Hi: 8, Split: true, Dest: "b", Epoch: 1}
		}},
		{"ClockRetire", "m", func(*testing.T, *Server, *Server) any {
			return clockReq{Tag: "c", Worker: 0, Expect: 2}
		}},
	} {
		t.Run(tc.method, func(t *testing.T) {
			tr := rpc.NewInProc()
			defer tr.Close()
			fs := dfs.NewDefault()
			a, b := NewServer("a", fs), NewServer("b", fs)
			m := NewMaster("m", tr)
			for _, s := range []*Server{a, b} {
				s.SetOutbound(tr)
				if err := tr.Register(s.Addr, s.Handle); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Register("m", m.Handle); err != nil {
				t.Fatal(err)
			}
			if err := a.createPart(createPartReq{Meta: onA, Part: 0}); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Handle("VecPush", enc(vecPushReq{Model: "v", Part: 0, Values: []float64{1, 2, 3, 4, 5, 6, 7, 8}})); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Handle("ClockWait", enc(clockReq{Tag: "c", Worker: 0, Expect: 2, Clock: 0})); err != nil {
				t.Fatal(err)
			}
			body := enc(tc.prepare(t, a, b))
			before := resendState(m, a, b)
			var after [2]map[string]any
			for i := range after {
				if _, err := tr.Call(tc.to, tc.method, body); err != nil {
					t.Fatalf("run %d: %v", i+1, err)
				}
				after[i] = resendState(m, a, b)
			}
			if reflect.DeepEqual(before, after[0]) {
				t.Fatalf("one %s changed nothing the test compares", tc.method)
			}
			if !reflect.DeepEqual(after[0], after[1]) {
				var diff []string
				for _, st := range after {
					for k := range st {
						if !reflect.DeepEqual(after[0][k], after[1][k]) {
							diff = append(diff, k)
						}
					}
				}
				slices.Sort(diff)
				t.Fatalf("a second %s changed %v", tc.method, slices.Compact(diff))
			}
		})
	}
}

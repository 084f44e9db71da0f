package ps

import (
	"maps"
	"sync"
	"testing"
	"time"

	"psgraph/internal/rpc"
)

// tickDone runs clock.Tick in a goroutine and returns a channel that
// closes when it completes.
func tickDone(t *testing.T, clock *SSPClock) chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := clock.Tick(); err != nil {
			t.Errorf("tick: %v", err)
		}
	}()
	return done
}

func assertBlocked(t *testing.T, done chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s: returned while it should be blocked", what)
	case <-time.After(50 * time.Millisecond):
	}
}

func assertReleased(t *testing.T, done chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked", what)
	}
}

// TestSSPFastestBlocksAtSlowestPlusK pins the SSP contract: with k=1 the
// fast worker passes clock 1 freely (slowest at 0, 1-1 <= 0), blocks at
// clock 2 until the slow worker reaches 1, and blocks at 3 until it
// reaches 2 — exactly slowest+k, never more.
func TestSSPFastestBlocksAtSlowestPlusK(t *testing.T) {
	c, _ := newFaultyCluster(t, 1, "ssp-k")
	agent := c.NewClient()
	fast := agent.SSPClock("ring", 0, 2, 1)
	slow := agent.SSPClock("ring", 1, 2, 1)

	// Clock 1: min live is 0, target 1-1=0 — no block.
	assertReleased(t, tickDone(t, fast), "fast tick 1 (k ahead allowed)")

	// Clock 2: target 1, slow still at 0 — must block.
	d2 := tickDone(t, fast)
	assertBlocked(t, d2, "fast tick 2 before slow advanced")
	if err := slow.Tick(); err != nil { // slow -> 1; releases fast
		t.Fatal(err)
	}
	assertReleased(t, d2, "fast tick 2 after slow reached 1")

	// Clock 3: target 2, slow at 1 — blocks again until slow hits 2.
	d3 := tickDone(t, fast)
	assertBlocked(t, d3, "fast tick 3 before slow reached 2")
	if err := slow.Tick(); err != nil {
		t.Fatal(err)
	}
	assertReleased(t, d3, "fast tick 3 after slow reached 2")

	if err := fast.Retire(); err != nil {
		t.Fatal(err)
	}
	if err := slow.Retire(); err != nil {
		t.Fatal(err)
	}
}

// TestSSPZeroIsLockStepBarrier: k=0 degenerates to the BSP barrier —
// neither worker can start window n+1 until both finished window n.
func TestSSPZeroIsLockStepBarrier(t *testing.T) {
	c, _ := newFaultyCluster(t, 1, "ssp-k0")
	agent := c.NewClient()
	a := agent.SSPClock("ring0", 0, 2, 0)
	b := agent.SSPClock("ring0", 1, 2, 0)

	da := tickDone(t, a)
	assertBlocked(t, da, "k=0 worker A before B arrived")
	db := tickDone(t, b)
	assertReleased(t, da, "worker A after B arrived")
	assertReleased(t, db, "worker B")

	// Lock-step over several windows from both sides concurrently.
	const rounds = 10
	fin := make(chan error, 2)
	for _, cl := range []*SSPClock{a, b} {
		cl := cl
		go func() {
			for i := 0; i < rounds; i++ {
				if err := cl.Tick(); err != nil {
					fin <- err
					return
				}
			}
			fin <- cl.Retire()
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-fin:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("k=0 lock-step run deadlocked")
		}
	}
}

// TestSSPRetireUnblocksWaiters: a worker that finishes its run retires;
// a peer blocked on its frozen clock must be released.
func TestSSPRetireUnblocksWaiters(t *testing.T) {
	c, _ := newFaultyCluster(t, 1, "ssp-ret")
	agent := c.NewClient()
	a := agent.SSPClock("ringr", 0, 2, 0)
	b := agent.SSPClock("ringr", 1, 2, 0)

	da := tickDone(t, a)
	assertBlocked(t, da, "worker A before B retired")
	if err := b.Retire(); err != nil {
		t.Fatal(err)
	}
	assertReleased(t, da, "worker A after B retired")

	// The ring is deleted once the last worker retires.
	if err := a.Retire(); err != nil {
		t.Fatal(err)
	}
	c.Master.clocks.mu.Lock()
	_, exists := c.Master.clocks.rings["ringr"]
	c.Master.clocks.mu.Unlock()
	if exists {
		t.Fatal("ring not deleted after all workers retired")
	}
}

// TestSSPLeaseExpiryUnblocks: a worker that dies silently mid-run (no
// further call, no retire — modeled with a handle that ticks once, free
// under k=1, and then goes quiet) is lease-retired by its waiting peers, so
// a dead executor cannot stall the ring — the failover composition.
func TestSSPLeaseExpiryUnblocks(t *testing.T) {
	c, _ := newFaultyCluster(t, 1, "ssp-lease2")
	agent := c.NewClient()
	alive := agent.SSPClock("ringl", 0, 2, 1)
	alive.SetLease(100 * time.Millisecond)
	dead := agent.SSPClock("ringl", 1, 2, 1)
	dead.SetLease(100 * time.Millisecond)

	if err := dead.Tick(); err != nil { // dead -> 1, then silence
		t.Fatal(err)
	}
	start := time.Now()
	// alive -> 1 (free), 2 (target 1 <= dead's 1, free), 3 (target 2 >
	// dead's 1: blocks until the lease retires the dead worker).
	for i := 0; i < 3; i++ {
		if err := alive.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("lease retirement took %v", elapsed)
	}
	// Further windows stay free: the ring's minimum now tracks only the
	// live worker.
	for i := 0; i < 3; i++ {
		if err := alive.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := alive.Retire(); err != nil {
		t.Fatal(err)
	}
}

// methodCounter is an rpc.Transport that counts the calls it carries, by
// method.
type methodCounter struct {
	rpc.Transport
	mu    sync.Mutex
	calls map[string]int
}

func (m *methodCounter) Call(addr, method string, body []byte) ([]byte, error) {
	m.mu.Lock()
	m.calls[method]++
	m.mu.Unlock()
	return m.Transport.Call(addr, method, body)
}

// take returns the counts since the last take and resets them.
func (m *methodCounter) take() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	got := m.calls
	m.calls = map[string]int{}
	return got
}

// newCountedCluster builds a one-server cluster whose every call goes
// through a methodCounter over inner.
func newCountedCluster(t *testing.T, inner rpc.Transport, prefix string) (*Cluster, *methodCounter) {
	t.Helper()
	tr := &methodCounter{Transport: inner, calls: map[string]int{}}
	c, err := NewCluster(ClusterConfig{NumServers: 1, Transport: tr, NamePrefix: prefix})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, tr
}

// TestSSPTickIsOneCallPerWindow: a window of a ring that waits (k >= 0)
// costs exactly one ClockWait; an ASP handle (k < 0) calls the master
// neither on Tick nor on Retire and leaves no ring behind, yet still counts
// its clock.
func TestSSPTickIsOneCallPerWindow(t *testing.T) {
	c, tr := newCountedCluster(t, rpc.NewInProc(), "ssp-calls")
	agent := c.NewClient()
	for _, k := range []int{0, 1, 3} {
		ck := agent.SSPClock("calls", 0, 1, k)
		tr.take()
		for i := 1; i <= 3; i++ {
			if err := ck.Tick(); err != nil {
				t.Fatal(err)
			}
			if got := tr.take(); !maps.Equal(got, map[string]int{"ClockWait": 1}) || ck.clock != int64(i) {
				t.Fatalf("k=%d window %d: calls %v at clock %d, want one ClockWait", k, i, got, ck.clock)
			}
		}
		if err := ck.Retire(); err != nil {
			t.Fatal(err)
		}
		if got := tr.take(); !maps.Equal(got, map[string]int{"ClockRetire": 1}) {
			t.Fatalf("k=%d retire: calls %v, want one ClockRetire", k, got)
		}
	}

	// Worker 1 of the ASP ring never shows up: nobody waits for it.
	asp := agent.SSPClock("calls-asp", 0, 2, -1)
	for i := 0; i < 3; i++ {
		assertReleased(t, tickDone(t, asp), "ASP tick")
	}
	if err := asp.Retire(); err != nil {
		t.Fatal(err)
	}
	if got := tr.take(); len(got) != 0 {
		t.Fatalf("ASP handle: calls %v, want none", got)
	}
	if asp.clock != 3 {
		t.Fatalf("ASP handle at clock %d after 3 ticks", asp.clock)
	}
	c.Master.clocks.mu.Lock()
	n := len(c.Master.clocks.rings)
	c.Master.clocks.mu.Unlock()
	if n != 0 {
		t.Fatalf("master holds %d clock rings after every handle retired, want 0", n)
	}
}

// TestSSPLockStepPairOnClockWaitAlone: two k=0 workers release each other
// window after window with ClockWait as the only call either makes.
func TestSSPLockStepPairOnClockWaitAlone(t *testing.T) {
	c, tr := newCountedCluster(t, rpc.NewInProc(), "ssp-pair")
	agent := c.NewClient()
	a := agent.SSPClock("pair", 0, 2, 0)
	b := agent.SSPClock("pair", 1, 2, 0)
	tr.take()
	const rounds = 5
	for i := 0; i < rounds; i++ {
		da := tickDone(t, a)
		assertBlocked(t, da, "worker A before B ticked")
		db := tickDone(t, b)
		assertReleased(t, da, "worker A after B ticked")
		assertReleased(t, db, "worker B")
	}
	if got := tr.take(); !maps.Equal(got, map[string]int{"ClockWait": 2 * rounds}) {
		t.Fatalf("%d lock-step windows of two workers made %v, want %d ClockWait", rounds, got, 2*rounds)
	}
}

// TestSSPClockWaitRetryIsIdempotent: the response of a ClockWait that
// released its worker is dropped and the client retries it. The retry
// merges the same absolute clock — no double advance — and returns at
// once instead of waiting for a window nobody will finish; the next
// lock-step window then completes as usual.
func TestSSPClockWaitRetryIsIdempotent(t *testing.T) {
	f := rpc.NewFaulty(rpc.NewInProc(), 1)
	c, tr := newCountedCluster(t, f, "ssp-retry")
	agent := c.NewClient()
	a := agent.SSPClock("retry", 0, 2, 0)
	b := agent.SSPClock("retry", 1, 2, 0)
	tr.take()

	f.DropResponses(c.Master.Addr, 1) // A's ClockWait, the next master call
	da := tickDone(t, a)
	assertBlocked(t, da, "worker A before B ticked")
	if err := b.Tick(); err != nil {
		t.Fatal(err)
	}
	assertReleased(t, da, "worker A after its dropped response")
	if got := f.Stats().DroppedResponses; got != 1 {
		t.Fatalf("dropped %d responses, want 1", got)
	}
	if got := tr.take(); !maps.Equal(got, map[string]int{"ClockWait": 3}) {
		t.Fatalf("calls %v, want 3 ClockWait (A, A's retry, B)", got)
	}
	c.Master.clocks.mu.Lock()
	clocks := append([]int64(nil), c.Master.clocks.rings["retry"].clocks...)
	c.Master.clocks.mu.Unlock()
	if clocks[0] != 1 || clocks[1] != 1 || a.clock != 1 {
		t.Fatalf("ring clocks %v, A's handle at %d after one window, want [1 1] and 1", clocks, a.clock)
	}

	db := tickDone(t, b)
	assertBlocked(t, db, "worker B in window 2 before A ticked")
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	assertReleased(t, db, "worker B in window 2")
}

package ps

// Stale-synchronous-parallel (SSP) clocks.
//
// BSP and ASP are the two extremes the paper describes; everything in
// between is a bounded-staleness protocol: each worker owns a clock, and
// ClockWait publishes "worker w finished window c" and blocks it until
// min(live clocks) >= c - k. k=0 is lock-step BSP, small k lets fast
// workers run ahead of stragglers by a bounded number of windows — the
// SSP model of Ho et al. and DeepSpark (PAPERS.md) — and k<0 is ASP: no
// ring at all, and no clock traffic.
//
// The master keeps one clockRing per tag: a fixed vector of Expect worker
// clocks (pre-seeded to 0, so a fast worker cannot outrun workers that
// have not even started), a retired set, and a broadcast channel that is
// closed-and-replaced on every state change to wake waiters.
//
// Design points that matter for correctness:
//
//   - ClockWait carries the worker's ABSOLUTE clock and merges it with
//     max() before it waits. That makes it idempotent: a retry after a
//     dropped response re-sends the same value, merges nothing and waits
//     on a target already met, so clock RPCs need no (clientID, seq) dedup
//     envelope at all. It also rebuilds the ring after a master restart
//     (rings are not journaled) at the right value in the same call.
//
//   - Failover composition: a worker whose executor died mid-window would
//     freeze the ring's minimum forever. Rings therefore carry an optional
//     lease (the client passes it on every call): waiters lazily retire
//     any worker that has not called within a lease, and min() skips
//     retired workers. A retired worker that was merely slow un-retires
//     itself on its next ClockWait — absolute clocks make late calls
//     harmless. Workers parked in ClockWait renew their lease by polling,
//     so a worker legitimately blocked on a straggler is never retired. A
//     worker that finishes its run calls ClockRetire so completed
//     partitions cannot stall the ring; when every worker has retired the
//     ring itself is deleted.

import (
	"fmt"
	"sync"
	"time"
)

// clockTable is the master-side SSP state: one ring per tag.
type clockTable struct {
	mu    sync.Mutex
	rings map[string]*clockRing
}

func newClockTable() *clockTable {
	return &clockTable{rings: make(map[string]*clockRing)}
}

// clockRing is the per-tag vector clock. All fields are guarded by the
// owning clockTable's mutex.
type clockRing struct {
	expect   int
	lease    time.Duration
	clocks   []int64
	retired  []bool
	waiting  []int // active ClockWait calls per worker (lease exemption)
	lastSeen []time.Time
	bcast    chan struct{}
}

// wake signals every waiter that ring state changed.
func (r *clockRing) wake() {
	close(r.bcast)
	r.bcast = make(chan struct{})
}

// minLive returns the minimum clock over non-retired workers; live is
// false when every worker has retired (waiters must then unblock).
func (r *clockRing) minLive() (min int64, live bool) {
	for w := 0; w < r.expect; w++ {
		if r.retired[w] {
			continue
		}
		if !live || r.clocks[w] < min {
			min = r.clocks[w]
			live = true
		}
	}
	return min, live
}

// retireExpired retires workers whose lease lapsed: no call within
// r.lease. Workers with an active ClockWait are exempt — they are alive,
// just blocked on a straggler.
func (r *clockRing) retireExpired() {
	now := time.Now()
	changed := false
	for w := 0; w < r.expect; w++ {
		if r.retired[w] || r.waiting[w] > 0 {
			continue
		}
		if now.Sub(r.lastSeen[w]) > r.lease {
			r.retired[w] = true
			changed = true
		}
	}
	if changed {
		r.wake()
	}
}

// ring returns the ring for tag, creating it on first use. Called with
// t.mu held.
func (t *clockTable) ring(tag string, expect int, leaseNS int64) *clockRing {
	r := t.rings[tag]
	if r == nil {
		if expect <= 0 {
			expect = 1
		}
		r = &clockRing{
			expect:   expect,
			clocks:   make([]int64, expect),
			retired:  make([]bool, expect),
			waiting:  make([]int, expect),
			lastSeen: make([]time.Time, expect),
			bcast:    make(chan struct{}),
		}
		now := time.Now()
		for i := range r.lastSeen {
			r.lastSeen[i] = now
		}
		t.rings[tag] = r
	}
	if leaseNS > 0 && r.lease == 0 {
		r.lease = time.Duration(leaseNS)
	}
	return r
}

// wait merges the worker's absolute clock (idempotent under retries), then
// blocks until min(live clocks) >= req.Clock - req.K, or until no live
// workers remain.
func (t *clockTable) wait(req clockReq) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.ring(req.Tag, req.Expect, req.LeaseNS)
	worker := req.Worker
	if worker < 0 || worker >= r.expect {
		return fmt.Errorf("ps: clock %q: worker %d out of range [0,%d)", req.Tag, worker, r.expect)
	}
	if req.Clock > r.clocks[worker] {
		r.clocks[worker] = req.Clock
	}
	r.retired[worker] = false
	r.wake()
	// With a lease configured the loop polls at lease/4 so waiters lazily
	// retire dead workers; without one it sleeps purely on the broadcast.
	target := req.Clock - int64(req.K)
	r.waiting[worker]++
	for {
		r.lastSeen[worker] = time.Now()
		min, live := r.minLive()
		if !live || min >= target {
			r.waiting[worker]--
			return nil
		}
		ch := r.bcast
		var tick <-chan time.Time
		var timer *time.Timer
		if r.lease > 0 {
			d := r.lease / 4
			if d < time.Millisecond {
				d = time.Millisecond
			}
			timer = time.NewTimer(d)
			tick = timer.C
		}
		t.mu.Unlock()
		select {
		case <-ch:
		case <-tick:
		}
		if timer != nil {
			timer.Stop()
		}
		t.mu.Lock()
		if r.lease > 0 {
			r.retireExpired()
		}
	}
}

// retire removes a worker from the ring's minimum; when the last worker
// retires the ring is deleted (waiters have been woken first).
func (t *clockTable) retire(req clockReq) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rings[req.Tag]
	if r == nil || req.Worker < 0 || req.Worker >= r.expect {
		return
	}
	if !r.retired[req.Worker] {
		r.retired[req.Worker] = true
		r.lastSeen[req.Worker] = time.Now()
		r.wake()
	}
	for _, done := range r.retired {
		if !done {
			return
		}
	}
	delete(t.rings, req.Tag)
}

// ---------------------------------------------------------------------------
// Client-side handle.

// SSPClock is a worker's handle on one SSP clock ring. A training loop
// calls Tick once per window (mini-batch group): with k >= 0 it publishes
// the new clock and blocks until the slowest live worker is within k
// clocks — one ClockWait — then runs the registered OnAdvance hooks
// (row-cache invalidation). Retire releases the worker's slot when the
// loop finishes so completed workers cannot stall stragglers. With k < 0
// (ASP) nobody waits, so Tick only runs the hooks and Retire is a no-op.
//
// Clock RPCs are deliberately NOT dedup-enveloped: ClockWait is idempotent
// (absolute clock, max-merge) and retire is naturally retry-safe.
type SSPClock struct {
	c      *Client
	tag    string
	worker int
	expect int
	k      int
	lease  time.Duration
	clock  int64
	hooks  []func()
}

// SSPClock creates a handle for worker (0 <= worker < expect) on the ring
// named tag. k bounds the clock spread: 0 is BSP lock-step; a negative k
// selects ASP (no ring: Tick runs the hooks and never calls the master).
func (c *Client) SSPClock(tag string, worker, expect, k int) *SSPClock {
	return &SSPClock{c: c, tag: tag, worker: worker, expect: expect, k: k}
}

// SetLease arms dead-worker retirement: a worker silent for d is retired
// by its peers so it cannot stall the ring. Pair it with the cluster's
// failover lease.
func (s *SSPClock) SetLease(d time.Duration) { s.lease = d }

// OnAdvance registers a hook run once per window, after the window's
// ClockWait returns. Prefetch caches register their invalidation here:
// no pull is in flight across a window edge, and a cache insert racing
// the invalidation is dropped by its version fence.
func (s *SSPClock) OnAdvance(fn func()) { s.hooks = append(s.hooks, fn) }

// Clock returns the worker's current clock value.
func (s *SSPClock) Clock() int64 { return s.clock }

// Tick completes one window: publish the new clock and wait until the
// slowest live worker is within k clocks (no call at all when k < 0, i.e.
// ASP), then run the hooks. After a master restart the same call rebuilds
// the ring, which is not journaled, at this worker's absolute clock.
func (s *SSPClock) Tick() error {
	s.clock++
	if s.k >= 0 {
		req := clockReq{Tag: s.tag, Worker: s.worker, Expect: s.expect, K: s.k, Clock: s.clock, LeaseNS: int64(s.lease)}
		if err := s.c.invoke(s.c.masterAddr, "ClockWait", req, nil); err != nil {
			return err
		}
	}
	for _, fn := range s.hooks {
		fn()
	}
	return nil
}

// Retire releases this worker's slot; the ring no longer counts it in the
// minimum.
func (s *SSPClock) Retire() error {
	if s.k < 0 {
		return nil
	}
	return s.c.invoke(s.c.masterAddr, "ClockRetire",
		clockReq{Tag: s.tag, Worker: s.worker, Expect: s.expect}, nil)
}

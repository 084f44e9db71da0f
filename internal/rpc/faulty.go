package rpc

// Faulty wraps any Transport with seeded, per-endpoint fault injection.
// KillServer-style failures are "clean": the endpoint vanishes atomically
// and every caller sees ErrUnreachable. Real clusters fail dirtier — the
// request is lost before the handler runs, the response is lost after the
// handler ran (the server applied a write the client never hears about),
// a gray server stalls for seconds without dying, or the network
// partitions two groups of nodes that each stay healthy. Faulty injects
// exactly those failures underneath an unmodified protocol stack, so the
// retry/dedup machinery of the ps package is exercised against the same
// fault model a production deployment faces.
//
// Determinism: every endpoint owns a PRNG seeded from (transport seed,
// endpoint name), so the decision stream of an endpoint depends only on
// its own call order, not on cross-endpoint goroutine interleaving. A
// fixed seed therefore yields a reproducible fault schedule per endpoint.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Policy is the probabilistic fault schedule of one endpoint.
type Policy struct {
	// DropRequest is the probability a call is dropped before reaching
	// the endpoint (the handler never runs); the caller sees
	// ErrUnreachable.
	DropRequest float64
	// DropResponse is the probability the response is dropped after the
	// handler ran (a write was applied; the caller sees ErrUnreachable
	// and will retry).
	DropResponse float64
	// Delay is a fixed latency added to every call.
	Delay time.Duration
	// Jitter adds a uniform extra delay in [0, Jitter).
	Jitter time.Duration
}

// FaultStats counts the faults a Faulty transport injected.
type FaultStats struct {
	Calls            int64
	DroppedRequests  int64
	DroppedResponses int64
	Stalls           int64
	PartitionDrops   int64
}

// endpointState is the per-endpoint policy plus its deterministic PRNG
// and one-shot counters.
type endpointState struct {
	mu       sync.Mutex
	policy   Policy
	rng      *rand.Rand
	dropResp int // next n responses dropped deterministically
	stallN   int // next n calls stall for stallFor
	stallFor time.Duration
}

// Faulty is a Transport decorator. It is composable over both InProc and
// TCP: Register/Deregister/Close pass through, Call applies the
// destination endpoint's fault policy around the inner call.
type Faulty struct {
	inner Transport
	seed  int64

	mu     sync.Mutex
	eps    map[string]*endpointState
	groups map[string]string // endpoint -> partition group ("" = default)

	calls       atomic.Int64
	droppedReq  atomic.Int64
	droppedResp atomic.Int64
	stalls      atomic.Int64
	partDrops   atomic.Int64
}

// NewFaulty wraps inner with a fault injector whose per-endpoint decision
// streams derive from seed.
func NewFaulty(inner Transport, seed int64) *Faulty {
	return &Faulty{
		inner:  inner,
		seed:   seed,
		eps:    make(map[string]*endpointState),
		groups: make(map[string]string),
	}
}

// Inner returns the wrapped transport.
func (f *Faulty) Inner() Transport { return f.inner }

// Stats returns the injected-fault counters.
func (f *Faulty) Stats() FaultStats {
	return FaultStats{
		Calls:            f.calls.Load(),
		DroppedRequests:  f.droppedReq.Load(),
		DroppedResponses: f.droppedResp.Load(),
		Stalls:           f.stalls.Load(),
		PartitionDrops:   f.partDrops.Load(),
	}
}

// state returns (creating if needed) the endpoint's fault state. The PRNG
// is seeded from (seed, addr), so per-endpoint decision streams do not
// depend on the order in which endpoints first appear.
func (f *Faulty) state(addr string) *endpointState {
	f.mu.Lock()
	defer f.mu.Unlock()
	ep, ok := f.eps[addr]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(addr))
		ep = &endpointState{rng: rand.New(rand.NewSource(f.seed ^ int64(h.Sum64())))}
		f.eps[addr] = ep
	}
	return ep
}

// SetPolicy installs (replacing) the probabilistic fault policy of addr.
func (f *Faulty) SetPolicy(addr string, p Policy) {
	ep := f.state(addr)
	ep.mu.Lock()
	ep.policy = p
	ep.mu.Unlock()
}

// ClearPolicy removes addr's probabilistic policy; pending one-shot
// counters (DropResponses, Stall) are cleared too.
func (f *Faulty) ClearPolicy(addr string) {
	ep := f.state(addr)
	ep.mu.Lock()
	ep.policy = Policy{}
	ep.dropResp = 0
	ep.stallN = 0
	ep.mu.Unlock()
}

// Clear removes every policy, one-shot counter, and partition.
func (f *Faulty) Clear() {
	f.mu.Lock()
	eps := make([]*endpointState, 0, len(f.eps))
	for _, ep := range f.eps {
		eps = append(eps, ep)
	}
	f.groups = make(map[string]string)
	f.mu.Unlock()
	for _, ep := range eps {
		ep.mu.Lock()
		ep.policy = Policy{}
		ep.dropResp = 0
		ep.stallN = 0
		ep.mu.Unlock()
	}
}

// DropResponses drops the responses of the next n calls to addr: the
// handler runs (writes are applied), the caller sees ErrUnreachable.
// Deterministic — used by tests that need an exact fault placement.
func (f *Faulty) DropResponses(addr string, n int) {
	ep := f.state(addr)
	ep.mu.Lock()
	ep.dropResp += n
	ep.mu.Unlock()
}

// Stall makes the next n calls to addr take an extra d each before
// proceeding normally — the gray-failure mode where a server is slow but
// not dead, so the failure detector never fires.
func (f *Faulty) Stall(addr string, n int, d time.Duration) {
	ep := f.state(addr)
	ep.mu.Lock()
	ep.stallN += n
	ep.stallFor = d
	ep.mu.Unlock()
}

// SetPartition splits the network: every listed endpoint joins the named
// group, unlisted endpoints form the implicit default group, and a call
// whose source and destination are in different groups fails with
// ErrUnreachable before reaching the endpoint. Calls made directly on the
// Faulty (not through a Caller view) originate from the default group.
func (f *Faulty) SetPartition(groups map[string][]string) {
	f.mu.Lock()
	f.groups = make(map[string]string)
	for name, members := range groups {
		for _, addr := range members {
			f.groups[addr] = name
		}
	}
	f.mu.Unlock()
}

// ClearPartition heals the network partition.
func (f *Faulty) ClearPartition() {
	f.mu.Lock()
	f.groups = make(map[string]string)
	f.mu.Unlock()
}

// Caller returns a Transport view whose calls originate from src for
// partition purposes, so endpoint-to-endpoint reachability can be
// modeled (the Transport interface itself carries no source identity).
func (f *Faulty) Caller(src string) Transport { return &callerView{f: f, src: src} }

type callerView struct {
	f   *Faulty
	src string
}

func (v *callerView) Register(addr string, h Handler) error { return v.f.Register(addr, h) }
func (v *callerView) Deregister(addr string)                { v.f.Deregister(addr) }
func (v *callerView) Close() error                          { return v.f.Close() }
func (v *callerView) Call(addr, method string, body []byte) ([]byte, error) {
	return v.f.callFrom(v.src, addr, method, body)
}

// Register implements Transport.
func (f *Faulty) Register(addr string, h Handler) error { return f.inner.Register(addr, h) }

// Deregister implements Transport.
func (f *Faulty) Deregister(addr string) { f.inner.Deregister(addr) }

// Close implements Transport.
func (f *Faulty) Close() error { return f.inner.Close() }

// Call implements Transport; the source is the default partition group.
func (f *Faulty) Call(addr, method string, body []byte) ([]byte, error) {
	return f.callFrom("", addr, method, body)
}

func (f *Faulty) callFrom(src, addr, method string, body []byte) ([]byte, error) {
	f.calls.Add(1)
	f.mu.Lock()
	if len(f.groups) > 0 && f.groups[src] != f.groups[addr] {
		f.mu.Unlock()
		f.partDrops.Add(1)
		return nil, fmt.Errorf("%w: %s: network partition", ErrUnreachable, addr)
	}
	ep := f.eps[addr]
	f.mu.Unlock()
	if ep == nil {
		return f.inner.Call(addr, method, body)
	}

	// Draw every decision for this call under the endpoint lock, in a
	// fixed order, so the PRNG stream stays a pure function of the
	// endpoint's call sequence.
	ep.mu.Lock()
	p := ep.policy
	dropReq := p.DropRequest > 0 && ep.rng.Float64() < p.DropRequest
	dropResp := p.DropResponse > 0 && ep.rng.Float64() < p.DropResponse
	delay := p.Delay
	if p.Jitter > 0 {
		delay += time.Duration(ep.rng.Int63n(int64(p.Jitter)))
	}
	var stall time.Duration
	if ep.stallN > 0 {
		ep.stallN--
		stall = ep.stallFor
	}
	if ep.dropResp > 0 {
		ep.dropResp--
		dropResp = true
	}
	ep.mu.Unlock()

	if stall > 0 {
		f.stalls.Add(1)
		time.Sleep(stall)
	}
	if delay > 0 {
		sleepPrecise(delay)
	}
	if dropReq {
		f.droppedReq.Add(1)
		return nil, fmt.Errorf("%w: %s: request dropped", ErrUnreachable, addr)
	}
	out, err := f.inner.Call(addr, method, body)
	if dropResp {
		f.droppedResp.Add(1)
		return nil, fmt.Errorf("%w: %s: response dropped", ErrUnreachable, addr)
	}
	return out, err
}

// ErrNoListen reports that a transport (or the transport a Faulty wraps)
// cannot mint listener-assigned endpoints.
var ErrNoListen = errors.New("rpc: transport does not support Listen")

// CanListen reports whether t (unwrapping Faulty decorators) assigns real
// listener endpoints via Listen — true for TCP, false for InProc.
func CanListen(t Transport) bool {
	switch x := t.(type) {
	case *TCP:
		return true
	case *Faulty:
		return CanListen(x.inner)
	}
	return false
}

// Listen starts a listener-assigned endpoint on t, unwrapping Faulty
// decorators (serving is not where faults are injected; Call is).
func Listen(t Transport, h Handler) (string, error) {
	switch x := t.(type) {
	case *TCP:
		return x.Listen(h)
	case *Faulty:
		return Listen(x.inner, h)
	}
	return "", ErrNoListen
}

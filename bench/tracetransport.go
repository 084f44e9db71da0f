package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"psgraph/internal/rpc"
)

// traceTransport decorates an rpc.Transport with spans: a client span per
// Call (method, bytes out/in, error) and a server span per invocation of a
// registered Handler. The two share an id, which travels as a "#<id>"
// suffix of the method name and is stripped before the handler sees it.
//
// rpc.CanListen/rpc.Listen only unwrap *rpc.TCP and *rpc.Faulty, so a
// ps.Cluster on this decorator registers symbolic endpoint names even over
// TCP. The decorator therefore owns the mapping from those names to the
// listener-assigned addresses.
//
// It is used by traced runs only; untraced runs hand the bare transport to
// the cluster.
type traceTransport struct {
	inner rpc.Transport
	rec   *recorder
	// listen is non-nil when inner assigns real endpoints (TCP).
	listen func(rpc.Handler) (string, error)

	mu    sync.RWMutex
	bound map[string]string // symbolic name -> listener-assigned address

	inflight    atomic.Int64
	maxInflight atomic.Int64
}

func newTraceTransport(inner rpc.Transport, rec *recorder) *traceTransport {
	t := &traceTransport{inner: inner, rec: rec, bound: make(map[string]string)}
	if rpc.CanListen(inner) {
		t.listen = func(h rpc.Handler) (string, error) { return rpc.Listen(inner, h) }
	}
	return t
}

// rpcGroup sorts a method into one of rpcGroups. "master" is the control
// plane: everything that is not a data-path read, write, psFunc or clock
// call, whether addressed to the master or made by it.
func rpcGroup(method string) string {
	switch {
	case method == "ServePull" || method == "ServeHotPull":
		return "serve"
	case method == "Func":
		return "func"
	case strings.HasPrefix(method, "Clock") || method == "Barrier":
		return "clock"
	case strings.HasSuffix(method, "Pull"):
		return "pull"
	case strings.HasSuffix(method, "Push"):
		return "push"
	}
	return "master"
}

// Register implements rpc.Transport.
func (t *traceTransport) Register(addr string, h rpc.Handler) error {
	if h == nil {
		return errors.New("bench: nil handler")
	}
	wrapped := func(method string, body []byte) ([]byte, error) {
		i := strings.LastIndexByte(method, '#')
		if i < 0 {
			return h(method, body)
		}
		id, err := strconv.ParseUint(method[i+1:], 36, 64)
		if err != nil {
			return h(method, body)
		}
		method = method[:i]
		start := t.rec.now()
		resp, herr := h(method, body)
		t.rec.add(span{
			ID: id, Layer: "rpc.server", Name: method, Group: rpcGroup(method),
			Start: start, End: t.rec.now(), Err: herr != nil,
		})
		return resp, herr
	}
	if t.listen == nil {
		return t.inner.Register(addr, wrapped)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.bound[addr]; ok {
		t.inner.Deregister(old)
	}
	bound, err := t.listen(wrapped)
	if err != nil {
		return err
	}
	t.bound[addr] = bound
	return nil
}

// Deregister implements rpc.Transport.
func (t *traceTransport) Deregister(addr string) {
	if t.listen == nil {
		t.inner.Deregister(addr)
		return
	}
	t.mu.Lock()
	bound, ok := t.bound[addr]
	delete(t.bound, addr)
	t.mu.Unlock()
	if ok {
		t.inner.Deregister(bound)
	}
}

// Call implements rpc.Transport; the call's parent span is whatever
// benchmark call is in progress.
func (t *traceTransport) Call(addr, method string, body []byte) ([]byte, error) {
	return t.call(t.rec.current.Load(), addr, method, body)
}

// Close implements rpc.Transport.
func (t *traceTransport) Close() error { return t.inner.Close() }

func (t *traceTransport) call(parent uint64, addr, method string, body []byte) ([]byte, error) {
	target := addr
	if t.listen != nil {
		t.mu.RLock()
		bound, ok := t.bound[addr]
		t.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("%w: %s", rpc.ErrUnreachable, addr)
		}
		target = bound
	}
	id := t.rec.nextID.Add(1)
	n := t.inflight.Add(1)
	for {
		m := t.maxInflight.Load()
		if n <= m || t.maxInflight.CompareAndSwap(m, n) {
			break
		}
	}
	start := t.rec.now()
	resp, err := t.inner.Call(target, method+"#"+strconv.FormatUint(id, 36), body)
	end := t.rec.now()
	t.inflight.Add(-1)
	var re *rpc.RemoteError
	if errors.As(err, &re) {
		re.Addr, re.Method = addr, method
	}
	t.rec.add(span{
		ID: id, Parent: parent, Layer: "rpc.client", Name: method, Group: rpcGroup(method),
		Start: start, End: end, BytesOut: int64(len(body)), BytesIn: int64(len(resp)), Err: err != nil,
	})
	return resp, err
}

// actor returns a view of the transport for one concurrent load generator:
// its calls are parented to the span the actor sets, not to the recorder's
// current call.
func (t *traceTransport) actor() *traceActor { return &traceActor{t: t} }

type traceActor struct {
	t      *traceTransport
	parent atomic.Uint64
}

func (a *traceActor) Register(addr string, h rpc.Handler) error { return a.t.Register(addr, h) }
func (a *traceActor) Deregister(addr string)                    { a.t.Deregister(addr) }
func (a *traceActor) Close() error                              { return nil }
func (a *traceActor) Call(addr, method string, body []byte) ([]byte, error) {
	return a.t.call(a.parent.Load(), addr, method, body)
}

// Package rpc provides the message transport used between PSGraph
// components: parameter-server clients (PS agents embedded in executors),
// parameter servers, and the PS master.
//
// Two implementations are provided behind the same Transport interface:
// an in-process transport used by the simulated cluster (every node lives
// in one OS process, as the experiments run on a single machine), and a
// TCP transport using length-prefixed binary framing that exercises a
// real network stack. Both are safe for concurrent use.
package rpc

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Handler processes one request addressed to an endpoint. The method name
// selects the operation; body is an opaque, already-encoded payload.
// Handlers must be safe for concurrent use. The body slice is only valid
// until the handler returns (transports recycle frame buffers): handlers
// must copy any bytes they retain. The returned response belongs to the
// transport from then on — it goes to the frame pool (GetBuf/PutBuf) once
// sent, or to the caller in-proc — so a handler must not retain it either.
// It may alias body; transports keep the request buffer alive until the
// response is sent.
type Handler func(method string, body []byte) ([]byte, error)

// Transport routes calls between named endpoints.
type Transport interface {
	// Register binds addr to h. Re-registering an address replaces the
	// previous handler (used when a failed server restarts in place).
	Register(addr string, h Handler) error
	// Deregister removes the endpoint; subsequent calls to it fail with
	// ErrUnreachable.
	Deregister(addr string)
	// Call sends one request and waits for the response.
	Call(addr, method string, body []byte) ([]byte, error)
	// Close releases transport resources.
	Close() error
}

// ErrUnreachable reports that the destination endpoint is not registered
// (e.g. the server process was killed and has not restarted yet).
var ErrUnreachable = errors.New("rpc: endpoint unreachable")

// RemoteError carries an application error returned by the remote handler.
type RemoteError struct {
	Addr   string
	Method string
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote %s.%s: %s", e.Addr, e.Method, e.Msg)
}

// InProc is an in-process Transport backed by a handler table. An optional
// artificial latency models network round-trip cost in experiments that
// study communication volume.
type InProc struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	latency  time.Duration
	closed   bool
}

// NewInProc returns an in-process transport with no artificial latency.
func NewInProc() *InProc {
	return &InProc{handlers: make(map[string]Handler)}
}

// SetLatency injects a fixed delay into every Call, simulating network RTT.
func (t *InProc) SetLatency(d time.Duration) {
	t.mu.Lock()
	t.latency = d
	t.mu.Unlock()
}

// Register implements Transport.
func (t *InProc) Register(addr string, h Handler) error {
	if h == nil {
		return errors.New("rpc: nil handler")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errors.New("rpc: transport closed")
	}
	t.handlers[addr] = h
	return nil
}

// Deregister implements Transport.
func (t *InProc) Deregister(addr string) {
	t.mu.Lock()
	delete(t.handlers, addr)
	t.mu.Unlock()
}

// Call implements Transport.
func (t *InProc) Call(addr, method string, body []byte) ([]byte, error) {
	t.mu.RLock()
	h, ok := t.handlers[addr]
	lat := t.latency
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return nil, errors.New("rpc: transport closed")
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	if lat > 0 {
		sleepPrecise(lat)
	}
	resp, err := h(method, body)
	if err != nil {
		return nil, &RemoteError{Addr: addr, Method: method, Msg: err.Error()}
	}
	return resp, nil
}

// sleepPrecise waits for d with microsecond accuracy. time.Sleep rounds
// sub-millisecond durations up to the scheduler tick (>1ms on this
// kernel), which would inflate simulated RPC latencies by 10×; short
// waits therefore spin, yielding to the scheduler between checks.
func sleepPrecise(d time.Duration) {
	if d >= 2*time.Millisecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// Close implements Transport.
func (t *InProc) Close() error {
	t.mu.Lock()
	t.closed = true
	t.handlers = make(map[string]Handler)
	t.mu.Unlock()
	return nil
}

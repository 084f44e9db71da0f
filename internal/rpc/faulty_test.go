package rpc

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newEchoFaulty(t *testing.T, seed int64) (*Faulty, *atomic.Int64) {
	t.Helper()
	inner := NewInProc()
	f := NewFaulty(inner, seed)
	var served atomic.Int64
	if err := f.Register("srv", func(method string, body []byte) ([]byte, error) {
		served.Add(1)
		return append([]byte(nil), body...), nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, &served
}

func TestFaultyPassthrough(t *testing.T) {
	f, served := newEchoFaulty(t, 1)
	out, err := f.Call("srv", "Echo", []byte("hi"))
	if err != nil || string(out) != "hi" {
		t.Fatalf("Call = %q, %v", out, err)
	}
	if served.Load() != 1 {
		t.Fatalf("served %d times", served.Load())
	}
}

func TestFaultyDropRequestNeverReachesHandler(t *testing.T) {
	f, served := newEchoFaulty(t, 2)
	f.SetPolicy("srv", Policy{DropRequest: 1})
	if _, err := f.Call("srv", "Echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
	if served.Load() != 0 {
		t.Fatalf("handler ran %d times for a dropped request", served.Load())
	}
	if s := f.Stats(); s.DroppedRequests != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFaultyDropResponseAppliesServerSide(t *testing.T) {
	f, served := newEchoFaulty(t, 3)
	f.DropResponses("srv", 2)
	for i := 0; i < 2; i++ {
		if _, err := f.Call("srv", "Echo", nil); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("call %d: want ErrUnreachable, got %v", i, err)
		}
	}
	// The defining property of a dropped response: the handler DID run.
	if served.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2", served.Load())
	}
	if out, err := f.Call("srv", "Echo", []byte("ok")); err != nil || string(out) != "ok" {
		t.Fatalf("after drops exhausted: %q, %v", out, err)
	}
	if s := f.Stats(); s.DroppedResponses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFaultyStallDelaysButSucceeds(t *testing.T) {
	f, _ := newEchoFaulty(t, 4)
	f.Stall("srv", 1, 30*time.Millisecond)
	start := time.Now()
	if _, err := f.Call("srv", "Echo", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("stalled call returned in %v", d)
	}
	// Next call is back to normal speed.
	start = time.Now()
	if _, err := f.Call("srv", "Echo", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("post-stall call took %v", d)
	}
}

func TestFaultyDelayAndJitter(t *testing.T) {
	f, _ := newEchoFaulty(t, 5)
	f.SetPolicy("srv", Policy{Delay: 10 * time.Millisecond, Jitter: 5 * time.Millisecond})
	start := time.Now()
	if _, err := f.Call("srv", "Echo", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("delayed call returned in %v", d)
	}
}

func TestFaultyDeterministicPerEndpoint(t *testing.T) {
	run := func() []bool {
		inner := NewInProc()
		f := NewFaulty(inner, 42)
		f.Register("a", func(string, []byte) ([]byte, error) { return nil, nil })
		defer f.Close()
		f.SetPolicy("a", Policy{DropRequest: 0.5})
		var outcomes []bool
		for i := 0; i < 64; i++ {
			_, err := f.Call("a", "M", nil)
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identically seeded runs", i)
		}
	}
}

func TestFaultyPartition(t *testing.T) {
	inner := NewInProc()
	f := NewFaulty(inner, 6)
	defer f.Close()
	for _, addr := range []string{"a1", "a2", "b1"} {
		f.Register(addr, func(string, []byte) ([]byte, error) { return []byte("ok"), nil })
	}
	f.SetPartition(map[string][]string{"A": {"a1", "a2"}, "B": {"b1"}})

	// Within a group: reachable.
	if _, err := f.Caller("a1").Call("a2", "M", nil); err != nil {
		t.Fatalf("a1->a2 within group A: %v", err)
	}
	// Across groups: unreachable both ways.
	if _, err := f.Caller("a1").Call("b1", "M", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("a1->b1 across partition: %v", err)
	}
	if _, err := f.Caller("b1").Call("a1", "M", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("b1->a1 across partition: %v", err)
	}
	// The default (unlisted) group is its own side: f.Call has no source
	// identity, so it cannot reach either named group.
	if _, err := f.Call("a1", "M", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("default->a1 across partition: %v", err)
	}
	f.ClearPartition()
	if _, err := f.Call("a1", "M", nil); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestFaultyComposesOverTCP(t *testing.T) {
	tcp := NewTCP()
	f := NewFaulty(tcp, 7)
	defer f.Close()
	if !CanListen(f) {
		t.Fatal("CanListen(Faulty over TCP) = false")
	}
	var served atomic.Int64
	addr, err := Listen(f, func(method string, body []byte) ([]byte, error) {
		served.Add(1)
		return []byte("pong"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f.DropResponses(addr, 1)
	if _, err := f.Call(addr, "Ping", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dropped response over TCP: %v", err)
	}
	if served.Load() != 1 {
		t.Fatalf("handler ran %d times", served.Load())
	}
	out, err := f.Call(addr, "Ping", nil)
	if err != nil || string(out) != "pong" {
		t.Fatalf("second call: %q, %v", out, err)
	}
}

func TestFaultyConcurrentCallsRace(t *testing.T) {
	f, _ := newEchoFaulty(t, 8)
	f.SetPolicy("srv", Policy{DropRequest: 0.2, DropResponse: 0.2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Call("srv", "Echo", []byte("x"))
			}
		}()
	}
	wg.Wait()
	s := f.Stats()
	if s.Calls != 1600 {
		t.Fatalf("calls = %d", s.Calls)
	}
}

// TestTCPMidCallResetIsRetryable forces a connection reset between the
// request write and the response read: the fake peer accepts, reads the
// frame, and slams the connection shut. The client must classify this as
// retryable ErrUnreachable, not surface a raw net error that would make
// Client.call give up.
func TestTCPMidCallResetIsRetryable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 4096)
				c.Read(buf) // swallow the request frame
				c.Close()   // reset before responding
			}(c)
		}
	}()
	tr := NewTCP()
	defer tr.Close()
	_, err = tr.Call(ln.Addr().String(), "M", []byte("body"))
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("mid-call reset: want ErrUnreachable, got %v", err)
	}
}

// TestTCPBrokenConnEvictsPool kills a server with pooled connections and
// checks that the first failed call drains the stale pool: after the
// server re-listens on the same port, the very next call succeeds by
// dialing fresh instead of burning one failed round per stale conn.
func TestTCPBrokenConnEvictsPool(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr, err := tr.Listen(func(method string, body []byte) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Populate the pool with several live conns via concurrent calls.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.Call(addr, "M", nil); err != nil {
				t.Errorf("warmup call: %v", err)
			}
		}()
	}
	wg.Wait()

	// Kill and immediately restart the endpoint on the same port. The
	// pooled conns all point at the dead process.
	tr.Deregister(addr)
	if err := tr.Register(addr, func(method string, body []byte) ([]byte, error) {
		return []byte("ok2"), nil
	}); err != nil {
		t.Fatalf("re-register on %s: %v", addr, err)
	}

	// Deregister closed the pool, so the first call dials fresh; what we
	// are really testing is evictConns not hanging/panicking on closed or
	// empty pools, and calls converging quickly after a reset.
	deadline := time.Now().Add(2 * time.Second)
	for {
		out, err := tr.Call(addr, "M", nil)
		if err == nil {
			if string(out) != "ok2" {
				t.Fatalf("got %q from restarted server", out)
			}
			break
		}
		if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("unexpected error class: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("calls never recovered after restart: %v", err)
		}
	}
}

// TestTCPMidCallResetRecoversWithRetry exercises the full loop: a flaky
// peer resets the first N connections mid-call, then a real endpoint
// serves. A retry loop in the style of Client.call must converge.
func TestTCPMidCallResetRecoversWithRetry(t *testing.T) {
	var resets atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr := NewTCP()
	defer tr.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if resets.Add(1) <= 3 {
				go func(c net.Conn) {
					buf := make([]byte, 4096)
					c.Read(buf)
					c.Close()
				}(c)
				continue
			}
			// Serve one real response: echo an OK status frame.
			go func(c net.Conn) {
				defer c.Close()
				tc := newTCPConn(c)
				frame, err := readFrame(tc.br)
				if err != nil {
					return
				}
				PutBuf(frame)
				tc.writeFrame(append(frameHead(nil), statusOK), []byte("done"))
			}(c)
		}
	}()
	addr := ln.Addr().String()
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		out, err := tr.Call(addr, "M", nil)
		if err == nil {
			if string(out) != "done" {
				t.Fatalf("got %q", out)
			}
			return
		}
		lastErr = err
		if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("attempt %d: non-retryable error %v", attempt, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("never recovered: %v", lastErr)
}

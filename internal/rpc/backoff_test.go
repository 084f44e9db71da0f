package rpc

import (
	"errors"
	"testing"
	"time"
)

func TestBackoffDoublesToCap(t *testing.T) {
	b := NewBackoff(time.Millisecond, 4*time.Millisecond, time.Second)
	for i, want := range []time.Duration{1, 2, 4, 4, 4} {
		want *= time.Millisecond
		if b.step != want {
			t.Fatalf("round %d: step = %v, want %v", i, b.step, want)
		}
		start := time.Now()
		if !b.Wait(nil) {
			t.Fatalf("round %d: Wait gave up %v before its deadline", i, time.Until(b.deadline))
		}
		if got := time.Since(start); got < want {
			t.Fatalf("round %d: waited %v, want at least the %v step", i, got, want)
		}
	}
}

// The last wait is clamped to the time left, and once the deadline has
// passed Wait reports false without sleeping at all.
func TestBackoffClampsToDeadline(t *testing.T) {
	b := NewBackoff(time.Second, time.Second, 30*time.Millisecond)
	start := time.Now()
	if !b.Wait(nil) {
		t.Fatal("Wait gave up before the deadline")
	}
	if got := time.Since(start); got < 25*time.Millisecond || got > 500*time.Millisecond {
		t.Fatalf("clamped wait took %v, want about the 30ms left (step is 1s)", got)
	}
	start = time.Now()
	if b.Wait(nil) {
		t.Fatal("Wait slept again past the deadline")
	}
	if got := time.Since(start); got > 10*time.Millisecond {
		t.Fatalf("expired Wait blocked for %v", got)
	}
}

func TestBackoffCancelWins(t *testing.T) {
	b := NewBackoff(time.Second, time.Second, time.Minute)
	cancel := make(chan struct{})
	time.AfterFunc(10*time.Millisecond, func() { close(cancel) })
	start := time.Now()
	if b.Wait(cancel) {
		t.Fatal("Wait reported true after cancel closed")
	}
	if got := time.Since(start); got > 500*time.Millisecond {
		t.Fatalf("cancelled Wait returned after %v, want promptly (step is 1s)", got)
	}
	if b.step != time.Second {
		t.Fatalf("a cancelled wait advanced the ladder to %v", b.step)
	}
}

// Call rides out unreachability only: it returns as soon as the endpoint
// answers — with a result or with its own error — and gives up with
// ErrUnreachable when the ladder runs out.
func TestBackoffCallRidesOutUnreachable(t *testing.T) {
	tr := NewInProc()
	defer tr.Close()
	time.AfterFunc(20*time.Millisecond, func() {
		tr.Register("late", func(method string, _ []byte) ([]byte, error) {
			if method == "Fail" {
				return nil, errors.New("refused")
			}
			return []byte("ok"), nil
		})
	})
	b := NewBackoff(time.Millisecond, 4*time.Millisecond, 5*time.Second)
	if out, err := b.Call(tr, "late", "Ping", nil); err != nil || string(out) != "ok" {
		t.Fatalf("Call to a late endpoint = %q, %v", out, err)
	}
	var re *RemoteError
	if _, err := b.Call(tr, "late", "Fail", nil); !errors.As(err, &re) {
		t.Fatalf("handler error = %v, want it returned at once as a RemoteError", err)
	}
	b = NewBackoff(time.Millisecond, 4*time.Millisecond, 20*time.Millisecond)
	if _, err := b.Call(tr, "never", "Ping", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Call to nothing = %v, want ErrUnreachable after the deadline", err)
	}
}

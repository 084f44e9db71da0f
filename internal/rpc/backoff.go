package rpc

import (
	"errors"
	"time"
)

// Backoff paces the retries of one call against an endpoint that may be
// restarting: a wait that starts at base and doubles up to max, bounded
// by a deadline fixed at construction. It is the one retry ladder of the
// repo; call sites differ only in the three durations they pass.
type Backoff struct {
	step, max time.Duration
	deadline  time.Time
}

// NewBackoff returns a ladder whose deadline is timeout from now.
func NewBackoff(base, max, timeout time.Duration) Backoff {
	return Backoff{step: base, max: max, deadline: time.Now().Add(timeout)}
}

// Wait sleeps the current step — clamped to the time left, so a caller
// never sleeps past its deadline — and doubles it for the next round. It
// reports false, without sleeping, once the deadline has passed, and
// false as soon as cancel closes (nil never does): the caller then gives
// up with the last error it saw.
func (b *Backoff) Wait(cancel <-chan struct{}) bool {
	left := time.Until(b.deadline)
	if left <= 0 {
		return false
	}
	t := time.NewTimer(min(b.step, left))
	defer t.Stop()
	select {
	case <-cancel:
		return false
	case <-t.C:
	}
	b.step = min(2*b.step, b.max)
	return true
}

// Call performs one call on tr, riding out ErrUnreachable — the endpoint
// is still starting, or restarting — until the ladder runs out. Any
// other outcome, success or error, is returned at once.
func (b *Backoff) Call(tr Transport, addr, method string, body []byte) ([]byte, error) {
	for {
		resp, err := tr.Call(addr, method, body)
		if err == nil || !errors.Is(err, ErrUnreachable) || !b.Wait(nil) {
			return resp, err
		}
	}
}

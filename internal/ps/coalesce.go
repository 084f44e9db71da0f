package ps

// Push coalescing: merge adjacent gradient pushes before the wire.
//
// A mini-batch loop that pushes its row updates after every batch pays
// one enveloped message per partition per batch. Adjacent pushes to the
// same rows are additive (PushAdd is commutative; the server's gradient
// path sums too before the optimizer step), so a Coalescer sum-combines
// rows locally and flushes one push per window: one wire message per
// partition per flush, each carrying a single (clientID, seq) envelope
// drawn by the normal callE machinery — the coalesced batch replays
// exactly-once through the dedup window just like an ordinary push,
// because from the protocol's point of view it IS one ordinary push.

import (
	"fmt"
	"sync"
)

// Coalescer accumulates row updates for one Emb handle and flushes them
// as a single push every window logical pushes (or on explicit Flush).
// The pending window is one flat batch and an id → row index: a row's
// first update appends it, later ones add into it in place.
type Coalescer struct {
	e      *Emb
	window int
	grad   bool

	mu       sync.Mutex
	pending  RowBatch
	slot     idTable // id → row of pending; pending.IDs == nil: no window yet
	buffered int
}

// Coalescer returns a push coalescer over this handle. window is the
// number of logical pushes merged per flush (values < 1 mean 1, i.e.
// pass-through); grad selects PushGrad semantics for the flush, otherwise
// PushAdd.
func (e *Emb) Coalescer(window int, grad bool) *Coalescer {
	return &Coalescer{e: e, window: max(window, 1), grad: grad}
}

// PushBatch sum-combines b's rows into the pending window, flushing when
// the window fills. The caller keeps ownership of b (rows are copied on
// first touch).
func (co *Coalescer) PushBatch(b RowBatch) error {
	if err := b.check(); err != nil {
		return err
	}
	co.mu.Lock()
	if co.pending.IDs == nil {
		co.slot.reset(len(b.IDs))
		co.pending = RowBatch{IDs: make([]int64, 0, len(b.IDs)), Dim: b.Dim, Data: make([]float64, 0, len(b.Data))}
	}
	if b.Dim != co.pending.Dim {
		co.mu.Unlock()
		return fmt.Errorf("ps: coalescer of %s: push of %d-wide rows into a window of %d-wide rows",
			co.e.Meta.Name, b.Dim, co.pending.Dim)
	}
	for i, id := range b.IDs {
		row := b.Row(i)
		s, added := co.slot.put(id, co.pending.IDs)
		if added {
			co.pending.IDs = append(co.pending.IDs, id)
			co.pending.Data = append(co.pending.Data, row...)
			continue
		}
		acc := co.pending.Row(int(s))
		for c, v := range row {
			acc[c] += v
		}
	}
	co.buffered++
	if co.buffered < co.window {
		co.mu.Unlock()
		return nil
	}
	return co.flushLocked()
}

// Flush pushes the pending window immediately (end of partition, or
// right before a clock advance so peers observe this window's updates).
func (co *Coalescer) Flush() error {
	co.mu.Lock()
	if co.buffered == 0 {
		co.mu.Unlock()
		return nil
	}
	return co.flushLocked()
}

// flushLocked takes the pending window and releases the lock before the
// wire push, so a slow flush does not block concurrent pushes — they start
// a window of their own, and the flush alone holds the one on the wire.
// The push keeps nothing of it: once it has returned, the window comes
// back, emptied, as the next one (unless one was started meanwhile).
func (co *Coalescer) flushLocked() error {
	pending, slot := co.pending, co.slot
	co.pending, co.slot = RowBatch{}, idTable{}
	co.buffered = 0
	co.mu.Unlock()
	err := co.e.pushBatch(pending, co.grad, false)
	co.mu.Lock()
	if co.pending.IDs == nil {
		clear(slot.slot)
		co.pending, co.slot = RowBatch{IDs: pending.IDs[:0], Dim: pending.Dim, Data: pending.Data[:0]}, slot
	}
	co.mu.Unlock()
	return err
}

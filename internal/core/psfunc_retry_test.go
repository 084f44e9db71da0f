package core

import (
	"fmt"
	"testing"

	"psgraph/internal/ps"
	"psgraph/internal/rpc"
)

// loseFuncReply delivers the next Func call, runs between, and then reports
// the reply lost: the caller retries under the same sequence, after whatever
// between changed.
type loseFuncReply struct {
	rpc.Transport
	between func()
}

func (l *loseFuncReply) Call(addr, method string, body []byte) ([]byte, error) {
	between := l.between
	if method != "Func" || between == nil {
		return l.Transport.Call(addr, method, body)
	}
	l.between = nil
	if _, err := l.Transport.Call(addr, method, body); err != nil {
		return nil, err
	}
	between()
	return nil, fmt.Errorf("%w: %s (reply lost)", rpc.ErrUnreachable, addr)
}

// retryContext is a one-server cluster whose transport can drop replies
// (the fault injector) or lose one and act before the retry (loseFuncReply).
func retryContext(t *testing.T) (*Context, *rpc.Faulty, *loseFuncReply) {
	t.Helper()
	f := rpc.NewFaulty(rpc.NewInProc(), 1)
	lose := &loseFuncReply{Transport: f}
	ctx, err := NewContext(Config{NumExecutors: 1, NumServers: 1, Transport: lose})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctx.Close)
	return ctx, f, lose
}

// mutationDelta runs call and returns how far it moved the cluster's applied
// and replayed counters and the agent's sent counter; applied must still
// equal sent afterwards.
func mutationDelta(t *testing.T, ctx *Context, call func()) (applied, replayed, sent int64) {
	t.Helper()
	a0, r0, err := ctx.PS.MutationTotals()
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := ctx.Agent.MutationStats()
	call()
	a1, r1, err := ctx.PS.MutationTotals()
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := ctx.Agent.MutationStats()
	if a1 != s1 {
		t.Fatalf("cluster applied %d mutations for %d sends", a1, s1)
	}
	return a1 - a0, r1 - r0, s1 - s0
}

// TestLineDotRetryRunsAgain: core.lineDot is replay-safe, so a retry after a
// lost reply is answered by running the dots again — correct against a
// direct PartView dot, counted as one replay and not as a second application.
// When a row moves between the lost reply and the retry, the retry's dots are
// the moved row's: the reply was computed, not read back from the window.
func TestLineDotRetryRunsAgain(t *testing.T) {
	ctx, f, lose := retryContext(t)
	for _, name := range []string{"rt.emb", "rt.ctx"} {
		if _, err := ctx.Agent.CreateEmbedding(ps.EmbeddingSpec{Name: name, Dim: 8, ByColumn: true, InitScale: 0.1, Partitions: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ctx.Agent.CallFunc("rt.emb", "coretest.store", func(ps.Partition) []byte { return nil }); err != nil {
		t.Fatal(err)
	}
	s := capturedStore
	us, vs := []int64{1, 1, 1, 2, 5}, []int64{2, 3, 7, 4, 1}
	arg := appendLinePairs(nil, "rt.ctx", us, vs)
	dots := func() []float64 {
		outs, err := ctx.Agent.CallFunc("rt.emb", "core.lineDot", func(ps.Partition) []byte { return arg })
		if err != nil {
			t.Fatal(err)
		}
		r := ps.NewArgReader(outs[0])
		d := r.F64sInto(nil)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		return d
	}

	var got []float64
	applied, replayed, sent := mutationDelta(t, ctx, func() {
		f.DropResponses(ctx.PS.ServerAddrs()[0], 1)
		got = dots()
	})
	if want := refLineDot(t, s, "rt.emb", "rt.ctx", us, vs); !sameBits(got, want) {
		t.Fatalf("dots after a dropped reply %v, want %v", got, want)
	}
	if applied != 1 || sent != 1 || replayed != 1 {
		t.Fatalf("one lineDot with a dropped reply: applied %d, sent %d, replayed %d; want 1, 1, 1", applied, sent, replayed)
	}

	emb, err := ctx.Agent.Embedding("rt.emb")
	if err != nil {
		t.Fatal(err)
	}
	before := got
	applied, replayed, sent = mutationDelta(t, ctx, func() {
		lose.between = func() {
			if err := emb.PushAdd(map[int64][]float64{1: {1, 1, 1, 1, 1, 1, 1, 1}}); err != nil {
				t.Fatal(err)
			}
		}
		got = dots()
	})
	if want := refLineDot(t, s, "rt.emb", "rt.ctx", us, vs); !sameBits(got, want) || sameBits(got, before) {
		t.Fatalf("retry after row 1 moved: dots %v, want the moved row's %v (before the move: %v)", got, want, before)
	}
	if applied != 2 || sent != 2 || replayed != 1 {
		t.Fatalf("lineDot + push: applied %d, sent %d, replayed %d; want 2, 2, 1", applied, sent, replayed)
	}
}

// TestCommitDeltaRetryReplays: core.commitDelta is not replay-safe — a second
// run would add Δ to the ranks again — so its retry after a dropped reply is
// answered from the window, with the first run's residual.
func TestCommitDeltaRetryReplays(t *testing.T) {
	ctx, f, _ := retryContext(t)
	set := map[string]float64{"cd.cur": 1, "cd.ranks": 0, "cd.next": 2}
	for name, x := range set {
		v, err := ctx.Agent.CreateDenseVector(ps.DenseVectorSpec{Name: name, Size: 4, Partitions: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.SetAll([]float64{x, x, x, x}); err != nil {
			t.Fatal(err)
		}
	}
	var residual float64
	applied, replayed, sent := mutationDelta(t, ctx, func() {
		f.DropResponses(ctx.PS.ServerAddrs()[0], 1)
		var err error
		if residual, err = commitDelta(ctx, "cd.cur", "cd.ranks", "cd.next"); err != nil {
			t.Fatal(err)
		}
	})
	ranks, err := ctx.Agent.Vector("cd.ranks")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ranks.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	// One commit: ranks 0+1, Δcur ← Δnext (L1 8). A second: ranks 1+2, L1 0.
	if residual != 8 || fmt.Sprint(got) != "[1 1 1 1]" {
		t.Fatalf("after a dropped commit reply: residual %v, ranks %v; want 8 and [1 1 1 1]", residual, got)
	}
	if applied != 1 || sent != 1 || replayed != 1 {
		t.Fatalf("one commit with a dropped reply: applied %d, sent %d, replayed %d; want 1, 1, 1", applied, sent, replayed)
	}
}

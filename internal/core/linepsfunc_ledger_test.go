package core

import (
	"bytes"
	"encoding/binary"
	"maps"
	"sync"
	"testing"

	"psgraph/internal/gen"
	"psgraph/internal/rpc"
)

// traffic is one (server, method) row of a ledger: calls, bytes sent and
// bytes received.
type traffic struct{ calls, out, in int }

// methodLedger is an rpc.Transport that keeps a ledger of every call by
// server and method, a Func call under the name of its psFunc. Bytes sent
// leave out a dedup envelope's header: it carries the client's random id.
type methodLedger struct {
	rpc.Transport
	mu  sync.Mutex
	got map[[2]string]traffic
}

func (l *methodLedger) Call(addr, method string, body []byte) ([]byte, error) {
	out, label := len(body), method
	if len(body) > 0 && body[0] == 0x03 { // tagSeqE: client id, sequence, epoch
		n := 1
		for k := 0; k < 3; k++ {
			_, m := binary.Uvarint(body[n:])
			n += m
		}
		out -= n
	}
	for _, fn := range []string{"core.lineDot", "core.lineUpdate"} {
		if method == "Func" && bytes.Contains(body, []byte(fn)) {
			label += " " + fn
		}
	}
	resp, err := l.Transport.Call(addr, method, body)
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.got[[2]string{addr, label}]
	l.got[[2]string{addr, label}] = traffic{t.calls + 1, t.out + out, t.in + len(resp)}
	return resp, err
}

// take returns the ledger since the last take and starts a new one.
func (l *methodLedger) take() map[[2]string]traffic {
	l.mu.Lock()
	defer l.mu.Unlock()
	got := l.got
	l.got = map[[2]string]traffic{}
	return got
}

// TestLinePSFuncLedger pins the traffic of LINE's psFunc path, the shape
// of the line-psfunc benchmark at tier-1 scale: second order, BSP, two
// workers, two servers holding one column partition of each model. Every
// batch makes one lineDot and one lineUpdate call per partition, and the
// update's argument is the dot's plus 8 bytes a pair; every window of 4
// batches one clock call per worker.
func TestLinePSFuncLedger(t *testing.T) {
	tr := &methodLedger{Transport: rpc.NewInProc(), got: map[[2]string]traffic{}}
	ctx, err := NewContext(Config{NumExecutors: 2, NumServers: 2, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctx.Close)
	raw := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 6000, Seed: 1})
	edges := make([]Edge, len(raw))
	for i, e := range raw {
		edges[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	rdd := edgesRDD(ctx, edges, 2)
	tr.take()
	if _, err := Line(ctx, rdd, LineConfig{Dim: 8, Order: 2, Epochs: 2, Seed: 1, Sync: "bsp"}); err != nil {
		t.Fatal(err)
	}
	want := map[[2]string]traffic{
		{"ps-master", "CreateModel"}: {2, 126, 198},
		{"ps-master", "ClockWait"}:   {8, 176, 0},
		{"ps-master", "ClockRetire"}: {2, 44, 0},
	}
	for _, srv := range []string{"ps-server-0", "ps-server-1"} {
		want[[2]string{srv, "CreatePart"}] = traffic{2, 202, 0}
		want[[2]string{srv, "Func core.lineDot"}] = traffic{24, 211646, 572816}
		want[[2]string{srv, "Func core.lineUpdate"}] = traffic{24, 784438, 72}
	}
	if got := tr.take(); !maps.Equal(got, want) {
		t.Errorf("ledger\n got %v\nwant %v", got, want)
	}
	applied, _, err := ctx.PS.MutationTotals()
	if sent, _ := ctx.Agent.MutationStats(); err != nil || applied != sent {
		t.Errorf("applied %d mutations for %d sent (%v)", applied, sent, err)
	}
}

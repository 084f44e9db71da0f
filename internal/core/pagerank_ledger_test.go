package core

import (
	"fmt"
	"maps"
	"testing"

	"psgraph/internal/rpc"
)

// TestPageRankLedger pins the vector traffic of Δ-PageRank on the golden
// R-MAT graph (two servers, ten iterations) with one executor (two blocks)
// and with two (four blocks): per server, the VecPull, VecPush and Func
// (commitDelta) calls and their bytes. Every iteration pulls each block's
// sources and pushes its destinations with one call a server, and commits
// with one Func a server; the setup's Fill is the one push past that.
// A push carries every destination of its block that routes to the server,
// exact zero sums included (an add of 0.0, 9 bytes: 90 of them per server
// with one executor), so its ids are encoded once a job, not once an
// iteration; a block whose sums are more than one in 64 zeros pushes them
// compacted instead (some of the two-executor case's). The thresholded run
// (1e-2, converged after 17 of 30 iterations) pushes its sparse sums
// compacted, byte for byte what it pushed before the keyed pushes.
func TestPageRankLedger(t *testing.T) {
	for _, tc := range []struct {
		execs, iters int
		threshold    float64
		pull, push   [2]traffic // ps-server-0, ps-server-1
		commit       traffic
	}{
		{1, 10, 0, [2]traffic{{20, 7350, 56500}, {20, 5340, 40280}}, [2]traffic{{21, 115739, 0}, {21, 77067, 0}}, traffic{10, 530, 110}},
		{2, 10, 0, [2]traffic{{40, 7650, 56600}, {40, 5650, 40380}}, [2]traffic{{41, 176302, 0}, {41, 105061, 0}}, traffic{10, 530, 110}},
		{2, 30, 1e-2, [2]traffic{{68, 13005, 96220}, {68, 9605, 68646}}, [2]traffic{{62, 247207, 0}, {62, 143270, 0}}, traffic{17, 901, 187}},
	} {
		t.Run(fmt.Sprintf("executors=%d/threshold=%g", tc.execs, tc.threshold), func(t *testing.T) {
			tr := &methodLedger{Transport: rpc.NewInProc(), got: map[[2]string]traffic{}}
			ctx, err := NewContext(Config{NumExecutors: tc.execs, NumServers: 2, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ctx.Close)
			rdd := edgesRDD(ctx, goldenRMAT(false), 4)
			tr.take()
			if _, err := PageRank(ctx, rdd, PageRankConfig{MaxIterations: tc.iters, Tolerance: 1e-300, DeltaThreshold: tc.threshold}); err != nil {
				t.Fatal(err)
			}
			want := map[[2]string]traffic{}
			for i, srv := range []string{"ps-server-0", "ps-server-1"} {
				want[[2]string{srv, "VecPull"}] = tc.pull[i]
				want[[2]string{srv, "VecPush"}] = tc.push[i]
				want[[2]string{srv, "Func"}] = tc.commit
			}
			got := tr.take()
			maps.DeleteFunc(got, func(k [2]string, _ traffic) bool { _, ok := want[k]; return !ok })
			if !maps.Equal(got, want) {
				t.Errorf("ledger\n got %v\nwant %v", got, want)
			}
		})
	}
}

package core

import (
	"math"
	"testing"
)

func TestVertexCentricMaxPropagation(t *testing.T) {
	// Max-id propagation around a ring: every vertex converges to n-1.
	ctx := newTestContext(t)
	prog := VertexProgram{
		Combiner: CombineMax,
		Init: func(v int64, outDeg int) (float64, float64, bool) {
			return float64(v), float64(v), true
		},
		Compute: func(v int64, outDeg int, state, combined float64) (float64, float64, bool) {
			if combined > state {
				return combined, combined, true
			}
			return state, 0, false
		},
	}
	res, err := RunVertexCentric(ctx, edgesRDD(ctx, ringEdges(9), 3), prog, VertexCentricConfig{MaxSupersteps: 20})
	if err != nil {
		t.Fatal(err)
	}
	states, _ := res.States.PullAll()
	for v, s := range states {
		if s != 8 {
			t.Fatalf("state[%d] = %v, want 8", v, s)
		}
	}
}

func TestVertexCentricSSSP(t *testing.T) {
	// Single-source shortest paths with a min combiner on a directed path
	// with a shortcut.
	ctx := newTestContext(t)
	edges := []Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4},
		{Src: 0, Dst: 3}, // shortcut: dist(3) = 1, dist(4) = 2
	}
	inf := math.Inf(1)
	prog := VertexProgram{
		Combiner: CombineMin,
		Init: func(v int64, outDeg int) (float64, float64, bool) {
			if v == 0 {
				return 0, 1, true
			}
			return inf, 0, false
		},
		Compute: func(v int64, outDeg int, state, combined float64) (float64, float64, bool) {
			if combined < state {
				return combined, combined + 1, true
			}
			return state, 0, false
		},
	}
	res, err := RunVertexCentric(ctx, edgesRDD(ctx, edges, 2), prog, VertexCentricConfig{MaxSupersteps: 20})
	if err != nil {
		t.Fatal(err)
	}
	states, _ := res.States.PullAll()
	want := []float64{0, 1, 2, 1, 2}
	for v, w := range want {
		if states[v] != w {
			t.Fatalf("dist[%d] = %v, want %v", v, states[v], w)
		}
	}
}

func TestVertexCentricPageRankMatchesDirect(t *testing.T) {
	// Δ-PageRank expressed as a vertex program agrees with the built-in.
	ctx := newTestContext(t)
	edges := ringEdges(10)
	edges = append(edges, Edge{Src: 0, Dst: 5}, Edge{Src: 3, Dst: 8})
	const d = 0.85
	prog := VertexProgram{
		Combiner: CombineSum,
		Init: func(v int64, outDeg int) (float64, float64, bool) {
			// state accumulates rank; initial delta is 1-d.
			if outDeg == 0 {
				return 1 - d, 0, false
			}
			return 1 - d, d * (1 - d) / float64(outDeg), true
		},
		Compute: func(v int64, outDeg int, state, combined float64) (float64, float64, bool) {
			newState := state + combined
			if outDeg == 0 || combined < 1e-10 {
				return newState, 0, false
			}
			return newState, d * combined / float64(outDeg), true
		},
	}
	res, err := RunVertexCentric(ctx, edgesRDD(ctx, edges, 3), prog, VertexCentricConfig{MaxSupersteps: 200})
	if err != nil {
		t.Fatal(err)
	}
	vc, _ := res.States.PullAll()

	direct, err := PageRank(ctx, edgesRDD(ctx, edges, 3), PageRankConfig{MaxIterations: 200, Tolerance: 1e-12, DeltaThreshold: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := direct.Ranks.PullAll()
	for v := range want {
		if math.Abs(vc[v]-want[v]) > 1e-6 {
			t.Fatalf("rank[%d]: vertex-centric %v vs direct %v", v, vc[v], want[v])
		}
	}
}

func TestVertexCentricRequiresFunctions(t *testing.T) {
	ctx := newTestContext(t)
	if _, err := RunVertexCentric(ctx, edgesRDD(ctx, ringEdges(3), 1), VertexProgram{}, VertexCentricConfig{}); err == nil {
		t.Fatal("empty program accepted")
	}
}

// hopsFrom is single-source shortest paths in hops under the min
// combiner: the source starts at 0 and every improved vertex forwards its
// distance plus one.
func hopsFrom(src int64) VertexProgram {
	inf := math.Inf(1)
	return VertexProgram{
		Combiner: CombineMin,
		Init: func(v int64, outDeg int) (float64, float64, bool) {
			if v == src {
				return 0, 1, true
			}
			return inf, 0, false
		},
		Compute: func(v int64, outDeg int, state, combined float64) (float64, float64, bool) {
			if combined < state {
				return combined, combined + 1, true
			}
			return state, 0, false
		},
	}
}

// deltaRank is Δ-PageRank as a sum-combined vertex program: the state
// accumulates rank and every vertex forwards its damped increment.
func deltaRank(d float64) VertexProgram {
	return VertexProgram{
		Combiner: CombineSum,
		Init: func(v int64, outDeg int) (float64, float64, bool) {
			if outDeg == 0 {
				return 1 - d, 0, false
			}
			return 1 - d, d * (1 - d) / float64(outDeg), true
		},
		Compute: func(v int64, outDeg int, state, combined float64) (float64, float64, bool) {
			if outDeg == 0 || combined < 1e-10 {
				return state + combined, 0, false
			}
			return state + combined, d * combined / float64(outDeg), true
		},
	}
}

// deltaRankBits runs deltaRank on the golden R-MAT graph with one
// executor and hashes the states.
func deltaRankBits(t *testing.T) string {
	ctx, err := NewContext(Config{NumExecutors: 1, NumServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	res, err := RunVertexCentric(ctx, edgesRDD(ctx, goldenRMAT(false), 4), deltaRank(0.85), VertexCentricConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return vectorBits(t, res.States)
}

// TestVertexCentricSumIsDeterministic: with one executor, a sum-combined
// program adds every message in the same order on every run, so its
// states have the same bits.
func TestVertexCentricSumIsDeterministic(t *testing.T) {
	first := deltaRankBits(t)
	for run := 1; run < 4; run++ {
		if got := deltaRankBits(t); got != first {
			t.Fatalf("run %d: states hash %s, first run %s", run, got, first)
		}
	}
}

// TestVertexCentricPathSupersteps: a message sent in superstep s is read
// in superstep s+1 and not before, whatever the executor count. Hops from
// the head of a 64-vertex path reach the tail in superstep 63, whose send
// runs superstep 64: 65 in all.
func TestVertexCentricPathSupersteps(t *testing.T) {
	const n = 64
	path := make([]Edge, n-1)
	for i := range path {
		path[i] = Edge{Src: int64(i), Dst: int64(i + 1)}
	}
	for _, executors := range []int{1, 3} {
		ctx, err := NewContext(Config{NumExecutors: executors, NumServers: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ctx.Close)
		res, err := RunVertexCentric(ctx, edgesRDD(ctx, path, 4), hopsFrom(0), VertexCentricConfig{MaxSupersteps: 2 * n})
		if err != nil {
			t.Fatal(err)
		}
		states, err := res.States.PullAll()
		if err != nil {
			t.Fatal(err)
		}
		if res.Supersteps != n+1 {
			t.Errorf("%d executors: %d supersteps, want %d", executors, res.Supersteps, n+1)
		}
		for v, s := range states {
			if s != float64(v) {
				t.Fatalf("%d executors: dist[%d] = %v", executors, v, s)
			}
		}
	}
}

func TestVertexCentricRejectsUnknownCombiner(t *testing.T) {
	ctx := newTestContext(t)
	prog := hopsFrom(0)
	prog.Combiner = CombineMax + 1
	if _, err := RunVertexCentric(ctx, edgesRDD(ctx, ringEdges(3), 1), prog, VertexCentricConfig{}); err == nil {
		t.Fatal("unknown combiner accepted")
	}
}

package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"psgraph/internal/gen"
	"psgraph/internal/ps"
)

// goldenFile holds one "<case> <sha256 of its output bits>" line per case
// of TestAlgorithmGoldens. A change that alters an algorithm's output
// changes its line in the same diff, with the reason.
const goldenFile = "testdata/goldens.txt"

// goldenRMAT is the fixture graph of TestAlgorithmGoldens: R-MAT, 2^11
// vertices, 12 k edges.
func goldenRMAT(weighted bool) []Edge {
	raw := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 12_000, Weighted: weighted, Seed: 2020})
	es := make([]Edge, len(raw))
	for i, e := range raw {
		es[i] = Edge{Src: e.Src, Dst: e.Dst, W: e.W}
	}
	return es
}

// outputBits hashes an algorithm's output: int64s and float64 bits, little
// endian, in the order given.
type outputBits struct{ buf []byte }

func (o *outputBits) int(v int64) { o.buf = binary.LittleEndian.AppendUint64(o.buf, uint64(v)) }
func (o *outputBits) float(f float64) {
	o.buf = binary.LittleEndian.AppendUint64(o.buf, math.Float64bits(f))
}

// assignment adds a vertex → community map in ascending vertex order.
func (o *outputBits) assignment(a map[int64]int64) {
	for _, v := range slices.Sorted(maps.Keys(a)) {
		o.int(v)
		o.int(a[v])
	}
}

func (o *outputBits) sum() string {
	h := sha256.Sum256(o.buf)
	return hex.EncodeToString(h[:])
}

// TestAlgorithmGoldens runs each algorithm on a fixed graph at GOMAXPROCS
// 1, 2 and 4 and checks the SHA-256 of its output bits against the pinned
// one. The hashes were pinned while the shuffle's hash seed still differed
// in every process, so they hold only because no output depends on which
// partition holds a vertex. Fast unfolding also keeps its modularity floors.
func TestAlgorithmGoldens(t *testing.T) {
	want := readGoldens(t)
	fu := func(weighted bool, floor float64) func(t *testing.T) string {
		return func(t *testing.T) string {
			ctx := newTestContext(t)
			res, err := FastUnfolding(ctx, edgesRDD(ctx, goldenRMAT(weighted), 4), FastUnfoldingConfig{Passes: 2, Iterations: 6})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("Q = %.4f, %d communities, moves %v", res.Modularity, res.Communities, res.Moves)
			if res.Modularity < floor {
				t.Errorf("Q = %.4f, want ≥ %.3f", res.Modularity, floor)
			}
			var o outputBits
			o.assignment(res.Assignment)
			o.float(res.Modularity)
			return o.sum()
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T) string
	}{
		{"fast-unfolding/rmat11", fu(false, 0.165)},
		{"fast-unfolding/rmat11-weighted", fu(true, 0.180)},
		// BSP with one executor (with more, the servers add concurrent
		// pushes in arrival order): the ranks after ten iterations.
		{"pagerank/rmat11", func(t *testing.T) string {
			ctx, err := NewContext(Config{NumExecutors: 1, NumServers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer ctx.Close()
			res, err := PageRank(ctx, edgesRDD(ctx, goldenRMAT(false), 4), PageRankConfig{MaxIterations: 10, Tolerance: 1e-300})
			if err != nil {
				t.Fatal(err)
			}
			return vectorBits(t, res.Ranks)
		}},
		// The edge-partitioned strawman, one executor, ten iterations.
		{"pagerank-edge/rmat11", func(t *testing.T) string {
			ctx, err := NewContext(Config{NumExecutors: 1, NumServers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer ctx.Close()
			res, err := PageRankEdgePartitioned(ctx, edgesRDD(ctx, goldenRMAT(false), 4), PageRankConfig{MaxIterations: 10, Tolerance: 1e-300})
			if err != nil {
				t.Fatal(err)
			}
			return vectorBits(t, res.Ranks)
		}},
		// Hop distances from vertex 0 under the min combiner: the fixpoint
		// is independent of message order, so three executors pin it.
		{"vertex-centric/sssp-min/rmat11", func(t *testing.T) string {
			ctx := newTestContext(t)
			res, err := RunVertexCentric(ctx, edgesRDD(ctx, goldenRMAT(false), 4), hopsFrom(0), VertexCentricConfig{MaxSupersteps: 100})
			if err != nil {
				t.Fatal(err)
			}
			return vectorBits(t, res.States)
		}},
		// Δ-PageRank as a sum-combined vertex program, one executor (with
		// more, the servers add concurrent message pushes in arrival order).
		{"vertex-centric/pagerank-sum/rmat11", deltaRankBits},
		{"label-propagation/rmat11", func(t *testing.T) string {
			ctx := newTestContext(t)
			res, err := LabelPropagation(ctx, edgesRDD(ctx, goldenRMAT(false), 4), LabelPropagationConfig{})
			if err != nil {
				t.Fatal(err)
			}
			var o outputBits
			o.assignment(res.Assignment)
			return o.sum()
		}},
		{"kcore/rmat11-k5", func(t *testing.T) string {
			ctx := newTestContext(t)
			res, err := KCore(ctx, edgesRDD(ctx, goldenRMAT(false), 4), KCoreConfig{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			var o outputBits
			slices.Sort(res.Members)
			for _, v := range res.Members {
				o.int(v)
			}
			return o.sum()
		}},
		{"kcore-decompose/rmat11", func(t *testing.T) string {
			ctx := newTestContext(t)
			res, err := KCoreDecompose(ctx, edgesRDD(ctx, goldenRMAT(false), 4), KCoreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			var o outputBits
			for _, c := range res.Coreness {
				o.int(c)
			}
			o.int(res.MaxCore)
			return o.sum()
		}},
		// One executor (with two or more the PS sums gradient pushes in
		// arrival order): losses, accuracies and the trained weights.
		{"graphsage-mean/sbm800", func(t *testing.T) string {
			ctx, data, _ := gsFixture(t, Config{NumExecutors: 1, NumServers: 2}, 800, 5)
			res, err := GraphSage(ctx, data, GraphSageConfig{
				Classes: 3, Epochs: 3, BatchSize: 128, LR: 0.02, Seed: 9, Parts: 1, Sync: "bsp",
			})
			if err != nil {
				t.Fatal(err)
			}
			var o outputBits
			for _, l := range res.Losses {
				o.float(l)
			}
			o.float(res.TrainAccuracy)
			o.float(res.TestAccuracy)
			for _, name := range []string{res.W1Name, res.W2Name} {
				w, err := ctx.Agent.Embedding(name)
				if err != nil {
					t.Fatal(err)
				}
				ids := make([]int64, w.Meta.Size)
				for i := range ids {
					ids[i] = int64(i)
				}
				vals := make([]float64, len(ids)*w.Meta.Dim)
				if err := w.PullInto(ids, vals); err != nil {
					t.Fatal(err)
				}
				for _, v := range vals {
					o.float(v)
				}
			}
			return o.sum()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, procs := range []int{1, 2, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got := c.run(t)
				runtime.GOMAXPROCS(prev)
				if got != want[c.name] {
					t.Errorf("GOMAXPROCS=%d: output hash %s, %s pins %q", procs, got, goldenFile, want[c.name])
				}
			}
		})
	}
}

// vectorBits hashes every element of a dense vector.
func vectorBits(t *testing.T, v *ps.Vector) string {
	vals, err := v.PullAll()
	if err != nil {
		t.Fatal(err)
	}
	var o outputBits
	for _, x := range vals {
		o.float(x)
	}
	return o.sum()
}

func readGoldens(t *testing.T) map[string]string {
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestModularityIsAFunctionOfTheAssignment: Q of one fixed assignment has
// the same bits on every call (its Σ_tot terms are added in community
// order, not map order).
func TestModularityIsAFunctionOfTheAssignment(t *testing.T) {
	ctx := newTestContext(t)
	edges := edgesRDD(ctx, goldenRMAT(true), 4)
	assign := make(map[int64]int64)
	for v := int64(0); v < 1<<11; v++ {
		assign[v] = v % 97
	}
	var first uint64
	for i := 0; i < 8; i++ {
		q, err := modularityOf(edges, assign)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = math.Float64bits(q)
		} else if math.Float64bits(q) != first {
			t.Fatalf("call %d: Q bits %#x, first call %#x", i, math.Float64bits(q), first)
		}
	}
}

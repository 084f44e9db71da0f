package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMatMul(t *testing.T) {
	a := FromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := a.MatMul(b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("c[%d] = %v, want %v", i, c.Data[i], want[i])
		}
	}
}

func TestTranspose(t *testing.T) {
	a := FromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %+v", at)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(6)
		a := Xavier(rows, cols, rng)
		b := a.Transpose().Transpose()
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Xavier(3, 4, rng)
		b := Xavier(4, 5, rng)
		c := Xavier(5, 2, rng)
		left := a.MatMul(b).MatMul(c)
		right := a.MatMul(b.MatMul(c))
		for i := range left.Data {
			if !almost(left.Data[i], right.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// numericalGrad approximates dLoss/dparam[i] with central differences.
func numericalGrad(param *Tensor, i int, loss func() float64) float64 {
	const h = 1e-6
	orig := param.Data[i]
	param.Data[i] = orig + h
	up := loss()
	param.Data[i] = orig - h
	down := loss()
	param.Data[i] = orig
	return (up - down) / (2 * h)
}

// checkGrads verifies analytic gradients of every param against finite
// differences of the loss function.
func checkGrads(t *testing.T, params []*Node, loss func() *Node) {
	t.Helper()
	root := loss()
	Backward(root)
	// Snapshot analytic gradients first: the numerical passes re-invoke
	// loss(), which zeroes Grad.
	analytic := make([][]float64, len(params))
	for pi, p := range params {
		analytic[pi] = append([]float64(nil), p.Grad.Data...)
	}
	for pi, p := range params {
		for i := range p.T.Data {
			want := numericalGrad(p.T, i, func() float64 { return loss().T.Data[0] })
			got := analytic[pi][i]
			if !almost(got, want, 1e-4*(1+math.Abs(want))) {
				t.Fatalf("param %d grad[%d] = %v, numerical %v", pi, i, got, want)
			}
		}
	}
}

func TestGradMatMulChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w1 := Param(Xavier(3, 4, rng))
	w2 := Param(Xavier(4, 2, rng))
	x := Const(Xavier(5, 3, rng))
	labels := []int32{0, 1, 1, 0, 1}
	loss := func() *Node {
		ZeroGrad(w1, w2)
		h := ReLU(MatMul(x, w1))
		logits := MatMul(h, w2)
		l, _ := SoftmaxCrossEntropy(logits, labels)
		return l
	}
	checkGrads(t, []*Node{w1, w2}, loss)
}

func TestGradBiasAndSigmoid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := Param(Xavier(3, 2, rng))
	b := Param(Xavier(1, 2, rng))
	x := Const(Xavier(4, 3, rng))
	labels := []int32{0, 1, 0, 1}
	loss := func() *Node {
		ZeroGrad(w, b)
		h := Sigmoid(AddRowVec(MatMul(x, w), b))
		l, _ := SoftmaxCrossEntropy(h, labels)
		return l
	}
	checkGrads(t, []*Node{w, b}, loss)
}

func TestGradConcatGatherSegmentMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := Param(Xavier(6, 3, rng))
	x := Const(Xavier(4, 3, rng))
	segs := [][]int32{{0, 1}, {2}, {1, 2, 3}}
	idx := []int32{0, 2, 3}
	labels := []int32{0, 2, 1}
	loss := func() *Node {
		ZeroGrad(w)
		agg := SegmentMean(Const(x.T), segs) // constant path
		self := GatherRows(Const(x.T), idx)
		cat := ConcatCols(self, agg)
		logits := MatMul(cat, w)
		l, _ := SoftmaxCrossEntropy(logits, labels)
		return l
	}
	checkGrads(t, []*Node{w}, loss)
}

func TestGradThroughSegmentMeanOfHidden(t *testing.T) {
	// Gradient must flow through the aggregation into the layer-1 weights,
	// as in 2-layer GraphSage.
	rng := rand.New(rand.NewSource(4))
	w1 := Param(Xavier(3, 4, rng))
	w2 := Param(Xavier(8, 2, rng))
	x := Const(Xavier(5, 3, rng))
	segs := [][]int32{{1, 2}, {0, 3, 4}}
	idx := []int32{0, 4}
	labels := []int32{1, 0}
	loss := func() *Node {
		ZeroGrad(w1, w2)
		h1 := ReLU(MatMul(x, w1))
		agg := SegmentMean(h1, segs)
		self := GatherRows(h1, idx)
		logits := MatMul(ConcatCols(self, agg), w2)
		l, _ := SoftmaxCrossEntropy(logits, labels)
		return l
	}
	checkGrads(t, []*Node{w1, w2}, loss)
}

func TestGradTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := Param(Xavier(2, 2, rng))
	x := Const(Xavier(3, 2, rng))
	labels := []int32{0, 1, 0}
	loss := func() *Node {
		ZeroGrad(w)
		l, _ := SoftmaxCrossEntropy(Tanh(MatMul(x, w)), labels)
		return l
	}
	checkGrads(t, []*Node{w}, loss)
}

func TestGradSegmentMaxPool(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := Param(Xavier(3, 3, rng))
	x := Const(Xavier(4, 3, rng))
	segs := [][]int32{{0, 1, 2}, {2, 3}}
	labels := []int32{0, 2}
	loss := func() *Node {
		ZeroGrad(w)
		h := MatMul(x, w)
		pooled := SegmentMaxPool(h, segs)
		l, _ := SoftmaxCrossEntropy(pooled, labels)
		return l
	}
	checkGrads(t, []*Node{w}, loss)
}

func TestGradAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Param(Xavier(2, 3, rng))
	b := Param(Xavier(2, 3, rng))
	labels := []int32{0, 2}
	loss := func() *Node {
		ZeroGrad(a, b)
		l, _ := SoftmaxCrossEntropy(Add(a, b), labels)
		return l
	}
	checkGrads(t, []*Node{a, b}, loss)
}

func TestSoftmaxCrossEntropyPredictions(t *testing.T) {
	logits := Const(FromData(2, 3, []float64{5, 1, 1, 0, 0, 9}))
	loss, preds := SoftmaxCrossEntropy(logits, []int32{0, 2})
	if preds[0] != 0 || preds[1] != 2 {
		t.Fatalf("preds = %v", preds)
	}
	if loss.T.Data[0] > 0.1 {
		t.Fatalf("confident correct predictions should have tiny loss: %v", loss.T.Data[0])
	}
}

func TestSegmentMeanEmptySegment(t *testing.T) {
	x := Const(FromData(2, 2, []float64{1, 2, 3, 4}))
	out := SegmentMean(x, [][]int32{{}, {0, 1}})
	if out.T.At(0, 0) != 0 || out.T.At(0, 1) != 0 {
		t.Fatalf("empty segment not zero: %v", out.T.Row(0))
	}
	if out.T.At(1, 0) != 2 || out.T.At(1, 1) != 3 {
		t.Fatalf("mean wrong: %v", out.T.Row(1))
	}
}

func TestTrainXORConverges(t *testing.T) {
	// End-to-end sanity: a 2-layer MLP learns XOR with plain SGD.
	rng := rand.New(rand.NewSource(8))
	w1 := Param(Xavier(2, 8, rng))
	b1 := Param(New(1, 8))
	w2 := Param(Xavier(8, 2, rng))
	x := Const(FromData(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1}))
	labels := []int32{0, 1, 1, 0}
	var lastLoss float64
	for epoch := 0; epoch < 2000; epoch++ {
		ZeroGrad(w1, b1, w2)
		h := Tanh(AddRowVec(MatMul(x, w1), b1))
		logits := MatMul(h, w2)
		loss, preds := SoftmaxCrossEntropy(logits, labels)
		Backward(loss)
		for _, p := range []*Node{w1, b1, w2} {
			for i := range p.T.Data {
				p.T.Data[i] -= 0.5 * p.Grad.Data[i]
			}
		}
		lastLoss = loss.T.Data[0]
		if lastLoss < 0.01 {
			correct := 0
			for i, p := range preds {
				if p == labels[i] {
					correct++
				}
			}
			if correct != 4 {
				t.Fatalf("loss %v but predictions wrong: %v", lastLoss, preds)
			}
			return
		}
	}
	t.Fatalf("XOR did not converge: loss %v", lastLoss)
}

func TestBackwardPanicsOnNonScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-scalar root")
		}
	}()
	Backward(Param(New(2, 2)))
}

func TestGradMul(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := Param(Xavier(2, 3, rng))
	b := Param(Xavier(2, 3, rng))
	labels := []int32{0, 2}
	loss := func() *Node {
		ZeroGrad(a, b)
		l, _ := SoftmaxCrossEntropy(Mul(a, b), labels)
		return l
	}
	checkGrads(t, []*Node{a, b}, loss)
}

func TestGradSliceCols(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	w := Param(Xavier(3, 6, rng))
	x := Const(Xavier(2, 3, rng))
	labels := []int32{0, 1}
	loss := func() *Node {
		ZeroGrad(w)
		h := MatMul(x, w) // 2x6
		left := SliceCols(h, 0, 3)
		right := SliceCols(h, 3, 6)
		l, _ := SoftmaxCrossEntropy(Mul(Sigmoid(left), Tanh(right)), labels)
		return l
	}
	checkGrads(t, []*Node{w}, loss)
}

func TestSliceColsPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SliceCols(Param(New(2, 4)), 3, 2)
}

// TestMatMulKernelsMatchReference checks the unrolled forward kernel and
// the two accumulate-in-place backward kernels against the plain triple
// loop and the materialised transposes they replaced, on shapes that
// exercise every remainder loop and on inputs with zero runs.
func TestMatMulKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range [][3]int{{1, 1, 1}, {2, 4, 3}, {5, 7, 3}, {6, 9, 16}, {7, 32, 16}, {3, 5, 0}} {
		m, k, n := sh[0], sh[1], sh[2]
		a, b, g := Xavier(m, k, rng), Xavier(k, n, rng), Xavier(m, n, rng)
		for i := range a.Data {
			if rng.Intn(3) == 0 {
				a.Data[i] = 0
			}
		}
		if k >= 4 {
			clear(a.Row(0)[:4])
		}
		want := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				for x := 0; x < k; x++ {
					want.Data[i*n+j] += a.At(i, x) * b.At(x, j)
				}
			}
		}
		same := func(name string, got, want *Tensor) {
			t.Helper()
			got.mustSameShape(want)
			for i := range want.Data {
				if !almost(got.Data[i], want.Data[i], 1e-12) {
					t.Fatalf("%dx%dx%d %s[%d] = %v, want %v", m, k, n, name, i, got.Data[i], want.Data[i])
				}
			}
		}
		same("a@b", a.MatMul(b), want)
		// Both kernels accumulate: start from a non-zero destination.
		gb, ga := Xavier(k, n, rng), Xavier(m, k, rng)
		wantB, wantA := gb.Clone(), ga.Clone()
		wantB.AddInPlace(a.Transpose().MatMul(g))
		wantA.AddInPlace(g.MatMul(b.Transpose()))
		gb.addATB(a, g)
		ga.addABT(g, b)
		same("aᵀ@g", gb, wantB)
		same("g@bᵀ", ga, wantA)
	}
}

// BenchmarkMatMulNarrow times the two kernels that dominate a GraphSage
// step at the benchmark's shape: 256 targets × (1 + 10 hop-1 samples) rows
// of [x_self | mean] (32 wide) against a 32×16 weight matrix.
func BenchmarkMatMulNarrow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, w, g := Xavier(2816, 32, rng), Xavier(32, 16, rng), Xavier(2816, 16, rng)
	b.Run("forward", func(b *testing.B) {
		for b.Loop() {
			x.MatMul(w)
		}
	})
	b.Run("aTg", func(b *testing.B) {
		grad := New(32, 16)
		for b.Loop() {
			grad.addATB(x, g)
		}
	})
}

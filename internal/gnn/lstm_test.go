package gnn

import (
	"math"
	"math/rand"
	"testing"

	"psgraph/internal/tensor"
)

func TestSegmentLSTMShapesAndMasking(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Const(tensor.Xavier(5, 3, rng))
	l := newLSTMNodes(XavierLSTM(3, rng), 3)
	out := segmentLSTM(x, [][]int32{{0, 1, 2}, {3}, {}}, l)
	if out.T.Rows != 3 || out.T.Cols != 3 {
		t.Fatalf("shape %dx%d", out.T.Rows, out.T.Cols)
	}
	// Empty segment aggregates to zero.
	for c := 0; c < 3; c++ {
		if out.T.At(2, c) != 0 {
			t.Fatalf("empty segment row = %v", out.T.Row(2))
		}
	}
	// Non-empty segments produce non-zero states (overwhelmingly likely
	// with random weights).
	var norm float64
	for c := 0; c < 3; c++ {
		norm += math.Abs(out.T.At(0, c)) + math.Abs(out.T.At(1, c))
	}
	if norm == 0 {
		t.Fatal("LSTM states all zero")
	}
}

func TestSegmentLSTMOrderSensitive(t *testing.T) {
	// Unlike mean/pool, the LSTM aggregate depends on neighbor order —
	// the defining property of the architecture.
	rng := rand.New(rand.NewSource(2))
	x := tensor.Const(tensor.Xavier(4, 3, rng))
	l := newLSTMNodes(XavierLSTM(3, rng), 3)
	a := segmentLSTM(x, [][]int32{{0, 1, 2}}, l)
	b := segmentLSTM(x, [][]int32{{2, 1, 0}}, l)
	diff := 0.0
	for i := range a.T.Data {
		diff += math.Abs(a.T.Data[i] - b.T.Data[i])
	}
	if diff < 1e-9 {
		t.Fatal("LSTM aggregate invariant to order")
	}
}

// lstmGradCheck verifies every LSTM parameter gradient against finite
// differences of the full RunLSTM loss.
func TestRunLSTMGradientsMatchFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const dim, hidden, classes = 2, 3, 2
	b := Batch{
		X:        tensor.Xavier(4, dim, rng).Data,
		NumNodes: 4, Dim: dim,
		Self1:      []int32{0, 1, 2, 3},
		Nbrs1:      [][]int32{{1, 2}, {3}, {0}, {1, 2}},
		Self2:      []int32{0, 1},
		Nbrs2:      [][]int32{{2, 3}, {3}},
		Labels:     []int32{0, 1},
		Aggregator: "lstm",
	}
	w1 := XavierFlat(2*dim, hidden, rng)
	w2 := XavierFlat(2*hidden, classes, rng)
	l1 := XavierLSTM(dim, rng)
	l2 := XavierLSTM(hidden, rng)

	loss := func() float64 {
		return RunLSTM(b, w1, w2, l1, l2, hidden, classes).Loss
	}
	out := RunLSTM(b, w1, w2, l1, l2, hidden, classes)

	check := func(name string, params []float64, grads []float64) {
		t.Helper()
		const h = 1e-6
		for i := range params {
			orig := params[i]
			params[i] = orig + h
			up := loss()
			params[i] = orig - h
			down := loss()
			params[i] = orig
			want := (up - down) / (2 * h)
			if math.Abs(grads[i]-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("%s grad[%d] = %v, numerical %v", name, i, grads[i], want)
			}
		}
	}
	check("W1", w1, out.GradW1)
	check("W2", w2, out.GradW2)
	check("L1.Wx", l1.Wx, out.GradL1.Wx)
	check("L1.Wh", l1.Wh, out.GradL1.Wh)
	check("L1.B", l1.B, out.GradL1.B)
	check("L2.Wx", l2.Wx, out.GradL2.Wx)
	check("L2.Wh", l2.Wh, out.GradL2.Wh)
	check("L2.B", l2.B, out.GradL2.B)
}

func TestRunLSTMTrainsTinyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const dim, hidden, classes = 2, 4, 2
	b := tinyBatch([]int32{0, 1})
	b.Aggregator = "lstm"
	w1 := XavierFlat(2*dim, hidden, rng)
	w2 := XavierFlat(2*hidden, classes, rng)
	l1 := XavierLSTM(dim, rng)
	l2 := XavierLSTM(hidden, rng)
	opts := []*Adam{
		NewAdam(0.05, len(w1)), NewAdam(0.05, len(w2)),
		NewAdam(0.05, len(l1.Wx)), NewAdam(0.05, len(l1.Wh)), NewAdam(0.05, len(l1.B)),
		NewAdam(0.05, len(l2.Wx)), NewAdam(0.05, len(l2.Wh)), NewAdam(0.05, len(l2.B)),
	}
	first := RunLSTM(b, w1, w2, l1, l2, hidden, classes).Loss
	var last float64
	for i := 0; i < 150; i++ {
		out := RunLSTM(b, w1, w2, l1, l2, hidden, classes)
		opts[0].Step(w1, out.GradW1)
		opts[1].Step(w2, out.GradW2)
		opts[2].Step(l1.Wx, out.GradL1.Wx)
		opts[3].Step(l1.Wh, out.GradL1.Wh)
		opts[4].Step(l1.B, out.GradL1.B)
		opts[5].Step(l2.Wx, out.GradL2.Wx)
		opts[6].Step(l2.Wh, out.GradL2.Wh)
		opts[7].Step(l2.B, out.GradL2.B)
		last = out.Loss
	}
	if last >= first || last > 0.1 {
		t.Fatalf("LSTM GraphSage did not train: %v -> %v", first, last)
	}
}

func TestRunLSTMInference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := tinyBatch(nil)
	b.Aggregator = "lstm"
	out := RunLSTM(b, XavierFlat(4, 4, rng), XavierFlat(8, 3, rng),
		XavierLSTM(2, rng), XavierLSTM(4, rng), 4, 3)
	if len(out.Preds) != 2 || out.GradW1 != nil {
		t.Fatalf("inference result: %+v", out)
	}
}

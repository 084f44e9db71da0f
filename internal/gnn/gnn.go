// Package gnn holds the GraphSage network definition shared by PSGraph
// and the Euler baseline, so that the Table I accuracy comparison is
// between systems, not between models. The payload types are flat
// buffers and index arrays — the form data takes when crossing PSGraph's
// JVM→C++ (JNI) boundary.
package gnn

import (
	"math"
	"math/rand"

	"psgraph/internal/tensor"
)

// Batch is one GraphSage mini-batch in boundary form.
type Batch struct {
	// X is the row-major feature matrix of every vertex the batch
	// touches (batch ∪ 1-hop samples ∪ 2-hop samples).
	X        []float64
	NumNodes int
	Dim      int

	// Layer-1 evaluation set: h1 is computed for these rows of X.
	Self1 []int32   // row of X for each layer-1 vertex
	Nbrs1 [][]int32 // rows of X aggregated for each layer-1 vertex

	// Layer-2 (output) set: logits are computed for these rows of h1.
	Self2 []int32   // row of h1 for each output vertex
	Nbrs2 [][]int32 // rows of h1 aggregated for each output vertex

	// Labels of the output vertices; nil for inference.
	Labels []int32

	// Aggregator selects "mean" or "pool".
	Aggregator string
}

// Result carries the outputs back across the boundary.
type Result struct {
	Loss   float64
	Preds  []int32
	GradW1 []float64 // nil for inference
	GradW2 []float64
	// GradL1 / GradL2 carry the LSTM aggregator gradients when RunLSTM
	// produced the result; zero-valued otherwise.
	GradL1  LSTMParams
	GradL2  LSTMParams
	Correct int
}

// Run executes forward (and backward when labels are present) of the
// 2-layer GraphSage network
//
//	h1_v = σ(W1ᵀ · concat(x_v, AGG{x_u : u ∈ N(v)}))
//	z_v  = W2ᵀ · concat(h1_v, AGG{h1_u : u ∈ N(v)})
//
// with σ = ReLU and AGG ∈ {mean, max-pool}. w1 is (2·Dim)×hidden, w2 is
// (2·hidden)×classes, both row-major.
func Run(b Batch, w1, w2 []float64, hidden, classes int) Result {
	x := tensor.FromData(b.NumNodes, b.Dim, b.X)
	W1 := tensor.Param(tensor.FromData(2*b.Dim, hidden, append([]float64(nil), w1...)))
	W2 := tensor.Param(tensor.FromData(2*hidden, classes, append([]float64(nil), w2...)))

	pool := b.Aggregator == "pool"
	agg := tensor.SegmentMean
	if pool {
		agg = tensor.SegmentMaxPool
	}

	// Layer 1 reads raw features, which take no gradient: its input is
	// written in one pass. Layer 2 reads h1 and differentiates through it.
	in1 := tensor.Const(tensor.ConcatSelfAgg(x, b.Self1, b.Nbrs1, pool))
	h1 := tensor.ReLU(tensor.MatMul(in1, W1))
	in2 := tensor.ConcatCols(tensor.GatherRows(h1, b.Self2), agg(h1, b.Nbrs2))
	return finish(b, tensor.MatMul(in2, W2), W1, W2)
}

// finish turns the logits into a Result: the arg-max predictions alone for
// inference (no labels), else loss, predictions and the weight gradients
// of one backward pass.
func finish(b Batch, logits, W1, W2 *tensor.Node) Result {
	if b.Labels == nil {
		preds := make([]int32, logits.T.Rows)
		for r := range preds {
			row := logits.T.Row(r)
			best := 0
			for c, val := range row {
				if val > row[best] {
					best = c
				}
			}
			preds[r] = int32(best)
		}
		return Result{Preds: preds}
	}
	loss, preds := tensor.SoftmaxCrossEntropy(logits, b.Labels)
	tensor.Backward(loss)
	correct := 0
	for i, p := range preds {
		if p == b.Labels[i] {
			correct++
		}
	}
	return Result{
		Loss:    loss.T.Data[0],
		Preds:   preds,
		GradW1:  W1.Grad.Data,
		GradW2:  W2.Grad.Data,
		Correct: correct,
	}
}

// XavierFlat returns Glorot-uniform initial weights for a rows×cols
// matrix, flattened row-major.
func XavierFlat(rows, cols int, rng *rand.Rand) []float64 {
	return tensor.Xavier(rows, cols, rng).Data
}

// Adam is a local (non-PS) Adam optimizer over a flat parameter vector,
// used by baselines that keep weights in the trainer process.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	step                  int
	m, v                  []float64
}

// NewAdam returns an Adam optimizer with standard betas.
func NewAdam(lr float64, size int) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, m: make([]float64, size), v: make([]float64, size)}
}

// Step applies one update of grad to params in place.
func (a *Adam) Step(params, grad []float64) {
	a.step++
	b1c := 1 - math.Pow(a.Beta1, float64(a.step))
	b2c := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, g := range grad {
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*g
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*g*g
		params[i] -= a.LR * (a.m[i] / b1c) / (math.Sqrt(a.v[i]/b2c) + a.Eps)
	}
}

// SampleK appends min(k, len(ns)) distinct elements of ns, drawn
// uniformly, to dst and returns the extended slice; ns is not modified.
func SampleK(dst, ns []int64, k int, rng *rand.Rand) []int64 {
	base := len(dst)
	dst = append(dst, ns...)
	if len(ns) <= k {
		return dst
	}
	// Partial Fisher-Yates over the copy; its first k elements stay.
	s := dst[base:]
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(s)-i)
		s[i], s[j] = s[j], s[i]
	}
	return dst[:base+k]
}

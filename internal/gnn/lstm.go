package gnn

import (
	"math/rand"

	"psgraph/internal/tensor"
)

// LSTMParams are the flat row-major parameters of one LSTM aggregator
// (the third aggregator architecture the paper names for GraphSage):
// Wx is in×4h, Wh is h×4h, B is 1×4h, with h = in so the aggregate has
// the same width as the inputs being aggregated (the concat shapes of
// the GraphSage layers stay unchanged).
type LSTMParams struct {
	Wx, Wh, B []float64
}

// XavierLSTM returns Glorot-initialized LSTM aggregator parameters for
// inputs of the given width.
func XavierLSTM(dim int, rng *rand.Rand) LSTMParams {
	return LSTMParams{
		Wx: XavierFlat(dim, 4*dim, rng),
		Wh: XavierFlat(dim, 4*dim, rng),
		B:  make([]float64, 4*dim),
	}
}

// lstmNodes are the parameter nodes of one instantiated aggregator.
type lstmNodes struct {
	wx, wh, b *tensor.Node
	dim       int
}

func newLSTMNodes(p LSTMParams, dim int) lstmNodes {
	return lstmNodes{
		wx:  tensor.Param(tensor.FromData(dim, 4*dim, append([]float64(nil), p.Wx...))),
		wh:  tensor.Param(tensor.FromData(dim, 4*dim, append([]float64(nil), p.Wh...))),
		b:   tensor.Param(tensor.FromData(1, 4*dim, append([]float64(nil), p.B...))),
		dim: dim,
	}
}

func (l lstmNodes) grads() LSTMParams {
	return LSTMParams{Wx: l.wx.Grad.Data, Wh: l.wh.Grad.Data, B: l.b.Grad.Data}
}

// segmentLSTM aggregates each segment's rows of x by running them through
// an LSTM and taking the final hidden state. Variable-length segments are
// handled with per-timestep masking: rows whose segment is exhausted keep
// their previous hidden/cell state. Empty segments aggregate to zero.
func segmentLSTM(x *tensor.Node, segs [][]int32, l lstmNodes) *tensor.Node {
	rows := len(segs)
	h := l.dim
	maxLen := 0
	for _, s := range segs {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	hState := tensor.Const(tensor.New(rows, h))
	if maxLen == 0 {
		return hState
	}
	cState := tensor.Const(tensor.New(rows, h))
	for t := 0; t < maxLen; t++ {
		idx := make([]int32, rows)
		mask := tensor.New(rows, h)
		inv := tensor.New(rows, h)
		for s, seg := range segs {
			if t < len(seg) {
				idx[s] = seg[t]
				for c := 0; c < h; c++ {
					mask.Set(s, c, 1)
				}
			} else {
				idx[s] = 0 // dummy row, masked out below
				for c := 0; c < h; c++ {
					inv.Set(s, c, 1)
				}
			}
		}
		xt := tensor.GatherRows(x, idx)
		z := tensor.AddRowVec(tensor.Add(tensor.MatMul(xt, l.wx), tensor.MatMul(hState, l.wh)), l.b)
		in := tensor.Sigmoid(tensor.SliceCols(z, 0, h))
		fg := tensor.Sigmoid(tensor.SliceCols(z, h, 2*h))
		og := tensor.Sigmoid(tensor.SliceCols(z, 2*h, 3*h))
		gg := tensor.Tanh(tensor.SliceCols(z, 3*h, 4*h))
		cNew := tensor.Add(tensor.Mul(fg, cState), tensor.Mul(in, gg))
		hNew := tensor.Mul(og, tensor.Tanh(cNew))
		mk := tensor.Const(mask)
		ik := tensor.Const(inv)
		cState = tensor.Add(tensor.Mul(mk, cNew), tensor.Mul(ik, cState))
		hState = tensor.Add(tensor.Mul(mk, hNew), tensor.Mul(ik, hState))
	}
	return hState
}

// RunLSTM executes GraphSage with LSTM aggregators at both layers. Like
// Run, it returns gradients when labels are present — including the
// aggregator parameter gradients, which PSGraph pushes to the parameter
// server alongside the layer weights.
func RunLSTM(b Batch, w1, w2 []float64, l1, l2 LSTMParams, hidden, classes int) Result {
	x := tensor.Const(tensor.FromData(b.NumNodes, b.Dim, b.X))
	W1 := tensor.Param(tensor.FromData(2*b.Dim, hidden, append([]float64(nil), w1...)))
	W2 := tensor.Param(tensor.FromData(2*hidden, classes, append([]float64(nil), w2...)))
	n1 := newLSTMNodes(l1, b.Dim)
	n2 := newLSTMNodes(l2, hidden)

	self1 := tensor.GatherRows(x, b.Self1)
	agg1 := segmentLSTM(x, b.Nbrs1, n1)
	h1 := tensor.ReLU(tensor.MatMul(tensor.ConcatCols(self1, agg1), W1))

	self2 := tensor.GatherRows(h1, b.Self2)
	agg2 := segmentLSTM(h1, b.Nbrs2, n2)
	res := finish(b, tensor.MatMul(tensor.ConcatCols(self2, agg2), W2), W1, W2)
	if b.Labels != nil {
		res.GradL1, res.GradL2 = n1.grads(), n2.grads()
	}
	return res
}

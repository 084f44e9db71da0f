package tensor

import (
	"fmt"
	"math"
)

// Node is a vertex of the reverse-mode computation graph. Operations on
// nodes record a backward closure; Backward propagates gradients to every
// reachable parameter node. A parameter owns its Grad from creation; an
// intermediate result gets one when Backward reaches it, so a forward-only
// evaluation allocates no gradient storage.
type Node struct {
	T        *Tensor
	Grad     *Tensor
	requires bool
	back     func()
	prev     []*Node
}

// Param wraps a trainable tensor (gradients accumulate into Grad).
func Param(t *Tensor) *Node {
	return &Node{T: t, Grad: New(t.Rows, t.Cols), requires: true}
}

// Const wraps a fixed input (no gradient).
func Const(t *Tensor) *Node {
	return &Node{T: t}
}

// needGrad reports whether any ancestor requires a gradient.
func needGrad(nodes ...*Node) bool {
	for _, n := range nodes {
		if n.requires {
			return true
		}
	}
	return false
}

func newResult(t *Tensor, prev ...*Node) *Node {
	return &Node{T: t, prev: prev, requires: needGrad(prev...)}
}

// MatMul returns a @ b.
func MatMul(a, b *Node) *Node {
	out := newResult(a.T.MatMul(b.T), a, b)
	if out.requires {
		out.back = func() {
			if a.requires {
				a.Grad.addABT(out.Grad, b.T)
			}
			if b.requires {
				b.Grad.addATB(a.T, out.Grad)
			}
		}
	}
	return out
}

// Add returns a + b (same shape).
func Add(a, b *Node) *Node {
	a.T.mustSameShape(b.T)
	t := a.T.Clone()
	t.AddInPlace(b.T)
	out := newResult(t, a, b)
	if out.requires {
		out.back = func() {
			if a.requires {
				a.Grad.AddInPlace(out.Grad)
			}
			if b.requires {
				b.Grad.AddInPlace(out.Grad)
			}
		}
	}
	return out
}

// AddRowVec broadcasts the 1×C bias b over every row of a.
func AddRowVec(a, b *Node) *Node {
	if b.T.Rows != 1 || b.T.Cols != a.T.Cols {
		panic(fmt.Sprintf("tensor: bias %dx%d for input %dx%d", b.T.Rows, b.T.Cols, a.T.Rows, a.T.Cols))
	}
	t := a.T.Clone()
	for r := 0; r < t.Rows; r++ {
		row := t.Row(r)
		for c := range row {
			row[c] += b.T.Data[c]
		}
	}
	out := newResult(t, a, b)
	if out.requires {
		out.back = func() {
			if a.requires {
				a.Grad.AddInPlace(out.Grad)
			}
			if b.requires {
				for r := 0; r < out.Grad.Rows; r++ {
					row := out.Grad.Row(r)
					for c, g := range row {
						b.Grad.Data[c] += g
					}
				}
			}
		}
	}
	return out
}

// ReLU applies max(0, x) element-wise. Both directions are branch-free:
// the sign of an activation is a coin toss to the branch predictor.
func ReLU(a *Node) *Node {
	t := New(a.T.Rows, a.T.Cols)
	for i, x := range a.T.Data {
		t.Data[i] = max(x, 0)
	}
	out := newResult(t, a)
	if out.requires {
		out.back = func() {
			g, dst := out.Grad.Data[:len(t.Data)], a.Grad.Data[:len(t.Data)]
			for i, y := range t.Data {
				// y is +0 or positive: all ones exactly when it has a bit set.
				u := math.Float64bits(y)
				pos := uint64(int64(u|-u) >> 63)
				dst[i] += math.Float64frombits(math.Float64bits(g[i]) & pos)
			}
		}
	}
	return out
}

// Sigmoid applies the logistic function element-wise.
func Sigmoid(a *Node) *Node {
	t := a.T.Clone()
	for i, x := range t.Data {
		t.Data[i] = 1 / (1 + math.Exp(-x))
	}
	out := newResult(t, a)
	if out.requires {
		out.back = func() {
			for i, y := range out.T.Data {
				a.Grad.Data[i] += out.Grad.Data[i] * y * (1 - y)
			}
		}
	}
	return out
}

// Tanh applies tanh element-wise.
func Tanh(a *Node) *Node {
	t := a.T.Clone()
	for i, x := range t.Data {
		t.Data[i] = math.Tanh(x)
	}
	out := newResult(t, a)
	if out.requires {
		out.back = func() {
			for i, y := range out.T.Data {
				a.Grad.Data[i] += out.Grad.Data[i] * (1 - y*y)
			}
		}
	}
	return out
}

// ConcatCols concatenates a and b column-wise ([a | b]).
func ConcatCols(a, b *Node) *Node {
	if a.T.Rows != b.T.Rows {
		panic(fmt.Sprintf("tensor: concat rows %d vs %d", a.T.Rows, b.T.Rows))
	}
	t := New(a.T.Rows, a.T.Cols+b.T.Cols)
	for r := 0; r < t.Rows; r++ {
		copy(t.Row(r)[:a.T.Cols], a.T.Row(r))
		copy(t.Row(r)[a.T.Cols:], b.T.Row(r))
	}
	out := newResult(t, a, b)
	if out.requires {
		out.back = func() {
			for r := 0; r < t.Rows; r++ {
				g := out.Grad.Row(r)
				if a.requires {
					ar := a.Grad.Row(r)
					for c := range ar {
						ar[c] += g[c]
					}
				}
				if b.requires {
					br := b.Grad.Row(r)
					for c := range br {
						br[c] += g[a.T.Cols+c]
					}
				}
			}
		}
	}
	return out
}

// GatherRows selects rows of a by index (rows may repeat).
func GatherRows(a *Node, idx []int32) *Node {
	t := New(len(idx), a.T.Cols)
	for r, i := range idx {
		copy(t.Row(r), a.T.Row(int(i)))
	}
	out := newResult(t, a)
	if out.requires {
		out.back = func() {
			for r, i := range idx {
				dst := a.Grad.Row(int(i))
				src := out.Grad.Row(r)
				for c := range dst {
					dst[c] += src[c]
				}
			}
		}
	}
	return out
}

// meanInto writes the mean of rows idx of a into dst (a.Cols wide); no
// rows give zeros (a vertex with no sampled neighbors aggregates to zero,
// as in GraphSage).
func meanInto(dst []float64, a *Tensor, idx []int32) {
	if len(idx) == 0 {
		clear(dst)
		return
	}
	copy(dst, a.Row(int(idx[0])))
	for _, r := range idx[1:] {
		src := a.Row(int(r))[:len(dst)]
		for c := range dst {
			dst[c] += src[c]
		}
	}
	inv := 1 / float64(len(idx))
	for c := range dst {
		dst[c] *= inv
	}
}

// maxInto writes the column-wise maximum of rows idx of a into dst and,
// when arg is non-nil, the row each maximum came from; no rows give zeros.
func maxInto(dst []float64, arg []int32, a *Tensor, idx []int32) {
	if len(idx) == 0 {
		clear(dst)
		return
	}
	copy(dst, a.Row(int(idx[0])))
	for c := range arg {
		arg[c] = idx[0]
	}
	for _, r := range idx[1:] {
		src := a.Row(int(r))[:len(dst)]
		for c, x := range src {
			if x > dst[c] {
				dst[c] = x
				if arg != nil {
					arg[c] = r
				}
			}
		}
	}
}

// SegmentMean averages groups of rows of a: output row s is the mean of
// rows segs[s]. Empty segments produce zero rows.
func SegmentMean(a *Node, segs [][]int32) *Node {
	t := New(len(segs), a.T.Cols)
	for s, rows := range segs {
		meanInto(t.Row(s), a.T, rows)
	}
	out := newResult(t, a)
	if out.requires {
		out.back = func() {
			for s, rows := range segs {
				if len(rows) == 0 {
					continue
				}
				g := out.Grad.Row(s)
				inv := 1 / float64(len(rows))
				for _, r := range rows {
					dst := a.Grad.Row(int(r))
					for c := range dst {
						dst[c] += g[c] * inv
					}
				}
			}
		}
	}
	return out
}

// SegmentMaxPool max-pools groups of rows of a (the pooling aggregator of
// GraphSage). Empty segments produce zero rows.
func SegmentMaxPool(a *Node, segs [][]int32) *Node {
	cols := a.T.Cols
	t := New(len(segs), cols)
	argmax := make([]int32, len(segs)*cols)
	for s, rows := range segs {
		maxInto(t.Row(s), argmax[s*cols:(s+1)*cols], a.T, rows)
	}
	out := newResult(t, a)
	if out.requires {
		out.back = func() {
			for s, rows := range segs {
				if len(rows) == 0 {
					continue
				}
				g := out.Grad.Row(s)
				for c, r := range argmax[s*cols : (s+1)*cols] {
					a.Grad.Row(int(r))[c] += g[c]
				}
			}
		}
	}
	return out
}

// ConcatSelfAgg returns [a[self] | AGG(a[segs])], the left operand of a
// GraphSage layer, for an input that takes no gradient: each row is
// written once, straight into place, where ConcatCols(GatherRows(a, self),
// SegmentMean(a, segs)) — the differentiable form — builds and copies
// three tensors. AGG is the mean, or the column-wise maximum with pool.
func ConcatSelfAgg(a *Tensor, self []int32, segs [][]int32, pool bool) *Tensor {
	if len(self) != len(segs) {
		panic(fmt.Sprintf("tensor: %d self rows for %d segments", len(self), len(segs)))
	}
	c := a.Cols
	t := New(len(self), 2*c)
	for r, i := range self {
		row := t.Row(r)
		copy(row[:c], a.Row(int(i)))
		if pool {
			maxInto(row[c:], nil, a, segs[r])
		} else {
			meanInto(row[c:], a, segs[r])
		}
	}
	return t
}

// SoftmaxCrossEntropy returns the mean cross-entropy loss of logits
// against integer labels, as a 1×1 node, along with the predicted class of
// every row.
func SoftmaxCrossEntropy(logits *Node, labels []int32) (*Node, []int32) {
	n := logits.T.Rows
	if len(labels) != n {
		panic(fmt.Sprintf("tensor: %d labels for %d rows", len(labels), n))
	}
	probs := New(n, logits.T.Cols)
	preds := make([]int32, n)
	var loss float64
	for r := 0; r < n; r++ {
		row := logits.T.Row(r)
		maxv := math.Inf(-1)
		for c, x := range row {
			if x > maxv {
				maxv = x
				preds[r] = int32(c)
			}
		}
		var sum float64
		p := probs.Row(r)
		for c, x := range row {
			p[c] = math.Exp(x - maxv)
			sum += p[c]
		}
		for c := range p {
			p[c] /= sum
		}
		loss -= math.Log(math.Max(p[labels[r]], 1e-15))
	}
	loss /= float64(n)
	out := newResult(FromData(1, 1, []float64{loss}), logits)
	if out.requires {
		out.back = func() {
			scale := out.Grad.Data[0] / float64(n)
			for r := 0; r < n; r++ {
				g := logits.Grad.Row(r)
				p := probs.Row(r)
				for c := range g {
					y := 0.0
					if c == int(labels[r]) {
						y = 1
					}
					g[c] += scale * (p[c] - y)
				}
			}
		}
	}
	return out, preds
}

// Backward runs reverse-mode differentiation from root (which must be
// 1×1), filling Grad on every parameter that contributed to it.
func Backward(root *Node) {
	if root.T.Rows != 1 || root.T.Cols != 1 {
		panic("tensor: Backward root must be a scalar")
	}
	if !root.requires {
		return
	}
	// Topological order by DFS.
	var order []*Node
	seen := map[*Node]bool{}
	var visit func(n *Node)
	visit = func(n *Node) {
		if seen[n] || !n.requires {
			return
		}
		seen[n] = true
		for _, p := range n.prev {
			visit(p)
		}
		order = append(order, n)
	}
	visit(root)
	for _, n := range order {
		if n.Grad == nil {
			n.Grad = New(n.T.Rows, n.T.Cols)
		}
	}
	root.Grad.Data[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].back != nil {
			order[i].back()
		}
	}
}

// ZeroGrad clears the gradients of the given parameter nodes.
func ZeroGrad(params ...*Node) {
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = 0
		}
	}
}

// Mul returns the element-wise product a ⊙ b (same shape).
func Mul(a, b *Node) *Node {
	a.T.mustSameShape(b.T)
	t := New(a.T.Rows, a.T.Cols)
	for i := range t.Data {
		t.Data[i] = a.T.Data[i] * b.T.Data[i]
	}
	out := newResult(t, a, b)
	if out.requires {
		out.back = func() {
			if a.requires {
				for i := range a.Grad.Data {
					a.Grad.Data[i] += out.Grad.Data[i] * b.T.Data[i]
				}
			}
			if b.requires {
				for i := range b.Grad.Data {
					b.Grad.Data[i] += out.Grad.Data[i] * a.T.Data[i]
				}
			}
		}
	}
	return out
}

// SliceCols returns columns [lo, hi) of a as a new node.
func SliceCols(a *Node, lo, hi int) *Node {
	if lo < 0 || hi > a.T.Cols || lo >= hi {
		panic(fmt.Sprintf("tensor: SliceCols[%d:%d] of %d columns", lo, hi, a.T.Cols))
	}
	t := New(a.T.Rows, hi-lo)
	for r := 0; r < a.T.Rows; r++ {
		copy(t.Row(r), a.T.Row(r)[lo:hi])
	}
	out := newResult(t, a)
	if out.requires {
		out.back = func() {
			for r := 0; r < a.T.Rows; r++ {
				dst := a.Grad.Row(r)[lo:hi]
				src := out.Grad.Row(r)
				for c := range dst {
					dst[c] += src[c]
				}
			}
		}
	}
	return out
}

// Package tensor provides the dense-matrix and reverse-mode automatic
// differentiation runtime that stands in for PyTorch in this
// reproduction. PSGraph embeds PyTorch through JNI to train GNNs
// (Sec. III-C); here the "C++ runtime" is this package, and the JNI
// boundary is the explicit serialize/execute hand-off in the core
// GraphSage implementation.
//
// The feature set is exactly what GraphSage training needs: matmul,
// bias broadcast, ReLU/sigmoid/tanh, column concatenation, row gather,
// segment mean (neighborhood aggregation) and softmax cross-entropy, all
// differentiable.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a row-major dense matrix of float64.
type Tensor struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero tensor of the given shape.
func New(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromData wraps data (not copied) as a rows×cols tensor.
func FromData(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %dx%d", len(data), rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// Xavier returns a rows×cols tensor initialized with Glorot-uniform
// values from the given source.
func Xavier(rows, cols int, rng *rand.Rand) *Tensor {
	t := New(rows, cols)
	limit := math.Sqrt(6.0 / float64(rows+cols))
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return t
}

// Set stores x at element (r, c).
func (t *Tensor) Set(r, c int, x float64) { t.Data[r*t.Cols+c] = x }

// Row returns a view of row r.
func (t *Tensor) Row(r int) []float64 { return t.Data[r*t.Cols : (r+1)*t.Cols] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	// make followed at once by copy: the runtime allocates the block
	// without zeroing what the copy overwrites.
	data := make([]float64, len(t.Data))
	copy(data, t.Data)
	return &Tensor{Rows: t.Rows, Cols: t.Cols, Data: data}
}

// AddInPlace adds o element-wise.
func (t *Tensor) AddInPlace(o *Tensor) {
	t.mustSameShape(o)
	for i, x := range o.Data {
		t.Data[i] += x
	}
}

func (t *Tensor) mustSameShape(o *Tensor) {
	if t.Rows != o.Rows || t.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", t.Rows, t.Cols, o.Rows, o.Cols))
	}
}

// MatMul returns t @ o.
func (t *Tensor) MatMul(o *Tensor) *Tensor {
	if t.Cols != o.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d @ %dx%d", t.Rows, t.Cols, o.Rows, o.Cols))
	}
	out := New(t.Rows, o.Cols)
	n := o.Cols
	if n == 0 {
		return out
	}
	// i-k-j order keeps the inner loop sequential over both operands; k
	// is unrolled by four so that each pass over the (narrow) output row
	// does four multiply-adds per load and store of it, and the four rows
	// of o are re-sliced to the output row's length so the inner loop
	// carries no bounds checks.
	for i := 0; i < t.Rows; i++ {
		ti := t.Data[i*t.Cols : (i+1)*t.Cols]
		oi := out.Data[i*n : (i+1)*n]
		k := 0
		for ; k+4 <= len(ti); k += 4 {
			a0, a1, a2, a3 := ti[k], ti[k+1], ti[k+2], ti[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b := o.Data[k*n : (k+4)*n]
			b0, b1, b2, b3 := b[:n], b[n:2*n], b[2*n:3*n], b[3*n:4*n]
			b0, b1, b2, b3 = b0[:len(oi)], b1[:len(oi)], b2[:len(oi)], b3[:len(oi)]
			for j := range oi {
				oi[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < len(ti); k++ {
			a := ti[k]
			if a == 0 {
				continue
			}
			bk := o.Data[k*n : (k+1)*n]
			bk = bk[:len(oi)]
			for j := range oi {
				oi[j] += a * bk[j]
			}
		}
	}
	return out
}

// addATB accumulates aᵀ @ g into t (the right operand's gradient of a
// matmul) row by row of a and g, without materialising aᵀ: t is small
// (weights) and stays in cache while a and g stream through once.
func (t *Tensor) addATB(a, g *Tensor) {
	if a.Rows != g.Rows || t.Rows != a.Cols || t.Cols != g.Cols {
		panic(fmt.Sprintf("tensor: (%dx%d)ᵀ @ %dx%d into %dx%d", a.Rows, a.Cols, g.Rows, g.Cols, t.Rows, t.Cols))
	}
	n := g.Cols
	i := 0
	// Four rows per pass: four multiply-adds per load and store of t.
	for ; i+4 <= a.Rows; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		g0, g1, g2, g3 := g.Row(i), g.Row(i+1), g.Row(i+2), g.Row(i+3)
		a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
		g1, g2, g3 = g1[:len(g0)], g2[:len(g0)], g3[:len(g0)]
		for k, v0 := range a0 {
			v1, v2, v3 := a1[k], a2[k], a3[k]
			tk := t.Data[k*n : (k+1)*n]
			tk = tk[:len(g0)]
			for j, x0 := range g0 {
				tk[j] += v0*x0 + v1*g1[j] + v2*g2[j] + v3*g3[j]
			}
		}
	}
	for ; i < a.Rows; i++ {
		gi := g.Row(i)
		for k, v := range a.Row(i) {
			tk := t.Data[k*n : (k+1)*n]
			tk = tk[:len(gi)]
			for j, x := range gi {
				tk[j] += v * x
			}
		}
	}
}

// addABT accumulates g @ bᵀ into t (the left operand's gradient of a
// matmul): element (i, k) gains the dot product of row i of g and row k
// of b, both contiguous.
func (t *Tensor) addABT(g, b *Tensor) {
	if g.Cols != b.Cols || t.Rows != g.Rows || t.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: %dx%d @ (%dx%d)ᵀ into %dx%d", g.Rows, g.Cols, b.Rows, b.Cols, t.Rows, t.Cols))
	}
	for i := 0; i < g.Rows; i++ {
		gi, ti := g.Row(i), t.Row(i)
		for k := range ti {
			bk := b.Row(k)[:len(gi)]
			var dot float64
			for j, gv := range gi {
				dot += gv * bk[j]
			}
			ti[k] += dot
		}
	}
}

package ps

import (
	"fmt"
	"slices"
	"sync"
)

// matEngine stores one DenseMatrix partition: the column range
// [col0, col1) of every row, row-major, plus the server-side optimizer
// state for gradient pushes (Adam/AdaGrad moments and the step counter
// live here so executors stay stateless).
type matEngine struct {
	engineBase
	mu         sync.RWMutex
	col0, col1 int
	mat        []float64
	step       int
	mom        []float64
	vel        []float64
}

func newMatEngine(base engineBase, pm Partition) *matEngine {
	return &matEngine{
		engineBase: base,
		col0:       pm.Col0, col1: pm.Col1,
		mat: make([]float64, int(base.meta.Size)*(pm.Col1-pm.Col0)),
	}
}

func (e *matEngine) pull(pullReq) (matPullResp, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]float64, len(e.mat))
	copy(out, e.mat)
	return matPullResp{Col0: e.col0, Col1: e.col1, Data: out}, nil
}

func (e *matEngine) push(req matPushReq) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(req.Data) != len(e.mat) {
		return fmt.Errorf("ps: matrix push size %d != partition size %d", len(req.Data), len(e.mat))
	}
	switch {
	case req.Set:
		copy(e.mat, req.Data)
	case req.Grad:
		e.step++
		e.meta.Opt.apply(e.mat, req.Data, int64(e.step), func(k int) []float64 {
			m := [2]*[]float64{&e.mom, &e.vel}[k] // whole-slab moments
			if *m == nil {
				*m = make([]float64, len(e.mat))
			}
			return *m
		})
	default:
		for i, v := range req.Data {
			e.mat[i] += v
		}
	}
	return nil
}

// export ignores the range: DenseMatrix is column-partitioned, so
// partitions migrate wholesale (moves), never split.
func (e *matEngine) export(int64, int64) partImage {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return partImage{
		Kind: e.meta.Kind, Step: int64(e.step),
		Dense: slices.Clone(e.mat), DenseMom: slices.Clone(e.mom), DenseVel: slices.Clone(e.vel),
	}
}

// merge adopts an exported column slab wholesale, moments and step
// included (a migrated matrix partition must resume Adam exactly). A
// first moment without a second is a state no optimizer here produces.
func (e *matEngine) merge(img partImage) error {
	if err := e.checkKind(img); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	n, mom, vel := len(e.mat), len(img.DenseMom), len(img.DenseVel)
	if len(img.Dense) != n {
		return e.badImage("Dense", "%d values, partition holds %d", len(img.Dense), n)
	}
	if (mom != 0 && mom != n) || (vel != 0 && vel != n) || mom > vel {
		return e.badImage("DenseMom,DenseVel", "%d and %d moments for %d values", mom, vel, n)
	}
	copy(e.mat, img.Dense)
	e.step = int(img.Step)
	// Empty moments stay nil: the optimizer step allocates on nil.
	e.mom = append([]float64(nil), img.DenseMom...)
	e.vel = append([]float64(nil), img.DenseVel...)
	return nil
}

func (e *matEngine) splitAt(int64) error {
	return fmt.Errorf("ps: cannot split column-partitioned model %s", e.meta.Name)
}

func (e *matEngine) sizeBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return int64(len(e.mat)) * 8
}

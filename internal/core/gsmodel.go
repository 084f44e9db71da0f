package core

import (
	"math/rand"

	"psgraph/internal/gnn"
	"psgraph/internal/ps"
)

// gsModel bundles the PS-resident trainable state of one GraphSage run:
// the two layer weight matrices, plus — for the LSTM aggregator — the
// per-layer aggregator parameters (Wx, Wh, bias), all with server-side
// Adam. The driver initializes everything and pushes it to the PS
// (Fig. 5 steps 1-2); executors pull before each batch and push
// gradients after.
type gsModel struct {
	w1, w2     *ps.Mat
	l1, l2     *lstmMats
	inputDim   int
	hidden     int
	classes    int
	aggregator string
	names      []string
}

// lstmMats are the PS matrices of one LSTM aggregator.
type lstmMats struct {
	wx, wh, b *ps.Mat
}

// gsWeights is one pulled snapshot of the model.
type gsWeights struct {
	w1, w2 []float64
	l1, l2 gnn.LSTMParams
}

func newGSModel(ctx *Context, data *GraphSageData, cfg GraphSageConfig, rng *rand.Rand) (*gsModel, error) {
	m := &gsModel{
		inputDim:   data.InputDim,
		hidden:     cfg.HiddenDim,
		classes:    cfg.Classes,
		aggregator: cfg.Aggregator,
	}
	mat := func(prefix string, rows int64, cols int, init []float64) (*ps.Mat, error) {
		name := ctx.ModelName(prefix)
		h, err := ctx.Agent.CreateMatrix(ps.MatrixSpec{Name: name, Rows: rows, Cols: cols, Opt: ps.Adam(cfg.LR)})
		if err != nil {
			return nil, err
		}
		if err := h.PushSet(init); err != nil {
			return nil, err
		}
		m.names = append(m.names, name)
		return h, nil
	}
	var err error
	if m.w1, err = mat("gs.w1", int64(2*data.InputDim), cfg.HiddenDim, gnn.XavierFlat(2*data.InputDim, cfg.HiddenDim, rng)); err != nil {
		return nil, err
	}
	if m.w2, err = mat("gs.w2", int64(2*cfg.HiddenDim), cfg.Classes, gnn.XavierFlat(2*cfg.HiddenDim, cfg.Classes, rng)); err != nil {
		return nil, err
	}
	if cfg.Aggregator == "lstm" {
		newLSTM := func(layer string, dim int) (*lstmMats, error) {
			init := gnn.XavierLSTM(dim, rng)
			l := &lstmMats{}
			var err error
			if l.wx, err = mat("gs."+layer+".wx", int64(dim), 4*dim, init.Wx); err != nil {
				return nil, err
			}
			if l.wh, err = mat("gs."+layer+".wh", int64(dim), 4*dim, init.Wh); err != nil {
				return nil, err
			}
			if l.b, err = mat("gs."+layer+".b", 1, 4*dim, init.B); err != nil {
				return nil, err
			}
			return l, nil
		}
		if m.l1, err = newLSTM("l1", data.InputDim); err != nil {
			return nil, err
		}
		if m.l2, err = newLSTM("l2", cfg.HiddenDim); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// pull fetches the current weights from the PS.
func (m *gsModel) pull() (gsWeights, error) {
	var w gsWeights
	var err error
	if w.w1, err = m.w1.PullAll(); err != nil {
		return w, err
	}
	if w.w2, err = m.w2.PullAll(); err != nil {
		return w, err
	}
	if m.aggregator == "lstm" {
		if w.l1, err = m.l1.pull(); err != nil {
			return w, err
		}
		if w.l2, err = m.l2.pull(); err != nil {
			return w, err
		}
	}
	return w, nil
}

func (l *lstmMats) pull() (gnn.LSTMParams, error) {
	var p gnn.LSTMParams
	var err error
	if p.Wx, err = l.wx.PullAll(); err != nil {
		return p, err
	}
	if p.Wh, err = l.wh.PullAll(); err != nil {
		return p, err
	}
	if p.B, err = l.b.PullAll(); err != nil {
		return p, err
	}
	return p, nil
}

// run crosses the runtime boundary with the pulled weights: forward, and
// backward when the batch has labels (Fig. 5 step 4). In the paper Spark
// executors feed PyTorch through JNI (Sec. III-C); here gnn and tensor play
// PyTorch, and only flat numbers and index arrays cross, as JNI allows.
func (m *gsModel) run(jb gnn.Batch, w gsWeights) gnn.Result {
	if m.aggregator == "lstm" {
		return gnn.RunLSTM(jb, w.w1, w.w2, w.l1, w.l2, m.hidden, m.classes)
	}
	return gnn.Run(jb, w.w1, w.w2, m.hidden, m.classes)
}

// pushGrads sends the batch gradients to the PS (server-side Adam).
func (m *gsModel) pushGrads(out gnn.Result) error {
	if err := m.w1.PushGrad(out.GradW1); err != nil {
		return err
	}
	if err := m.w2.PushGrad(out.GradW2); err != nil {
		return err
	}
	if m.aggregator != "lstm" {
		return nil
	}
	if err := m.l1.pushGrads(out.GradL1); err != nil {
		return err
	}
	return m.l2.pushGrads(out.GradL2)
}

func (l *lstmMats) pushGrads(p gnn.LSTMParams) error {
	if err := l.wx.PushGrad(p.Wx); err != nil {
		return err
	}
	if err := l.wh.PushGrad(p.Wh); err != nil {
		return err
	}
	return l.b.PushGrad(p.B)
}

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
	mats            []*ps.Mat // w1, w2, then Wx, Wh, B of layer 1's and layer 2's LSTM
	hidden, classes int
	lstm            bool
}

// gsWeights is one pulled snapshot of the model, a slice per matrix.
type gsWeights [8][]float64

func newGSModel(ctx *Context, data *GraphSageData, cfg GraphSageConfig, rng *rand.Rand) (*gsModel, error) {
	m := &gsModel{hidden: cfg.HiddenDim, classes: cfg.Classes, lstm: cfg.Aggregator == "lstm"}
	type spec struct {
		name string
		rows int64
		init []float64
	}
	specs := []spec{
		{"gs.w1", int64(2 * data.InputDim), gnn.XavierFlat(2*data.InputDim, cfg.HiddenDim, rng)},
		{"gs.w2", int64(2 * cfg.HiddenDim), gnn.XavierFlat(2*cfg.HiddenDim, cfg.Classes, rng)},
	}
	if m.lstm {
		for _, l := range []struct {
			layer string
			dim   int
		}{{"l1", data.InputDim}, {"l2", cfg.HiddenDim}} {
			p := gnn.XavierLSTM(l.dim, rng)
			specs = append(specs,
				spec{"gs." + l.layer + ".wx", int64(l.dim), p.Wx},
				spec{"gs." + l.layer + ".wh", int64(l.dim), p.Wh},
				spec{"gs." + l.layer + ".b", 1, p.B})
		}
	}
	for _, s := range specs {
		h, err := ctx.Agent.CreateMatrix(ps.MatrixSpec{
			Name: ctx.ModelName(s.name), Rows: s.rows, Cols: len(s.init) / int(s.rows), Opt: ps.Adam(cfg.LR),
		})
		if err != nil {
			return nil, err
		}
		if err := h.PushSet(s.init); err != nil {
			return nil, err
		}
		m.mats = append(m.mats, h)
	}
	return m, nil
}

// pull fetches the current weights from the PS.
func (m *gsModel) pull() (gsWeights, error) {
	var w gsWeights
	for i, h := range m.mats {
		var err error
		if w[i], err = h.PullAll(); err != nil {
			return w, err
		}
	}
	return w, nil
}

// run crosses the runtime boundary with the pulled weights: forward, and
// backward when the batch has labels (Fig. 5 step 4). In the paper Spark
// executors feed PyTorch through JNI (Sec. III-C); here gnn and tensor play
// PyTorch, and only flat numbers and index arrays cross, as JNI allows.
func (m *gsModel) run(jb gnn.Batch, w gsWeights) gnn.Result {
	if m.lstm {
		l1, l2 := gnn.LSTMParams{Wx: w[2], Wh: w[3], B: w[4]}, gnn.LSTMParams{Wx: w[5], Wh: w[6], B: w[7]}
		return gnn.RunLSTM(jb, w[0], w[1], l1, l2, m.hidden, m.classes)
	}
	return gnn.Run(jb, w[0], w[1], m.hidden, m.classes)
}

// pushGrads sends the batch gradients to the PS (server-side Adam).
func (m *gsModel) pushGrads(out gnn.Result) error {
	grads := gsWeights{out.GradW1, out.GradW2, out.GradL1.Wx, out.GradL1.Wh, out.GradL1.B, out.GradL2.Wx, out.GradL2.Wh, out.GradL2.B}
	for i, h := range m.mats {
		if err := h.PushGrad(grads[i]); err != nil {
			return err
		}
	}
	return nil
}

package core

import (
	"fmt"
	"math/rand"

	"psgraph/internal/gnn"
	"psgraph/internal/tensor"
)

// EvaluateEmbeddings measures embedding quality through the paper's GE
// use case (Sec. II-B): vertex classification. A softmax-regression probe
// is trained on the embeddings of a train split and accuracy is reported
// on the held-out split. Higher accuracy means the embedding geometry
// separates the classes better.
func EvaluateEmbeddings(embs map[int64][]float64, labels map[int64]int, classes int, trainFrac float64, seed int64) (float64, error) {
	if classes < 2 {
		return 0, fmt.Errorf("core: EvaluateEmbeddings needs >= 2 classes")
	}
	if trainFrac <= 0 || trainFrac >= 1 {
		trainFrac = 0.7
	}
	ids := make([]int64, 0, len(labels))
	dim := 0
	for id := range labels {
		v, ok := embs[id]
		if !ok {
			continue
		}
		dim = len(v)
		ids = append(ids, id)
	}
	if len(ids) < 10 {
		return 0, fmt.Errorf("core: only %d labeled embeddings", len(ids))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	nTrain := int(float64(len(ids)) * trainFrac)

	buildXY := func(subset []int64) (*tensor.Node, []int32) {
		x := tensor.New(len(subset), dim)
		y := make([]int32, len(subset))
		for i, id := range subset {
			copy(x.Row(i), embs[id])
			y[i] = int32(labels[id])
		}
		return tensor.Const(x), y
	}
	xTrain, yTrain := buildXY(ids[:nTrain])
	xTest, yTest := buildXY(ids[nTrain:])

	w := tensor.Param(tensor.Xavier(dim, classes, rng))
	b := tensor.Param(tensor.New(1, classes))
	optW := gnn.NewAdam(0.05, len(w.T.Data))
	optB := gnn.NewAdam(0.05, len(b.T.Data))
	for epoch := 0; epoch < 200; epoch++ {
		tensor.ZeroGrad(w, b)
		logits := tensor.AddRowVec(tensor.MatMul(xTrain, w), b)
		loss, _ := tensor.SoftmaxCrossEntropy(logits, yTrain)
		tensor.Backward(loss)
		optW.Step(w.T.Data, w.Grad.Data)
		optB.Step(b.T.Data, b.Grad.Data)
	}

	logits := tensor.AddRowVec(tensor.MatMul(xTest, w), b)
	_, preds := tensor.SoftmaxCrossEntropy(logits, yTest)
	correct := 0
	for i, p := range preds {
		if p == yTest[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(yTest)), nil
}

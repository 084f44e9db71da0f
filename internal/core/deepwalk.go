package core

import (
	"math/rand"

	"psgraph/internal/dataflow"
	"psgraph/internal/ps"
)

// DeepWalk (Sec. II-B, reference [11]) is the other vertex-embedding
// family the paper cites alongside LINE: truncated random walks turn the
// graph into "sentences", and a skip-gram model with negative sampling
// learns an embedding per vertex. The PSGraph realization reuses the LINE
// machinery wholesale — column-partitioned embedding and context models,
// partial dot products and SGD updates on the servers via psFunc — while
// the executors generate walks against the PS-resident neighbor tables,
// level-synchronously so each walk step is one batched pull.

// DeepWalkConfig tunes the trainer.
type DeepWalkConfig struct {
	// Dim is the embedding dimension. Defaults to 32.
	Dim int
	// WalksPerVertex random walks start from every vertex. Defaults to 4.
	WalksPerVertex int
	// WalkLength is the number of steps per walk. Defaults to 8.
	WalkLength int
	// Window is the skip-gram context radius. Defaults to 3.
	Window int
	// NegSamples per positive pair. Defaults to 5.
	NegSamples int
	// Epochs over the walk corpus. Defaults to 1.
	Epochs int
	// LR is the SGD learning rate. Defaults to 0.025.
	LR float64
	// Parts overrides the RDD partition count.
	Parts int
	Seed  int64
}

func (c *DeepWalkConfig) setDefaults() {
	if c.Dim == 0 {
		c.Dim = 32
	}
	if c.WalksPerVertex == 0 {
		c.WalksPerVertex = 4
	}
	if c.WalkLength == 0 {
		c.WalkLength = 8
	}
	if c.Window == 0 {
		c.Window = 3
	}
	if c.NegSamples == 0 {
		c.NegSamples = 5
	}
	if c.Epochs == 0 {
		c.Epochs = 1
	}
	if c.LR == 0 {
		c.LR = 0.025
	}
}

// DeepWalk trains skip-gram embeddings over truncated random walks.
// The returned result exposes the embeddings exactly like Line's.
func DeepWalk(ctx *Context, edges *dataflow.RDD[Edge], cfg DeepWalkConfig) (*LineResult, error) {
	cfg.setDefaults()
	parts := ctx.parts(cfg.Parts)

	// Adjacency on the PS: walks are vertex-partitioned but hop anywhere.
	adj, err := BuildNeighborModel(ctx, edges, true, parts)
	if err != nil {
		return nil, err
	}
	defer adj.Close(ctx)

	initScale := 0.5 / float64(cfg.Dim)
	embName := ctx.ModelName("dw.emb")
	ctxName := ctx.ModelName("dw.ctx")
	emb, err := ctx.Agent.CreateEmbedding(ps.EmbeddingSpec{
		Name: embName, Dim: cfg.Dim, ByColumn: true, InitScale: initScale,
	})
	if err != nil {
		return nil, err
	}
	if _, err := ctx.Agent.CreateEmbedding(ps.EmbeddingSpec{
		Name: ctxName, Dim: cfg.Dim, ByColumn: true, InitScale: initScale,
	}); err != nil {
		return nil, err
	}

	sampler, err := newDegreeSampler(edges, parts)
	if err != nil {
		return nil, err
	}
	starts := ToUndirectedNeighborTables(edges, parts).Cache()
	defer starts.Unpersist()

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epoch := epoch
		err := starts.ForeachPartition(func(part int, tables []dataflow.KV[int64, []int64]) error {
			if len(tables) == 0 {
				return nil
			}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(epoch)*999983 + int64(part)))
			// Level-synchronized walking: all walks of this partition
			// advance together, so each step pulls the frontier's
			// adjacency in one batched request.
			walks := make([][]int64, 0, len(tables)*cfg.WalksPerVertex)
			for _, t := range tables {
				for w := 0; w < cfg.WalksPerVertex; w++ {
					walks = append(walks, []int64{t.K})
				}
			}
			for step := 1; step < cfg.WalkLength; step++ {
				frontier := make(map[int64]bool)
				for _, w := range walks {
					frontier[w[len(w)-1]] = true
				}
				ids := make([]int64, 0, len(frontier))
				for id := range frontier {
					ids = append(ids, id)
				}
				nbrs, err := adj.Nbr.Pull(ids)
				if err != nil {
					return err
				}
				for i, w := range walks {
					cur := w[len(w)-1]
					ns := nbrs[cur]
					if len(ns) == 0 {
						continue // walk stalls at a sink
					}
					walks[i] = append(w, ns[rng.Intn(len(ns))])
				}
			}
			// Skip-gram pairs with negative sampling, trained through the
			// same server-side machinery as LINE.
			// Like LINE's batches, a positive pair and its negatives share
			// U (the walk centre), which the server kernels exploit.
			b := &lineBatch{}
			flush := func() error {
				if len(b.us) == 0 {
					return nil
				}
				err := lineStepPSFunc(ctx, embName, ctxName, *b, cfg.LR)
				b.us, b.vs, b.labels = b.us[:0], b.vs[:0], b.labels[:0]
				return err
			}
			for _, w := range walks {
				for i, center := range w {
					lo := max(0, i-cfg.Window)
					hi := min(len(w)-1, i+cfg.Window)
					for j := lo; j <= hi; j++ {
						if j == i {
							continue
						}
						b.add(center, w[j], 1)
						for k := 0; k < cfg.NegSamples; k++ {
							if neg := sampler.sample(rng); neg != w[j] {
								b.add(center, neg, 0)
							}
						}
					}
					if len(b.us) >= 2048 {
						if err := flush(); err != nil {
							return err
						}
					}
				}
			}
			return flush()
		})
		if err != nil {
			return nil, err
		}
	}
	return &LineResult{Emb: emb, EmbName: embName, CtxName: ctxName, Epochs: cfg.Epochs}, nil
}

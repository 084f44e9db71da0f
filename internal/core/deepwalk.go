package core

import (
	"cmp"
	"math/rand"

	"psgraph/internal/dataflow"
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
	// Epochs over the walk corpus. Defaults to 1.
	Epochs int
}

// The walks DeepWalk trains on: dwWalks start from every vertex, each
// dwWalkLength vertices long, with a skip-gram context of dwWindow on
// either side of a vertex and dwNegSamples negatives per positive pair,
// at SGD learning rate dwLR.
const (
	dwWalks, dwWalkLength, dwWindow, dwNegSamples = 4, 8, 3, 5
	dwLR                                          = 0.025
)

func (c *DeepWalkConfig) setDefaults() {
	c.Dim = cmp.Or(c.Dim, 32)
	c.Epochs = cmp.Or(c.Epochs, 1)
}

// DeepWalk trains skip-gram embeddings over truncated random walks.
// The returned result exposes the embeddings exactly like Line's.
func DeepWalk(ctx *Context, edges *dataflow.RDD[Edge], cfg DeepWalkConfig) (*LineResult, error) {
	cfg.setDefaults()
	parts := ctx.Partitions()

	// Adjacency on the PS: walks are vertex-partitioned but hop anywhere.
	adj, err := BuildNeighborModel(ctx, edges, true, parts)
	if err != nil {
		return nil, err
	}
	defer adj.Close(ctx)

	res, err := lineModels(ctx, "dw", cfg.Dim, true, cfg.Epochs)
	if err != nil {
		return nil, err
	}
	sampler, err := newDegreeSampler(edges, parts)
	if err != nil {
		return nil, err
	}
	starts := ToUndirectedNeighborTables(edges, parts).Cache()
	defer starts.Unpersist()

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		err := starts.ForeachPartition(func(part int, tables []dataflow.KV[int64, []int64]) error {
			if len(tables) == 0 {
				return nil
			}
			rng := rand.New(rand.NewSource(int64(epoch)*999983 + int64(part)))
			// Level-synchronized walking: all walks of this partition
			// advance together, so each step pulls the frontier's
			// adjacency in one batched request.
			walks := make([][]int64, 0, len(tables)*dwWalks)
			for _, t := range tables {
				for w := 0; w < dwWalks; w++ {
					walks = append(walks, []int64{t.K})
				}
			}
			var frontier idTable
			for step := 1; step < dwWalkLength; step++ {
				frontier.reset(len(walks))
				for _, w := range walks {
					frontier.row(w[len(w)-1])
				}
				nbrs, err := adj.Nbr.Pull(frontier.order)
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
				err := lineStepPSFunc(ctx, res.EmbName, res.CtxName, *b, dwLR)
				b.us, b.vs, b.labels, b.ends = b.us[:0], b.vs[:0], b.labels[:0], b.ends[:0]
				return err
			}
			var pairs []Edge // a centre and its window
			for _, w := range walks {
				for i, center := range w {
					pairs = pairs[:0]
					for j := max(0, i-dwWindow); j <= min(len(w)-1, i+dwWindow); j++ {
						if j != i {
							pairs = append(pairs, Edge{Src: center, Dst: w[j]})
						}
					}
					b.addBatch(pairs, dwNegSamples, sampler, rng)
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
	return res, nil
}

package ps

import (
	"sync"
	"testing"
)

// prefetchAll starts a prefetch of ids and waits for it.
func prefetchAll(t testing.TB, e *Emb, ids []int64) *Prefetch {
	t.Helper()
	p := e.PrefetchRows(ids)
	if _, _, err := p.Batch(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPrefetchCycleAllocationBudget: in steady state — every row a cache
// hit, the previous prefetch's blocks released — a PrefetchRows → Batch →
// Release cycle allocates its handle and its channel and nothing else (once:
// the block, the id and position lists and a map, 800 KB a step on
// line-rows-tcp).
func TestPrefetchCycleAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are measured without -short")
	}
	ids := make([]int64, 3072)
	for i := range ids {
		ids[i] = int64(i/6*6+i%6*i) % 2048 // runs, repeats, ~1,000 distinct
	}
	embLayouts(t, 32, func(name string, e *Emb) {
		prefetchAll(t, e, ids).Release() // fills the cache, sizes the blocks
		if n := testing.AllocsPerRun(50, func() { prefetchAll(t, e, ids).Release() }); n > 2 {
			t.Errorf("%s: a steady-state prefetch cycle makes %v allocations, want the handle and its channel", name, n)
		}
	})
}

// TestPrefetchBlocksAreNeverShared: two workers prefetch, check, scribble on
// and release blocks of ONE handle, two prefetches in flight each. A block handed to two prefetches at once shows up as a
// row that is not its id's — each worker overwrites what it was given with
// its own mark — and, under -race, as the write itself.
func TestPrefetchBlocksAreNeverShared(t *testing.T) {
	const dim, rounds = 4, 300
	embLayouts(t, dim, func(name string, e *Emb) {
		all := make([]int64, 64)
		set := make(map[int64][]float64)
		for i := range all {
			all[i] = int64(i)
			set[all[i]] = []float64{float64(i), float64(i), float64(i), float64(i)}
		}
		if err := e.PushSet(set); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var cur *Prefetch
				var curIDs, nextIDs []int64
				for r := 0; r <= rounds; r++ {
					var next *Prefetch
					if r < rounds {
						// Windows of varying size and overlap; every eighth
						// round drops the cache so that pulls run too.
						lo := (r*7 + w*13) % 40
						nextIDs = all[lo : lo+8+r%17]
						next = e.PrefetchRows(nextIDs)
						if r%8 == 0 {
							e.c.rowCache(e.Meta.Name).invalidate()
						}
					}
					if cur != nil {
						rows, pos, err := cur.Batch()
						if err != nil {
							t.Error(err)
							return
						}
						for i, id := range rows.IDs {
							for _, v := range rows.Row(i) {
								if v != float64(id) {
									t.Errorf("%s: worker %d round %d: row of id %d holds %v", name, w, r, id, rows.Row(i))
									return
								}
							}
						}
						if want := curIDs; len(pos) != len(want) {
							t.Errorf("%s: worker %d round %d: %d positions for %d ids", name, w, r, len(pos), len(want))
							return
						}
						for i := range rows.Data {
							rows.Data[i] = float64(-1 - w)
						}
						cur.Release()
					}
					cur, curIDs = next, nextIDs
				}
			}(w)
		}
		wg.Wait()
		if n := len(e.free); n > 4 {
			t.Errorf("%s: the handle holds %d blocks for 2 workers × 2 prefetches in flight", name, n)
		}
	})
}

// TestPrefetchBatchAfterRelease: the blocks are gone with Release — asking
// for them again is an error, never an empty batch to train on.
func TestPrefetchBatchAfterRelease(t *testing.T) {
	embLayouts(t, 4, func(name string, e *Emb) {
		p := prefetchAll(t, e, []int64{1, 2, 2, 3})
		p.Release()
		p.Release() // idempotent: the blocks go back once
		if rows, pos, err := p.Batch(); err == nil || len(rows.IDs) != 0 || pos != nil {
			t.Errorf("%s: Batch after Release returned %d rows, err %v", name, len(rows.IDs), err)
		}
		if n := len(e.free); n != 1 {
			t.Errorf("%s: %d blocks on the free list after one prefetch released twice", name, n)
		}
	})
}

// TestPrefetchBatchHasTheWidthItWasSizedWith: a handle that outlived its
// model — deleted and created again under the same name with wider rows —
// sizes its prefetch by the layout the client holds now, and Batch reports
// that width, not the handle's: Row(i) must be row i of the block.
func TestPrefetchBatchHasTheWidthItWasSizedWith(t *testing.T) {
	_, cl := newTestCluster(t, 2)
	stale, err := cl.CreateEmbedding(EmbeddingSpec{Name: "e", Dim: 4, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteModel("e"); err != nil {
		t.Fatal(err)
	}
	fresh, err := cl.CreateEmbedding(EmbeddingSpec{Name: "e", Dim: 6, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.PushSet(map[int64][]float64{7: {1, 2, 3, 4, 5, 6}, 9: {9, 9, 9, 9, 9, 9}}); err != nil {
		t.Fatal(err)
	}
	rows, _, err := prefetchAll(t, stale, []int64{7, 9}).Batch()
	if err != nil {
		t.Fatal(err)
	}
	if rows.Dim != 6 || len(rows.Data) != 2*rows.Dim || rows.Row(1)[0] != 9 || rows.Row(0)[5] != 6 {
		t.Fatalf("batch of width %d over %d values: %v", rows.Dim, len(rows.Data), rows.Data)
	}
}

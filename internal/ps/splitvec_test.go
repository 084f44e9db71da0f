package ps

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestSplitVecWindowsMatchCopies: ascending indices route as windows of
// the caller's slice that hold, per partition, exactly the ids and
// positions the copying buckets hold — over a layout whose partitions are unequal
// after a split, with duplicates and ids outside [0, Size) clamped into
// the edge partitions; a one-partition layout takes the whole input as one
// window and an unsorted list is still copied. Each bucket's frame is its
// VecPull request. A window costs no allocation beyond the bucket table,
// and Pull answers the same either way.
func TestSplitVecWindowsMatchCopies(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	const size = 1000
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "w", Size: size, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SplitPartition("w", 0, ""); err != nil {
		t.Fatal(err)
	}
	split, _ := c.NewClient().GetModel("w")
	one := layout(ModelMeta{Name: "one", Kind: DenseVector, Size: size}, []string{"s0"})
	if len(split.Parts) != 3 || len(one.Parts) != 1 {
		t.Fatalf("%d and %d partitions, want 3 and 1", len(split.Parts), len(one.Parts))
	}
	rng := rand.New(rand.NewSource(1))
	ascending := []int64{-7, -1, 0, 0, 1, 249, 250, 250, 499, 500, 501, 999, 999, 1000, 5000}
	for range 300 {
		ascending = append(ascending, rng.Int63n(size+40)-20)
	}
	slices.Sort(ascending)
	for name, meta := range map[string]ModelMeta{"split": split, "one-partition": one} {
		ident := make([]int32, len(ascending))
		for i := range ident {
			ident[i] = int32(i)
		}
		// A non-nil pos forces the copying path.
		pullWin, pullCopy := splitVec(&meta, vecWork{rowWork: rowWork{ids: ascending}}), splitVec(&meta, vecWork{rowWork: rowWork{ids: ascending, pos: ident}})
		for p := range meta.Parts {
			win, cp := pullWin[p], pullCopy[p]
			if !slices.Equal(win.ids, cp.ids) || win.pos != nil {
				t.Fatalf("%s partition %d: window %v, copy %v", name, p, win.ids, cp.ids)
			}
			for j, pos := range cp.pos {
				if win.lo+j != int(pos) {
					t.Fatalf("%s partition %d: window fills position %d, copy %d", name, p, win.lo+j, pos)
				}
			}
			for _, id := range win.ids {
				if meta.PartitionFor(id) != p {
					t.Fatalf("%s: id %d in window %d, PartitionFor says %d", name, id, p, meta.PartitionFor(id))
				}
			}
			var req pullReq
			f, fcp := win.frame(meta.Name, meta.Parts[p].Index, 0), cp.frame(meta.Name, meta.Parts[p].Index, 0)
			if err := dec(f, &req); err != nil || req.Model != meta.Name || req.Part != meta.Parts[p].Index || !slices.Equal(req.Keys, win.ids) || !bytes.Equal(f, fcp) {
				t.Fatalf("%s partition %d: frame decodes to %+v (%v), want the window's VecPull", name, p, req, err)
			}
		}
		if name == "one-partition" && len(pullWin[0].ids) != len(ascending) {
			t.Fatalf("one partition: window of %d ids, want all %d", len(pullWin[0].ids), len(ascending))
		}
		if allocs := testing.AllocsPerRun(50, func() { splitVec(&meta, vecWork{rowWork: rowWork{ids: ascending}}) }); allocs != 1 {
			t.Fatalf("%s: a windowed split allocates %v objects, want 1", name, allocs)
		}
	}

	unsorted := slices.Clone(ascending)
	rng.Shuffle(len(unsorted), func(i, j int) { unsorted[i], unsorted[j] = unsorted[j], unsorted[i] })
	for p, b := range splitVec(&split, vecWork{rowWork: rowWork{ids: unsorted}}) {
		if len(b.pos) != len(b.ids) {
			t.Fatalf("unsorted partition %d: %d ids with %d positions, want copied buckets", p, len(b.ids), len(b.pos))
		}
		for j, id := range b.ids {
			if unsorted[b.pos[j]] != id || split.PartitionFor(id) != p {
				t.Fatalf("unsorted partition %d: id %d at position %d", p, id, b.pos[j])
			}
		}
	}

	seed := make([]float64, size)
	for i := range seed {
		seed[i] = float64(3 * i)
	}
	if err := v.SetAll(seed); err != nil {
		t.Fatal(err)
	}
	var inDomain []int64
	for _, id := range ascending {
		if id >= 0 && id < size {
			inDomain = append(inDomain, id)
		}
	}
	shuffled := slices.Clone(inDomain)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, ids := range [][]int64{inDomain, shuffled} {
		got, err := v.Pull(ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if got[i] != seed[id] {
				t.Fatalf("Pull[%d] (id %d) = %v, want %v", i, id, got[i], seed[id])
			}
		}
	}
}

// TestSplitVecWindowPullRacesMove: pulls of ascending ids keep every
// value in its position when a window is re-split at an offset — a stale
// client pulls across a split of the upper partition — and while
// partitions move between servers and split under them mid-pull.
func TestSplitVecWindowPullRacesMove(t *testing.T) {
	c, cl := newTestCluster(t, 3)
	const size = 3000
	v, err := cl.CreateDenseVector(DenseVectorSpec{Name: "r", Size: size, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]float64, size)
	ids := make([]int64, 0, size/3)
	for i := range seed {
		seed[i] = float64(i) + 0.25
		if i%3 == 1 {
			ids = append(ids, int64(i))
		}
	}
	if err := v.SetAll(seed); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []float64, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if got[i] != seed[id] {
				t.Fatalf("%s: position %d (id %d) = %v, want %v", what, i, id, got[i], seed[id])
			}
		}
	}
	stale, _ := c.NewClient().Vector("r")
	if err := cl.SplitPartition("r", v.Meta.Parts[2].Index, ""); err != nil {
		t.Fatal(err)
	}
	got, err := stale.Pull(ids)
	check("stale pull across the split", got, err)

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for round := 0; round < 3; round++ {
			meta, _ := cl.GetModel("r")
			for _, p := range meta.Parts {
				if err := cl.MovePartition("r", p.Index, ""); err != nil {
					t.Errorf("move %d: %v", p.Index, err)
					return
				}
			}
			if round == 1 {
				if err := cl.SplitPartition("r", 0, ""); err != nil {
					t.Errorf("split: %v", err)
					return
				}
			}
		}
	}()
	for pulls := 0; ; pulls++ {
		select {
		case <-done:
			wg.Wait()
			if pulls == 0 {
				t.Fatal("no pull raced the moves")
			}
			return
		default:
		}
		got, err := v.Pull(ids)
		check("pull racing the moves", got, err)
	}
}

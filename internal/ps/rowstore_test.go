package ps

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// rowStoreRef drives a rowStore and a plain map through the same op
// stream and checks they agree: the differential harness shared by the
// randomised test and the fuzz target.
type rowStoreRef struct {
	t     *testing.T
	st    rowStore
	ref   map[int64][]float64
	width int
}

func newRowStoreRef(t *testing.T, width int) *rowStoreRef {
	return &rowStoreRef{t: t, st: newRowStore(width), ref: make(map[int64][]float64), width: width}
}

// put inserts id when absent (filling the new row from val) and checks
// the row against the reference either way.
func (h *rowStoreRef) put(id int64, val float64) {
	ord, added := h.st.put(id)
	row := h.st.row(ord)
	want, had := h.ref[id]
	if added == had {
		h.t.Fatalf("put(%d): added=%v, reference had=%v", id, added, had)
	}
	if added {
		want = make([]float64, h.width)
		for j := range want {
			if row[j] != 0 {
				h.t.Fatalf("put(%d): fresh row not zero: %v", id, row)
			}
			want[j] = val + float64(j)
		}
		copy(row, want)
		h.ref[id] = want
	}
	h.same(id, row, want)
}

// add mutates id's row in both stores when it exists.
func (h *rowStoreRef) add(id int64, val float64) {
	row := h.st.get(id)
	want, had := h.ref[id]
	if (row != nil) != had && h.width > 0 {
		h.t.Fatalf("get(%d) = %v, reference had=%v", id, row, had)
	}
	for j := range row {
		row[j] += val
		want[j] += val
	}
}

func (h *rowStoreRef) same(id int64, got, want []float64) {
	if len(got) != len(want) {
		h.t.Fatalf("row %d: width %d, want %d", id, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			h.t.Fatalf("row %d: %v, want %v", id, got, want)
		}
	}
}

// split keeps the ids below mid, as splitAt does.
func (h *rowStoreRef) split(mid int64) {
	h.st.keepOnly(func(id int64) bool { return id < mid })
	for id := range h.ref {
		if id >= mid {
			delete(h.ref, id)
		}
	}
}

// check compares the whole contents, through lookup and through the
// ordinal iteration snapshot uses.
func (h *rowStoreRef) check() {
	if h.st.len() != len(h.ref) {
		h.t.Fatalf("len = %d, want %d", h.st.len(), len(h.ref))
	}
	if 2*h.st.len() > len(h.st.tab.slot) {
		h.t.Fatalf("load %d/%d above 1/2", h.st.len(), len(h.st.tab.slot))
	}
	for id, want := range h.ref {
		got := h.st.get(id)
		if got == nil && h.width > 0 {
			h.t.Fatalf("id %d lost", id)
		}
		h.same(id, got, want)
	}
	for ord, id := range h.st.ids {
		h.same(id, h.st.row(uint32(ord)), h.ref[id])
	}
}

func TestRowStoreDifferential(t *testing.T) {
	for _, width := range []int{1, 3, 16} {
		h := newRowStoreRef(t, width)
		rng := rand.New(rand.NewSource(int64(width)))
		maxLen := 0
		for op := 0; op < 30000; op++ {
			if op%5000 == 4999 {
				maxLen = max(maxLen, h.st.len())
				h.split(2000 + rng.Int63n(2000))
				h.check()
			}
			// Small, clustered and huge ids: dense probe chains and the
			// full hash range.
			id := rng.Int63n(4000)
			switch rng.Intn(8) {
			case 0:
				id = rng.Int63()
			case 1:
				id = -id
			}
			if rng.Intn(5) < 3 {
				h.put(id, rng.Float64())
			} else {
				h.add(id, rng.Float64())
			}
		}
		h.check()
		if maxLen < 2*slabMaxRows {
			t.Fatalf("at most %d rows: the capped chunks were never reached", maxLen)
		}
	}
}

// TestRowStorePointerStability: a row slice taken early must still BE
// the live row after 100k further inserts grew the table many times and
// appended many chunks — the guarantee the LINE kernels rest on.
func TestRowStorePointerStability(t *testing.T) {
	st := newRowStore(4)
	ord, _ := st.put(42)
	held := st.row(ord)
	held[0] = 1
	hm := st.moment(&st.mom, ord)
	for id := int64(1000); id < 101000; id++ {
		o, _ := st.put(id)
		st.row(o)[1] = float64(id)
	}
	held[2] = 3
	hm[3] = 4
	live := st.get(42)
	if &live[0] != &held[0] || live[0] != 1 || live[2] != 3 {
		t.Fatalf("row moved: held %v, live %v", held, live)
	}
	if m := st.momentIfSet(st.mom, ord); m == nil || &m[0] != &hm[0] || m[3] != 4 {
		t.Fatalf("moment row moved: held %v, live %v", hm, m)
	}

	// The same through the batch accessor, inside ONE batch: 42 is resolved,
	// then 100k absent ids materialise around it (every shard's table doubles
	// and grows chunks many times over), then 42 again.
	view := resolveEngine(t, 4)
	col := []int64{42, 42}
	for id := int64(1000); id < 101000; id++ {
		col = append(col, id)
	}
	col = append(col, 42)
	rows := view.Lock()
	got := rows.Rows(nil, col)
	rows.Unlock()
	if last := got[len(got)-1]; &got[0][0] != &last[0] || &got[1][0] != &last[0] {
		t.Fatal("the row of 42 moved while its batch materialised 100k others")
	}
	if live := view.Row(42); &live[0] != &got[0][0] {
		t.Fatal("a resolved row is not the live row")
	}
}

// resolveEngine is one embedding partition of the given width behind a
// PartView. Two of them hold the same rows: a row's initial value is a
// function of the model, its id and the element.
func resolveEngine(t testing.TB, width int) *PartView {
	t.Helper()
	eng, err := newEngine(ModelMeta{Name: "e", Kind: Embedding, Dim: width, InitScale: 0.1, Parts: []Partition{{}}}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &PartView{eng: eng}
}

// checkResolve holds LockedRows.Rows to the per-id path: columns resolved
// in one batch each on one engine, the same ids looked up one PartView.Row
// at a time, in column order, on its twin. Every resolved row must be the
// live row of its id — so equal ids, within a column or across columns (a
// first-order U == V), share one slice — and hold the twin's values.
func checkResolve(t *testing.T, cols ...[]int64) {
	t.Helper()
	batch, perID := resolveEngine(t, 3), resolveEngine(t, 3)
	rows := batch.Lock()
	got := make([][][]float64, len(cols))
	for c, ids := range cols {
		got[c] = rows.Rows(nil, ids)
		if len(got[c]) != len(ids) {
			t.Fatalf("column %d: %d rows for %d ids", c, len(got[c]), len(ids))
		}
	}
	rows.Unlock()
	for c, ids := range cols {
		for i, id := range ids {
			want, live := perID.Row(id), batch.Row(id)
			if len(got[c][i]) != 3 || &got[c][i][0] != &live[0] {
				t.Fatalf("column %d, position %d: not the live row of id %d", c, i, id)
			}
			for j := range want {
				if got[c][i][j] != want[j] {
					t.Fatalf("column %d, position %d (id %d): %v, the per-id path has %v", c, i, id, got[c][i], want)
				}
			}
		}
	}
}

// TestRowsResolveMatchesPerID: the batch accessor against the per-id path
// on columns with runs, ids that recur across runs, ids that materialise
// mid-batch, both columns of a first-order pair list on one partition, and
// the empty and one-id columns; then a reused dst of either size.
func TestRowsResolveMatchesPerID(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	column := func(n, maxRun int, ids int64) (col []int64) {
		for len(col) < n {
			id := rng.Int63n(ids)
			if rng.Intn(4) == 0 {
				id = rng.Int63() - 1<<62
			}
			for k := 1 + rng.Intn(maxRun); k > 0; k-- {
				col = append(col, id)
			}
		}
		return col
	}
	checkResolve(t, column(3000, 6, 100))                       // runs, and every id recurs in later runs
	checkResolve(t, column(3000, 1, 1<<20))                     // no runs; nearly every id absent
	checkResolve(t, column(2000, 6, 300), column(2000, 3, 300)) // U then V on one partition
	checkResolve(t, []int64{5, 5, 5, 9, 9, 5}, []int64{5, 9, 5, 9, 5, 5})
	checkResolve(t, nil, []int64{}, []int64{7}, []int64{7, 7}, []int64{-7})

	view := resolveEngine(t, 3)
	rows := view.Lock()
	defer rows.Unlock()
	big := rows.Rows(nil, column(500, 6, 50))
	small := rows.Rows(big, []int64{1, 2})
	if len(small) != 2 || &small[0] != &big[0] {
		t.Fatal("a dst that is big enough was not reused")
	}
	if grown := rows.Rows(small[:1:1], []int64{3, 1, 1}); len(grown) != 3 || &grown[1][0] != &small[0][0] || &grown[2][0] != &small[0][0] {
		t.Fatal("a dst that is too small: wrong rows")
	}
}

func TestRowStoreChunkOf(t *testing.T) {
	var next uint32
	for c := 0; c < slabDoubles+3; c++ {
		for off := 0; off < chunkRows(c); off++ {
			if gc, goff := chunkOf(next); gc != c || goff != off {
				t.Fatalf("chunkOf(%d) = (%d, %d), want (%d, %d)", next, gc, goff, c, off)
			}
			next++
		}
	}
}

// TestRowStoreMoments: moment rows read as unset until written, come
// back by ordinal, and follow their row through a rebuild.
func TestRowStoreMoments(t *testing.T) {
	st := newRowStore(2)
	for id := int64(0); id < 100; id++ {
		st.put(id)
	}
	if st.mom != nil || st.vel != nil {
		t.Fatal("moment slabs allocated without a gradient")
	}
	ord, _ := st.put(70)
	st.moment(&st.vel, ord)[1] = 9
	if st.momentIfSet(st.vel, ord) == nil {
		t.Fatal("written moment reads as unset")
	}
	if o, _ := st.put(71); st.momentIfSet(st.vel, o) != nil {
		t.Fatal("untouched moment of an allocated chunk reads as set")
	}
	if o, _ := st.put(3); st.momentIfSet(st.vel, o) != nil || st.momentIfSet(st.mom, ord) != nil {
		t.Fatal("moment of an unallocated chunk reads as set")
	}
	st.keepOnly(func(id int64) bool { return id >= 60 })
	ord, added := st.put(70)
	if v := st.momentIfSet(st.vel, ord); added || v == nil || v[1] != 9 {
		t.Fatalf("moment lost in rebuild: %v", v)
	}
	if st.mom != nil {
		t.Fatal("rebuild allocated a moment slab nobody wrote")
	}
}

// FuzzRowStore replays an op stream, 9 bytes per op, against the map
// reference, and resolves the ops' ids as a column (and its second half as
// another, on the same partition) against the per-id path.
func FuzzRowStore(f *testing.F) {
	op := func(kind byte, id uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{kind}, id)
	}
	var grow, collide []byte
	for i := uint64(0); i < 600; i++ {
		grow = append(grow, op(0, i)...)
		collide = append(collide, op(0, i<<58)...) // equal low bits, few distinct top bits
	}
	f.Add(grow)
	f.Add(append(collide, op(7, 1<<60)...))
	f.Add(append(append(op(0, 5), op(4, 5)...), op(7, 3)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newRowStoreRef(t, 2)
		var col []int64 // the ops' ids as one column: the batch resolve's input
		for ; len(data) >= 9; data = data[9:] {
			id := int64(binary.LittleEndian.Uint64(data[1:]))
			col = append(col, id)
			switch data[0] % 8 {
			case 0, 1, 2, 3:
				h.put(id, float64(data[0]))
			case 4, 5, 6:
				h.add(id, float64(data[0]))
			case 7:
				h.split(id)
			}
		}
		h.check()
		checkResolve(t, col, col[len(col)/2:])
	})
}

// BenchmarkEmbLookup is the engine's row lookup as the psFunc kernels see
// it: every shard locked, two 16-wide partitions of two models with 16,384
// materialised rows each (8 MB of rows and tables, past L2), and the U and V
// columns of 64 LINE batches resolved in turn, as a server that holds both
// partitions sees them. One op is one call's two columns.
func BenchmarkEmbLookup(b *testing.B) {
	us, vs := lineColumns(64)
	all := make([]int64, 1<<14)
	for i := range all {
		all[i] = int64(i)
	}
	var emb, ctx [2]LockedRows
	for p := range emb {
		emb[p], ctx[p] = resolveEngine(b, 16).Lock(), resolveEngine(b, 16).Lock()
		emb[p].Rows(nil, all)
		ctx[p].Rows(nil, all)
	}
	var u, v [][]float64
	var sum float64
	for i := 0; b.Loop(); i++ {
		u, v = emb[i&1].Rows(u, us[i/2%len(us)]), ctx[i&1].Rows(v, vs[i/2%len(vs)])
		sum += u[0][0] + v[0][0]
	}
	if sum == 0 {
		b.Fatal("rows read as zero")
	}
}

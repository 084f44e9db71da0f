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
// reference.
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
		for ; len(data) >= 9; data = data[9:] {
			id := int64(binary.LittleEndian.Uint64(data[1:]))
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
	})
}

// BenchmarkEmbLookup is the engine's row lookup as the psFunc kernels see
// it: every shard locked, 16,384 materialised width-16 rows, random ids.
func BenchmarkEmbLookup(b *testing.B) {
	meta := ModelMeta{Name: "e", Kind: Embedding, Dim: 16, InitScale: 0.1, Parts: []Partition{{}}}
	eng, err := newEngine(meta, 0)
	if err != nil {
		b.Fatal(err)
	}
	rows := (&PartView{eng: eng}).Lock()
	defer rows.Unlock()
	rng := rand.New(rand.NewSource(1))
	ids := make([]int64, 4096)
	for id := int64(0); id < 16384; id++ {
		rows.Row(id)
	}
	for i := range ids {
		ids[i] = rng.Int63n(16384)
	}
	var sum float64
	for b.Loop() {
		for _, id := range ids {
			sum += rows.Row(id)[0]
		}
	}
	if sum == 0 {
		b.Fatal("rows read as zero")
	}
}

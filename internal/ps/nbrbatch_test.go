package ps

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// checkNbrBatch reports offsets that do not start at 0, rise monotonically
// and end at len(Adj) — what every decoded batch must satisfy.
func checkNbrBatch(b NbrBatch) error {
	if len(b.Off) == 0 {
		if len(b.Adj) != 0 {
			return fmt.Errorf("%d neighbours for no vertices", len(b.Adj))
		}
		return nil
	}
	if b.Off[0] != 0 || int(b.Off[len(b.Off)-1]) != len(b.Adj) {
		return fmt.Errorf("offsets span [%d,%d) of %d neighbours", b.Off[0], b.Off[len(b.Off)-1], len(b.Adj))
	}
	for i := 1; i < len(b.Off); i++ {
		if b.Off[i] < b.Off[i-1] {
			return fmt.Errorf("offsets fall from %d to %d at vertex %d", b.Off[i-1], b.Off[i], i-1)
		}
	}
	return nil
}

// TestNbrPullFlatMatchesMap: the CSR pull, its map view and the adjacency
// that was pushed agree — on building and on sealed tables, over every
// partition, with repeated and unknown ids in the request, in request
// order; vertices without neighbours are empty segments and absent from
// the map.
func TestNbrPullFlatMatchesMap(t *testing.T) {
	c, cl := newTestCluster(t, 3)
	n, err := cl.CreateNeighbor("flat")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	pushed := make(map[int64][]int64)
	for v := int64(0); v < 80; v++ {
		for range rng.Intn(7) {
			pushed[v] = append(pushed[v], rng.Int63n(40)) // repeats on purpose
		}
	}
	pushed[200] = []int64{} // known to the table, no neighbours
	if err := n.Push(pushed); err != nil {
		t.Fatal(err)
	}
	ids := []int64{5, 5, 1 << 40, -3, 200}
	for v := int64(79); v >= 0; v-- {
		ids = append(ids, v)
	}
	ids = append(ids, 17, 5)
	hit := make(map[int]bool)
	for _, id := range ids {
		hit[n.Meta.PartitionFor(id)] = true
	}
	if len(hit) != len(n.Meta.Parts) {
		t.Fatalf("request reaches %d of %d partitions", len(hit), len(n.Meta.Parts))
	}
	check := func(state string, want func(id int64) []int64) {
		t.Helper()
		b, err := n.PullBatch(ids)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkNbrBatch(b); err != nil || b.Len() != len(ids) {
			t.Fatalf("%s: batch of %d segments for %d ids: %v", state, b.Len(), len(ids), err)
		}
		m, err := n.Pull(ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			w := want(id)
			if got := b.Nbrs(i); !slices.Equal(got, w) {
				t.Errorf("%s: segment %d (vertex %d) = %v, want %v", state, i, id, got, w)
			}
			if got, ok := m[id]; ok != (len(w) > 0) || !slices.Equal(got, w) {
				t.Errorf("%s: map view of vertex %d = %v (present %v), want %v", state, id, got, ok, w)
			}
		}
	}
	check("building", func(id int64) []int64 { return pushed[id] })
	for _, srv := range csrServers(c) {
		for _, p := range n.Meta.Parts {
			if view, err := storeOf(srv).Partition("flat", p.Index); err == nil {
				view.SealCSR()
			}
		}
	}
	check("sealed", func(id int64) []int64 {
		ns := slices.Clone(pushed[id])
		slices.Sort(ns)
		return slices.Compact(ns)
	})
}

// nbrSeeds are the replies the fuzz target starts from: empty, every
// vertex missing, one hub, one id asked for twice.
func nbrSeeds() []NbrBatch {
	hub := NbrBatch{Off: []int32{0, 0, 100, 100}, Adj: make([]int64, 100)}
	for i := range hub.Adj {
		hub.Adj[i] = int64(i * 3)
	}
	return []NbrBatch{
		{},
		{Off: []int32{0, 0, 0, 0}},
		hub,
		{Off: []int32{0, 3, 6}, Adj: []int64{4, 9, -2, 4, 9, -2}},
	}
}

// pullReply runs body through the client's decode target as PullBatch
// does, for a request of n ids whose segments land at rows pos (nil: in
// order): the degrees first, then the segments into their places.
func pullReply(body []byte, n int, pos []int32) (NbrBatch, error) {
	r := &nbrReply{model: "m", part: 4, work: rowWork{ids: make([]int64, n), pos: pos}}
	// nbrBatchOf hands the frame to the pool: give it a copy the caller
	// does not read again.
	if err := dec(slices.Clone(body), r); err != nil {
		return NbrBatch{}, err
	}
	return nbrBatchOf(n, []*nbrReply{r})
}

// TestNbrBatchDecodeRejects: a reply whose counts do not add up is an
// error before anything is allocated for it — never a panic, never a
// batch whose offsets run past its neighbours.
func TestNbrBatchDecodeRejects(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	good := enc(nbrPullResp{Nbrs: nbrSeeds()[3]})
	for name, body := range map[string][]byte{
		"vertex count past the message":    append([]byte{tagBin, msgNbrPullResp}, huge...),
		"degree past the message":          append(append([]byte{tagBin, msgNbrPullResp, 1}, huge...), 1),
		"neighbour count past the message": append([]byte{tagBin, msgNbrPullResp, 1, 2}, huge...),
		"degrees short of the neighbours":  {tagBin, msgNbrPullResp, 2, 1, 1, 4, 2, 2, 2},
		"degrees past the neighbours":      {tagBin, msgNbrPullResp, 1, 5, 2, 2},
		"a degree below zero":              {tagBin, msgNbrPullResp, 2, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 2, 2},
		"neighbours without vertices":      enc(nbrPullResp{Nbrs: NbrBatch{Adj: []int64{1}}}),
		// Two vertices of 1 and 2 neighbours: 4, then 9 and a varint cut short.
		"last segment past the message": {tagBin, msgNbrPullResp, 2, 1, 2, 4, 8, 18, 0x80, 0x80},
		"trailing bytes":                append(slices.Clone(good), 0),
	} {
		var resp nbrPullResp
		allocs := testing.AllocsPerRun(10, func() {
			if err := dec(body, &resp); err == nil {
				t.Errorf("%s: decoded %+v", name, resp)
			}
		})
		// The error value and its message; never a block sized by a prefix.
		if allocs > 12 {
			t.Errorf("%s: %v allocations on the reject path", name, allocs)
		}
		if n := len(body); n > 2 && body[2] < 0x80 {
			if nb, err := pullReply(body, int(body[2]), nil); err == nil {
				t.Errorf("%s: the client's target placed %+v", name, nb)
			}
		}
	}
	for cut := 2; cut < len(good); cut++ {
		if err := dec(good[:cut], &nbrPullResp{}); err == nil {
			t.Fatalf("a reply truncated to %d of %d bytes decoded", cut, len(good))
		}
		if _, err := pullReply(good[:cut], 2, nil); err == nil {
			t.Fatalf("the client's target placed a reply truncated to %d of %d bytes", cut, len(good))
		}
	}
	// The client's target also holds the reply to the request's size, and
	// reads no other format.
	for want, ok := range map[int]bool{1: false, 2: true, 3: false} {
		if _, err := pullReply(good, want, nil); (err == nil) != ok || (err != nil && !strings.Contains(err.Error(), "m/4")) {
			t.Errorf("reply of 2 segments for %d ids: err = %v", want, err)
		}
	}
	if _, err := pullReply(gobEra(t, nbrPullResp{Nbrs: nbrSeeds()[3]}), 2, nil); err == nil || !strings.Contains(err.Error(), "unknown wire format tag") {
		t.Errorf("0x00-tagged reply into the client's target: err = %v, want an unknown tag", err)
	}
}

// FuzzNbrBatchDecode: the neighbour-batch decoder never panics, allocates
// no more than the bytes it was given can describe, accepts only
// well-formed batches, and what it accepts survives a re-encode bit for
// bit. The seeds are in the segment-restart layout: each vertex's deltas
// start from zero.
func FuzzNbrBatchDecode(f *testing.F) {
	for _, nb := range nbrSeeds() {
		f.Add(enc(nbrPullResp{Nbrs: nb})[2:])
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		body := append([]byte{tagBin, msgNbrPullResp}, payload...)
		var got nbrPullResp
		if dec(body, &got) != nil {
			return
		}
		if err := checkNbrBatch(got.Nbrs); err != nil {
			t.Fatalf("decoder accepted a mis-shaped batch: %v", err)
		}
		if len(got.Nbrs.Off) > len(payload)+1 || len(got.Nbrs.Adj) > len(payload) {
			t.Fatalf("%d offsets and %d neighbours out of %d bytes", len(got.Nbrs.Off), len(got.Nbrs.Adj), len(payload))
		}
		var again nbrPullResp
		if err := dec(enc(got), &again); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !wireEq(reflect.ValueOf(got), reflect.ValueOf(again)) {
			t.Fatalf("round trip changed the batch:\n got %+v\nthen %+v", got, again)
		}
		// The client's target agrees with the plain decoder on anything
		// well-formed, given the segment count it asked for, with the
		// segments landing in reverse order.
		n := got.Nbrs.Len()
		pos := make([]int32, n)
		for j := range pos {
			pos[j] = int32(n - 1 - j)
		}
		placed, err := pullReply(body, n, pos)
		if err != nil {
			t.Fatalf("client target: %v", err)
		}
		for j := range n {
			if !slices.Equal(placed.Nbrs(n-1-j), got.Nbrs.Nbrs(j)) {
				t.Fatalf("client target: segment %d = %v, want %v", j, placed.Nbrs(n-1-j), got.Nbrs.Nbrs(j))
			}
		}
	})
}

// TestNbrPullBytesMatchEncoder: a sealed partition's reply, copied out of
// its segments, is byte for byte enc of the batch a reference builds from
// the pushed lists — after seal, after a split, after a merge into a sealed
// engine and after a checkpoint image restores it — for absent, repeated,
// neighbourless and negative ids.
func TestNbrPullBytesMatchEncoder(t *testing.T) {
	meta := oneServerMeta(ModelMeta{Name: "n", Kind: Neighbor})
	rng := rand.New(rand.NewSource(5))
	tables := func(lo, hi int64) map[int64][]int64 {
		m := make(map[int64][]int64)
		for v := lo; v < hi; v++ {
			for range rng.Intn(9) {
				m[v] = append(m[v], rng.Int63n(1<<20)-1<<19) // repeats, negatives
			}
		}
		m[hi] = []int64{} // known, no neighbours
		m[-hi] = []int64{1 << 62, -1 << 62, 0, 1 << 62}
		return m
	}
	ref := make(map[int64][]int64)
	add := func(m map[int64][]int64) {
		for v, ns := range m {
			ref[v] = slices.Compact(slices.Sorted(slices.Values(append(slices.Clone(ref[v]), ns...))))
		}
	}
	newSealed := func(m map[int64][]int64) *nbrEngine {
		e, err := newEngine(meta, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ne := e.(*nbrEngine)
		if err := ne.push(nbrPushReq{Tables: m}); err != nil {
			t.Fatal(err)
		}
		ne.seal()
		return ne
	}
	keys := []int64{3, 3, 1 << 40, -7}
	for v := int64(-300); v <= 300; v++ {
		keys = append(keys, v, -v)
	}
	check := func(state string, e *nbrEngine, keys []int64) {
		t.Helper()
		want := NbrBatch{Off: []int32{0}, Adj: []int64{}}
		for _, id := range keys {
			want.Adj = append(want.Adj, ref[id]...)
			want.Off = append(want.Off, int32(len(want.Adj)))
		}
		got, err := e.pull(pullReq{Keys: keys})
		if err != nil {
			t.Fatalf("%s: %v", state, err)
		}
		if w := enc(nbrPullResp{Nbrs: want}); !slices.Equal(got, w) {
			t.Fatalf("%s: reply\n%x\nwant\n%x", state, got, w)
		}
	}

	first := tables(0, 200)
	add(first)
	e := newSealed(first)
	check("sealed", e, keys)

	second := tables(150, 300)
	add(second)
	if err := e.merge(exportAll(newSealed(second))); err != nil {
		t.Fatal(err)
	}
	check("merged into a sealed engine", e, keys)

	restored, err := engineFromImage(meta, 0, func() partImage {
		var img partImage
		if err := dec(enc(exportAll(e)), &img); err != nil {
			t.Fatal(err)
		}
		return img
	}(), 0)
	if err != nil {
		t.Fatal(err)
	}
	check("restored from its image", restored.(*nbrEngine), keys)

	mid := meta.routeSpan() / 2
	var kept []int64
	for _, id := range keys {
		if e.keepOnSplit(id, mid) {
			kept = append(kept, id)
		}
	}
	if len(kept) == 0 || len(kept) == len(keys) {
		t.Fatalf("the split keeps %d of %d keys", len(kept), len(keys))
	}
	if err := e.splitAt(mid); err != nil {
		t.Fatal(err)
	}
	check("split", e, kept)
}

// BenchmarkNbrPull: one neighbour pull end to end, in-proc — request
// encode, the sealed partitions copying segments into their reply frames,
// the client decoding every reply into the request-ordered batch — at
// GraphSage's hop-2 shape: 2,560 ids of ~17 neighbours over 4 partitions.
func BenchmarkNbrPull(b *testing.B) {
	c, err := NewCluster(ClusterConfig{NumServers: 2, NamePrefix: "bn" + b.Name()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	cl := c.NewClient()
	meta, err := cl.CreateModel(ModelMeta{Name: "adj", Kind: Neighbor, NumPartitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	n := &Nbr{c: cl, Meta: meta}
	const vertices = 12_000
	rng := rand.New(rand.NewSource(1))
	tables := make(map[int64][]int64, vertices)
	for v := int64(0); v < vertices; v++ {
		for range 10 + rng.Intn(15) {
			tables[v] = append(tables[v], rng.Int63n(vertices))
		}
	}
	if err := n.Push(tables); err != nil {
		b.Fatal(err)
	}
	for _, srv := range csrServers(c) {
		for _, p := range meta.Parts {
			if view, err := storeOf(srv).Partition("adj", p.Index); err == nil {
				view.SealCSR()
			}
		}
	}
	ids := make([]int64, 2560)
	for i := range ids {
		ids[i] = rng.Int63n(vertices)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := n.PullBatch(ids); err != nil {
			b.Fatal(err)
		}
	}
}

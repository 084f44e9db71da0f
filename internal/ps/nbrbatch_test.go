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
		"degrees past the neighbours":      enc(nbrPullResp{Nbrs: NbrBatch{Off: []int32{0, 5}, Adj: []int64{1}}}),
		"offsets that fall":                enc(nbrPullResp{Nbrs: NbrBatch{Off: []int32{0, 2, 1}, Adj: []int64{1}}}),
		"neighbours without vertices":      enc(nbrPullResp{Nbrs: NbrBatch{Adj: []int64{1}}}),
		"trailing bytes":                   append(slices.Clone(good), 0),
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
	}
	for cut := 2; cut < len(good); cut++ {
		if err := dec(good[:cut], &nbrPullResp{}); err == nil {
			t.Fatalf("a reply truncated to %d of %d bytes decoded", cut, len(good))
		}
	}
	// The client's target also holds the reply to the request's size, and
	// reads no other format.
	for want, ok := range map[int]bool{1: false, 2: true, 3: false} {
		r := nbrReply{model: "m", part: 4, want: want}
		if err := dec(good, &r); (err == nil) != ok || (err != nil && !strings.Contains(err.Error(), "m/4")) {
			t.Errorf("reply of 2 segments for %d ids: err = %v", want, err)
		}
	}
	if err := dec(gobEra(t, nbrPullResp{Nbrs: nbrSeeds()[3]}), &nbrReply{want: 2}); err == nil || !strings.Contains(err.Error(), "unknown wire format tag") {
		t.Errorf("0x00-tagged reply into the client's target: err = %v, want an unknown tag", err)
	}
}

// FuzzNbrBatchDecode: the neighbour-batch decoder never panics, allocates
// no more than the bytes it was given can describe, accepts only
// well-formed batches, and what it accepts survives a re-encode bit for bit.
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
		// well-formed, given the segment count it asked for.
		r := nbrReply{want: got.Nbrs.Len()}
		if err := dec(body, &r); err != nil || !wireEq(reflect.ValueOf(r.nbrs), reflect.ValueOf(got.Nbrs)) {
			t.Fatalf("client target: %v\n got %+v\nwant %+v", err, r.nbrs, got.Nbrs)
		}
	})
}

package ps

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"psgraph/internal/rpc"
)

// mustRows lays a row map out as a batch for tests that hand engines and
// coalescers literal rows.
func mustRows(m map[int64][]float64, dim int) RowBatch {
	b, err := rowBatchOf(m, dim)
	if err != nil {
		panic(err)
	}
	return b
}

// servePullResp is the reply to ServePull / ServeHotPull taken whole, as a
// batch (embPullResp is EmbPull's). Only tests take it whole: the server
// writes the frame and the client scatters it (rowScatter), so neither
// side ever holds one. embPushReq is the same for an EmbPush request, one
// partition's rows as a batch of their own: the client writes the frame
// from the caller's batch (pushFrame) and the engine applies it from there
// (embPush).
type (
	servePullResp struct{ Rows RowBatch }
	embPushReq    struct {
		Model     string
		Part      int
		Rows      RowBatch
		Grad, Set bool
	}
)

// serveParts is the reply to a ServePull of several parts taken whole: the
// parts' batches back to back.
type serveParts []RowBatch

func (m *servePullResp) wireMsg() byte { return msgServePullResp }
func (m *embPushReq) wireMsg() byte    { return msgEmbPushReq }

func (m *embPushReq) decode(r wreader) (wreader, error) {
	m.Model, m.Part = r.addr()
	m.Rows = r.rowBatch()
	m.Grad, m.Set = r.bool(), r.bool()
	return r, nil
}

func (m *servePullResp) decode(r wreader) (wreader, error) {
	m.Rows = r.rowBatch()
	return r, nil
}

// encReply is enc for tests that hand-build a row message: a row-pull reply
// or a row push as enc wrote them before the engines and the client
// wrote the frames themselves (appendRowBatch behind the message id, and
// for a push behind the address and before the flags), anything else
// through enc.
func encReply(v any) []byte {
	switch m := v.(type) {
	case embPullResp:
		return appendRowBatch([]byte{tagBin, msgEmbPullResp}, m.Rows)
	case servePullResp:
		return appendRowBatch([]byte{tagBin, msgServePullResp}, m.Rows)
	case embPushReq:
		b := appendRowBatch(appendAddr([]byte{tagBin, msgEmbPushReq}, m.Model, m.Part), m.Rows)
		return appendBool(appendBool(b, m.Grad), m.Set)
	case serveParts:
		b := []byte{tagBin, msgServePullResp}
		for _, rows := range m {
			b = appendRowBatch(b, rows)
		}
		return b
	}
	return enc(v)
}

// pushReq applies req to e the way the EmbPush handler does: off its frame.
func pushReq(e *embEngine, req embPushReq) error {
	var p embPush
	if err := dec(encReply(req), &p); err != nil {
		return err
	}
	return e.push(p)
}

// onePart is the ServePull of one partition: what every serve read was
// before a request could carry several.
func onePart(model string, part int, epoch int64, ids []int64) servePullReq {
	return servePullReq{Model: model, SnapEpoch: epoch, Parts: []servePart{{Part: part, IDs: ids}}}
}

// pullCached is a pull through the row cache as an id → row map.
func pullCached(e *Emb, ids []int64) (map[int64][]float64, error) {
	rows, _, err := e.PrefetchRows(ids).Batch()
	if err != nil {
		return nil, err
	}
	return rows.Map(), nil
}

// pullRows pulls ids from an embedding engine and decodes the frame.
func pullRows(t testing.TB, e *embEngine, ids []int64) RowBatch {
	t.Helper()
	b, err := e.pull(pullReq{Keys: ids})
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	var r embPullResp
	if err := dec(b, &r); err != nil {
		t.Fatalf("decode pulled frame: %v", err)
	}
	return r.Rows
}

func TestDedupIDs(t *testing.T) {
	uniq, pos := dedupIDs([]int64{7, 7, 7, 9, 3, 9, 7})
	if !reflect.DeepEqual(uniq, []int64{7, 9, 3}) || !reflect.DeepEqual(pos, []int32{0, 0, 0, 1, 2, 1, 0}) {
		t.Fatalf("dedupIDs = %v, %v", uniq, pos)
	}
	if uniq, pos := dedupIDs(nil); len(uniq) != 0 || len(pos) != 0 {
		t.Fatalf("dedupIDs(nil) = %v, %v", uniq, pos)
	}
}

// hotWire is the zero request and response of every method the guard
// below calls hot. A new data-plane or serve-read method must be added
// here — and to wireIDs — before TestHotMethodsAreBinary passes. The
// row pulls answer with a frame the handler wrote itself, and the row push
// asks with one the client wrote itself (encoded).
var hotWire = map[string][2]any{
	"VecPull":      {pullReq{}, vecPullResp{}},
	"VecPush":      {vecPushReq{}, nil},
	"EmbPull":      {pullReq{}, encoded{tagBin}},
	"EmbPush":      {encoded{tagBin}, nil},
	"NbrPull":      {pullReq{}, nbrPullResp{}},
	"NbrPush":      {nbrPushReq{}, nil},
	"Func":         {funcReq{}, funcResp{}},
	"ServePull":    {servePullReq{}, encoded{tagBin}},
	"ServeHotPull": {serveHotPullReq{}, encoded{tagBin}},
}

// TestHotMethodsAreBinary: no data-plane or serve-read message can fall
// back to gob unnoticed. ServePull and ServeHotPull did, for as long as
// the serving tier existed: a fresh gob encoder and a freshly compiled
// decoder on both ends of every read.
func TestHotMethodsAreBinary(t *testing.T) {
	hot := 0
	for method := range serverHandlers {
		if !strings.HasSuffix(method, "Pull") && !strings.HasSuffix(method, "Push") && method != "Func" {
			continue
		}
		hot++
		msgs, ok := hotWire[method]
		if !ok {
			t.Errorf("%s is a data-plane method with no entry in hotWire", method)
			continue
		}
		for _, msg := range msgs {
			if msg == nil {
				continue // pushes answer with an empty body
			}
			if b := enc(msg); b[0] != tagBin {
				t.Errorf("%s: enc(%T) has tag 0x%02x, want tagBin", method, msg, b[0])
			}
		}
	}
	if hot != len(hotWire) {
		t.Errorf("serverHandlers has %d hot methods, hotWire lists %d", hot, len(hotWire))
	}
}

// rowBatchDecodeErrors (run by TestWireDecodeErrors): a truncated or
// mis-sized batch is an error, and a length prefix promising more than
// the bytes present is rejected before anything is allocated for it.
func rowBatchDecodeErrors(t *testing.T) {
	good := encReply(embPullResp{Rows: RowBatch{IDs: []int64{1, 2, 3}, Dim: 2, Data: []float64{1, 2, 3, 4, 5, 6}}})
	var resp embPullResp
	if err := dec(good, &resp); err != nil {
		t.Fatal(err)
	}
	for cut := 2; cut < len(good); cut++ {
		if err := dec(good[:cut], &resp); err == nil {
			t.Fatalf("batch truncated to %d of %d bytes decoded", cut, len(good))
		}
	}
	if err := dec(append(bytes.Clone(good), 0), &resp); err == nil {
		t.Error("trailing byte: want error")
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	for name, body := range map[string][]byte{
		"id count past the message":    append([]byte{tagBin, msgEmbPullResp}, huge...),
		"width past the message":       append([]byte{tagBin, msgEmbPullResp, 2, 2}, append(huge, 1)...),
		"value count past the message": append([]byte{tagBin, msgEmbPullResp, 2, 2, 1}, huge...),
		"fewer values than ids×width":  encReply(embPullResp{Rows: RowBatch{IDs: []int64{1, 2}, Dim: 2, Data: make([]float64, 3)}}),
		"more values than ids×width":   encReply(embPullResp{Rows: RowBatch{IDs: []int64{1}, Dim: 2, Data: make([]float64, 4)}}),
		"values without ids":           encReply(embPullResp{Rows: RowBatch{Dim: 1, Data: make([]float64, 1)}}),
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if err := dec(body, &resp); err == nil {
				t.Errorf("%s: decoded", name)
			}
		})
		// The error value and its message; never a block sized by the prefix.
		if allocs > 12 {
			t.Errorf("%s: %v allocations on the reject path", name, allocs)
		}
	}
	// The scatter target rejects the same shapes (the liar tests in
	// TestMisshapedReplyIsAnError) and a 0x00-tagged reply — an unknown tag
	// — without panicking.
	sc := &rowScatter{msg: msgEmbPullResp, model: "m", work: rowWork{ids: []int64{1}}, dst: make([]float64, 2), width: 2, strd: 2}
	if err := dec(gobEra(t, embPullResp{Rows: RowBatch{IDs: []int64{1}, Dim: 2, Data: []float64{1, 2}}}), sc); err == nil {
		t.Error("0x00-tagged reply into a scatter target: want error")
	}
	for cut := 2; cut < len(good); cut++ {
		sc := &rowScatter{msg: msgEmbPullResp, model: "m", work: rowWork{ids: []int64{1, 2, 3}}, dst: make([]float64, 6), width: 2, strd: 2}
		if err := dec(good[:cut], sc); err == nil {
			t.Fatalf("scatter of a reply truncated to %d of %d bytes succeeded", cut, len(good))
		}
	}
}

// FuzzRowBatchDecode: the batch decoder never panics, and what it accepts
// survives a re-encode bit for bit. The scatter target agrees with it on
// anything shaped like an answer to its own ids — and against a DIFFERENT
// request (one id changed, dropped or added at position at, chosen by mut;
// exact and partial forms) it returns an error or fills only requested
// rows with the reply's values, never touching the rest of the block.
// Every input is also a pushed batch (fuzzPush).
func FuzzRowBatchDecode(f *testing.F) {
	for _, msg := range rowReplies() {
		if _, push := msg.(embPushReq); push {
			continue
		}
		for _, mut := range []uint8{0, 1, 2, 8, 16} {
			f.Add(encReply(msg)[2:], mut, uint16(1))
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint8(0), uint16(0))
	f.Add([]byte{0, 0xf1, 0x90, 0xf0, 0x37, 0}, uint8(1), uint16(25)) // no rows, 116M wide
	// A batch fuzzPush's engines own every key of, one repeated: add, grad, set.
	owned := RowBatch{Dim: 3}
	for id := int64(0); len(owned.IDs) < 6; id++ {
		if routeBucket(id) < routeBuckets/2 {
			owned.IDs = append(owned.IDs, id)
			owned.Data = append(owned.Data, float64(id), -0.5, 1e-3)
		}
	}
	owned.IDs[5] = owned.IDs[0]
	for _, mut := range []uint8{0, 8, 16} {
		f.Add(appendRowBatch(nil, owned), mut, uint16(owned.IDs[0]))
	}
	f.Fuzz(func(t *testing.T, payload []byte, mut uint8, at uint16) {
		fuzzPush(t, payload, mut&8 != 0, mut&16 != 0, at)
		body := append([]byte{tagBin, msgEmbPullResp}, payload...)
		var got embPullResp
		if dec(body, &got) != nil {
			return
		}
		if err := got.Rows.check(); err != nil {
			t.Fatalf("decoder accepted a mis-shaped batch: %v", err)
		}
		var again embPullResp
		if err := dec(encReply(got), &again); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !wireEq(reflect.ValueOf(got), reflect.ValueOf(again)) {
			t.Fatalf("round trip changed the batch:\n got %+v\nthen %+v", got, again)
		}
		ids, dim := got.Rows.IDs, got.Rows.Dim
		sc := &rowScatter{msg: msgEmbPullResp, model: "f", work: rowWork{ids: ids},
			dst: make([]float64, len(got.Rows.Data)), width: dim, strd: dim}
		if err := dec(body, sc); err != nil {
			t.Fatalf("scatter rejected what the decoder accepted: %v", err)
		}
		for i, v := range got.Rows.Data {
			if math.Float64bits(v) != math.Float64bits(sc.dst[i]) {
				t.Fatalf("scatter value %d = %v, decoder %v", i, sc.dst[i], v)
			}
		}

		// Twice back to back it is a two-part ServePull reply: each part lands
		// in its own block, and a third copy behind them is an error.
		twice := append(append([]byte{tagBin, msgServePullResp}, payload...), payload...)
		two := serveReply{parts: []rowScatter{*sc, *sc}}
		for k := range two.parts {
			two.parts[k].msg, two.parts[k].part, two.parts[k].dst = msgServePullResp, k, make([]float64, len(sc.dst))
		}
		if err := dec(twice, &two); err != nil {
			t.Fatalf("the batch twice, as a two-part reply: %v", err)
		}
		for i, v := range sc.dst {
			if a, b := two.parts[0].dst[i], two.parts[1].dst[i]; math.Float64bits(a) != math.Float64bits(v) || math.Float64bits(b) != math.Float64bits(v) {
				t.Fatalf("two-part scatter value %d = %v and %v, decoder %v", i, a, b, v)
			}
		}
		if err := dec(append(twice, payload...), &two); err == nil || !strings.Contains(err.Error(), "f/1") {
			t.Fatalf("three batches into a two-part target: err = %v, want an error naming f/1", err)
		}

		// The same reply against a request that differs in one id. (An empty
		// batch may claim any width: a block that wide is not worth building.)
		if dim > 1<<12 {
			return
		}
		k := 0
		if len(ids) > 0 {
			k = int(at) % len(ids)
		}
		other := slices.Clone(ids)
		switch {
		case mut%3 == 0 && len(ids) > 0:
			other[k] ^= 1
		case mut%3 == 1 && len(ids) > 0:
			other = slices.Delete(other, k, k+1)
		default:
			other = slices.Insert(other, k, int64(at)-7)
		}
		const untouched = 0x7ff8dead00000001 // a NaN no reply carries by accident
		for _, partial := range []bool{false, true} {
			block := make([]float64, (len(other)+2)*dim)
			for i := range block {
				block[i] = math.Float64frombits(untouched)
			}
			sc := &rowScatter{msg: msgEmbPullResp, model: "f", work: rowWork{ids: other}, partial: partial,
				dst: block[dim : len(block)-dim : len(block)-dim], width: dim, strd: dim}
			err := dec(body, sc)
			if err == nil && !partial {
				t.Fatalf("exact scatter of ids %v accepted as an answer to %v", ids, other)
			}
			for i := 0; i < dim; i++ {
				if math.Float64bits(block[i]) != untouched || math.Float64bits(block[len(block)-1-i]) != untouched {
					t.Fatalf("scatter wrote outside its block (err %v)", err)
				}
			}
			if err != nil {
				continue
			}
			// Accepted: the reply's rows, in order, sit in the rows of the
			// request positions it did not skip; skipped rows are untouched.
			skipped := make(map[int]bool)
			for _, j := range sc.absent {
				skipped[j] = true
			}
			next := 0
			for j, id := range other {
				row := sc.dst[j*dim : (j+1)*dim]
				if skipped[j] {
					for _, v := range row {
						if math.Float64bits(v) != untouched {
							t.Fatalf("skipped request row %d was written: %v", j, row)
						}
					}
					continue
				}
				if next == len(ids) || ids[next] != id {
					t.Fatalf("request row %d (id %d) filled, but the reply's next id is not it: reply %v, request %v, skipped %v", j, id, ids, other, sc.absent)
				}
				for c, v := range row {
					if math.Float64bits(v) != math.Float64bits(got.Rows.Row(next)[c]) {
						t.Fatalf("request row %d = %v, reply row %d = %v", j, row, next, got.Rows.Row(next))
					}
				}
				next++
			}
			if next != len(ids) {
				t.Fatalf("accepted a reply of %d rows but filled %d", len(ids), next)
			}
		}
	})
}

// fuzzPush sends payload, as the batch of an EmbPush, down the frame-apply
// path — embPush off the frame, the engine applying the value bytes — and
// down the reference: the request decoded whole into a RowBatch and pushed
// row by row (refPush). Both take or reject it together, a rejected push
// leaves its engine bit for bit what it was, and after an accepted one the
// two engines are equal. The engines are as wide as the batch when that is
// a sane width, own half of the key space (so some batches hold a key that
// moved) and already hold rows with optimizer state.
func fuzzPush(t *testing.T, payload []byte, grad, set bool, at uint16) {
	body := appendAddr([]byte{tagBin, msgEmbPushReq}, "f", 0)
	body = appendBool(appendBool(append(body, payload...), grad), set)
	var ref embPushReq
	var p embPush
	refErr, err := dec(body, &ref), dec(body, &p)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("frame reader: %v, batch decoder: %v", err, refErr)
	}
	if err != nil {
		return
	}
	width := 3
	if d := ref.Rows.Dim; d > 0 && d <= 64 {
		width = d
	}
	meta := ModelMeta{Name: "f", Kind: Embedding, Dim: width, InitScale: 0.5, Opt: Adam(0.01), Parts: []Partition{{}}}
	var engs [2]*embEngine
	seed := RowBatch{IDs: []int64{1, int64(at), 1 << 33}, Dim: width, Data: make([]float64, 3*width)}
	for i := range seed.Data {
		seed.Data[i] = float64(i) - 1.5
	}
	for k := range engs {
		engs[k] = newEmbEngine(baseFor(meta, 0), meta.Parts[0], 0)
		if err := refPush(engs[k], embPushReq{Rows: seed, Grad: true}); err != nil {
			t.Fatal(err)
		}
		engs[k].narrowTo(routeBuckets / 2)
	}
	before := engineBytes(engs[0])
	refErr, err = refPush(engs[1], ref), engs[0].push(p)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("frame apply: %v, reference push: %v", err, refErr)
	}
	got, want := engineBytes(engs[0]), engineBytes(engs[1])
	if err != nil && !bytes.Equal(got, before) {
		t.Fatalf("a push rejected with %q changed the engine", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frame apply and reference push of %+v disagree:\n got %x\nwant %x", ref, got, want)
	}
}

// embLayouts runs f against a 4-partition hash model and a 4-partition
// column model of the same width on one cluster.
func embLayouts(t testing.TB, dim int, f func(name string, e *Emb)) (*Cluster, *Client) {
	c, err := NewCluster(ClusterConfig{NumServers: 2, NamePrefix: "rb" + t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := c.NewClient()
	for _, byCol := range []bool{false, true} {
		name := map[bool]string{false: "hash", true: "column"}[byCol]
		e, err := cl.CreateEmbedding(EmbeddingSpec{Name: name, Dim: dim, ByColumn: byCol, InitScale: 0.5, Partitions: 4})
		if err != nil {
			t.Fatal(err)
		}
		f(name, e)
	}
	return c, cl
}

// TestEmbPullMatchesPerIDReference: the map view of a batched pull —
// duplicates, unsorted ids and all — equals what pulling every id on its
// own returns, on both layouts, and the flat form maps every request
// position to its row.
func TestEmbPullMatchesPerIDReference(t *testing.T) {
	const dim = 6
	rng := rand.New(rand.NewSource(3))
	embLayouts(t, dim, func(name string, e *Emb) {
		set := make(map[int64][]float64)
		for i := 0; i < 40; i++ {
			row := make([]float64, dim)
			for c := range row {
				row[c] = rng.NormFloat64()
			}
			set[rng.Int63n(500)] = row
		}
		if err := e.PushSet(set); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 20; round++ {
			ids := make([]int64, rng.Intn(60))
			for i := range ids {
				ids[i] = rng.Int63n(500) // pushed rows and never-touched ones
				if i > 0 && rng.Intn(3) == 0 {
					ids[i] = ids[rng.Intn(i)]
				}
			}
			want := make(map[int64][]float64)
			for _, id := range ids {
				one, err := e.Pull([]int64{id})
				if err != nil {
					t.Fatal(err)
				}
				want[id] = one[id]
			}
			got, err := e.Pull(ids)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) == 0 {
				want = map[int64][]float64{}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Pull(%v)\n got %v\nwant %v", name, ids, got, want)
			}
			rows, pos, err := e.PullBatch(ids)
			if err != nil {
				t.Fatal(err)
			}
			if err := rows.check(); err != nil || rows.Dim != dim || len(pos) != len(ids) {
				t.Fatalf("%s: PullBatch shape: %v, dim %d, %d positions for %d ids", name, err, rows.Dim, len(pos), len(ids))
			}
			for i, id := range ids {
				if rows.IDs[pos[i]] != id || !reflect.DeepEqual(rows.Row(int(pos[i])), want[id]) {
					t.Fatalf("%s: position %d (id %d) maps to row %d = id %d %v", name, i, id, pos[i], rows.IDs[pos[i]], rows.Row(int(pos[i])))
				}
			}
			cached, err := pullCached(e, ids)
			if err != nil || !reflect.DeepEqual(cached, want) {
				t.Fatalf("%s: cached pull (%v) = %v, %v; want %v", name, ids, cached, err, want)
			}
		}
	})
}

// refPull is the embedding pull as it was before the engines wrote the
// frame themselves: rows copied, in request order, into a fresh block
// that the codec then encoded. TestEmbPullFrameMatchesEncode keeps it as
// the reference.
func refPull(e *embEngine, ids []int64) RowBatch {
	w := e.width()
	data := make([]float64, len(ids)*w)
	for j, id := range ids {
		copy(data[j*w:], liveRow(e, id))
	}
	return RowBatch{IDs: ids, Dim: w, Data: data}
}

// TestEmbPullFrameMatchesEncode: same bytes. For hash and column layouts,
// pushed rows, duplicates, rows the pull itself materialises, an empty key
// list and a nil one (every row held), the frame the EmbPull handler returns — and the one a
// frozen serving generation returns to ServePull — is byte for byte what
// encoding the pulled batch was.
func TestEmbPullFrameMatchesEncode(t *testing.T) {
	const dim = 5
	var models []string
	c, cl := embLayouts(t, dim, func(name string, e *Emb) {
		models = append(models, name)
		set := make(map[int64][]float64)
		for id := int64(0); id < 64; id += 3 {
			set[id] = []float64{float64(id), -1, 0.5, math.Inf(1), math.Copysign(0, -1)}
		}
		if err := e.PushSet(set); err != nil {
			t.Fatal(err)
		}
	})
	frames := 0
	for _, name := range models {
		meta, err := cl.GetModel(name)
		if err != nil {
			t.Fatal(err)
		}
		// Every request is cut from ids the partition owns: pushed ones,
		// repeats, and a fresh range nothing has touched yet.
		for round, p := range meta.Parts {
			srv := c.servers[p.Server]
			eng, err := getEngine[*embEngine](srv.store, name, p.Index)
			if err != nil {
				t.Fatal(err)
			}
			var owned []int64
			for id := int64(0); id < 400; id++ {
				if meta.Kind == ColumnEmbedding || meta.Parts[meta.PartitionFor(id)].Index == p.Index {
					owned = append(owned, id)
				}
			}
			fresh := owned[len(owned)-20+round:] // never pushed, never pulled
			for what, ids := range map[string][]int64{
				"pushed and lazy rows": owned[:30],
				"duplicates":           {owned[0], owned[5], owned[0], owned[0], owned[5]},
				"unmaterialised rows":  fresh,
				"empty":                {},
				"nil":                  nil,
			} {
				rows := ids
				if ids == nil { // every row the partition holds, in shard order
					for i := range eng.shards {
						rows = append(rows, eng.shards[i].store.ids...)
					}
				}
				got, err := srv.Handle("EmbPull", enc(pullReq{Model: name, Part: p.Index, Keys: ids}))
				if err != nil {
					t.Fatalf("%s/%d %s: %v", name, p.Index, what, err)
				}
				if want := encReply(embPullResp{Rows: refPull(eng, rows)}); !bytes.Equal(got, want) {
					t.Errorf("%s/%d %s: EmbPull frame\n got %x\nwant %x", name, p.Index, what, got, want)
				}
				frames++
			}
		}
		// A frozen generation answers ServePull with the same rows behind
		// its own message id.
		sl, err := cl.PublishSnapshot(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range sl.Meta.Parts {
			ids := []int64{3, 3, 399}
			if sl.Meta.Kind != ColumnEmbedding {
				ids = ids[:0]
				for id := int64(0); len(ids) < 3; id++ {
					if sl.Meta.Parts[sl.Meta.PartitionFor(id)].Index == p.Index {
						ids = append(ids, id, id)
					}
				}
			}
			eng, err := getEngine[*embEngine](c.servers[p.Server].store, name, p.Index)
			if err != nil {
				t.Fatal(err)
			}
			for _, ep := range sl.Replicas[p.Index] {
				got, err := c.servers[ep].Handle("ServePull", enc(onePart(name, p.Index, sl.SnapEpoch, ids)))
				if err != nil {
					t.Fatalf("%s/%d on %s: %v", name, p.Index, ep, err)
				}
				if want := encReply(servePullResp{Rows: refPull(eng, ids)}); !bytes.Equal(got, want) {
					t.Errorf("%s/%d on %s: ServePull frame\n got %x\nwant %x", name, p.Index, ep, got, want)
				}
				frames++
			}
		}
	}
	if frames < 2*4*5 {
		t.Fatalf("compared %d frames", frames)
	}
}

// TestServePullFrameMatchesParts: a ServePull of k parts is answered with
// the k single-part replies back to back behind one 2-byte header, and a
// single-part reply is byte for byte what encoding the pulled batch was
// before requests carried parts (refPull, and for a DenseVector its values
// as 1-wide rows) — on a hash, a column and a DenseVector model, at every
// endpoint, for every subset of the partitions it holds, with duplicates,
// rows the read itself materialises and a part with no ids.
func TestServePullFrameMatchesParts(t *testing.T) {
	c, cl := newTestCluster(t, 3)
	c.Master.SetServeOptions(ServeOptions{Replicas: 2, HotKeys: -1})
	const dim = 5
	for _, byCol := range []bool{false, true} {
		name := map[bool]string{false: "hash", true: "column"}[byCol]
		e, err := cl.CreateEmbedding(EmbeddingSpec{Name: name, Dim: dim, ByColumn: byCol, InitScale: 0.5, Partitions: 6})
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[int64][]float64)
		for id := int64(0); id < 96; id += 3 {
			set[id] = []float64{float64(id), -1, 0.5, math.Inf(1), math.Copysign(0, -1)}
		}
		if err := e.PushSet(set); err != nil {
			t.Fatal(err)
		}
	}
	vec, err := cl.CreateDenseVector(DenseVectorSpec{Name: "vector", Size: 600, Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := vec.PushSet([]int64{0, 150, 599}, []float64{1.5, math.NaN(), -2}); err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, name := range []string{"hash", "column", "vector"} {
		sl, err := cl.PublishSnapshot(name)
		if err != nil {
			t.Fatal(err)
		}
		// What each partition is asked: ids it owns, pushed and never touched,
		// one repeated; the fourth partition is asked for nothing.
		ask := make(map[int][]int64)
		for slot, p := range sl.Meta.Parts {
			var owned []int64
			for id := int64(0); id < 600 && len(owned) < 8; id++ {
				if sl.Meta.Kind == ColumnEmbedding || sl.Meta.PartitionFor(id) == slot {
					owned = append(owned, id)
				}
			}
			ask[p.Index] = append(owned, owned[0], 500+int64(slot))
			if sl.Meta.Kind != ColumnEmbedding {
				ask[p.Index] = append(owned, owned[0])
			}
			if slot == 3 {
				ask[p.Index] = []int64{}
			}
		}
		// parent is the reply to a one-part read as the parent commit wrote it.
		parent := func(p Partition, ids []int64) []byte {
			var rows RowBatch
			if sl.Meta.Kind == DenseVector {
				vals, err := vec.Pull(ids)
				if err != nil {
					t.Fatal(err)
				}
				rows = RowBatch{IDs: ids, Dim: 1, Data: vals}
			} else {
				eng, err := getEngine[*embEngine](c.servers[p.Server].store, name, p.Index)
				if err != nil {
					t.Fatal(err)
				}
				rows = refPull(eng, ids)
			}
			return encReply(servePullResp{Rows: rows})
		}
		for _, ep := range sl.Endpoints {
			var held []Partition
			for _, p := range sl.Meta.Parts {
				if slices.Contains(sl.Replicas[p.Index], ep) {
					held = append(held, p)
				}
			}
			if len(held) != 4 {
				t.Fatalf("%s: %s holds %d of 6 partitions, want 4", name, ep, len(held))
			}
			single := make(map[int][]byte)
			for _, p := range held {
				got, err := c.servers[ep].Handle("ServePull", enc(onePart(name, p.Index, sl.SnapEpoch, ask[p.Index])))
				if err != nil {
					t.Fatalf("%s/%d on %s: %v", name, p.Index, ep, err)
				}
				if want := parent(p, ask[p.Index]); !bytes.Equal(got, want) {
					t.Errorf("%s/%d on %s: one-part frame\n got %x\nwant %x", name, p.Index, ep, got, want)
				}
				single[p.Index] = got
				frames++
			}
			// Every non-empty subset of the held partitions, in an order that
			// is not the layout's.
			for mask := 1; mask < 1<<len(held); mask++ {
				req := servePullReq{Model: name, SnapEpoch: sl.SnapEpoch}
				want := []byte{tagBin, msgServePullResp}
				for k := len(held) - 1; k >= 0; k-- {
					if mask&(1<<k) == 0 {
						continue
					}
					p := held[k]
					req.Parts = append(req.Parts, servePart{Part: p.Index, IDs: ask[p.Index]})
					want = append(want, single[p.Index][2:]...)
				}
				got, err := c.Transport.Call(ep, "ServePull", enc(req))
				if err != nil {
					t.Fatalf("%s on %s, parts %v: %v", name, ep, req.Parts, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s on %s, parts %v:\n got %x\nwant %x", name, ep, req.Parts, got, want)
				}
				frames++
			}
		}
	}
	if frames != 3*3*(4+15) {
		t.Fatalf("compared %d frames", frames)
	}
}

// TestPullIntoMatchesPullBatch: same rows. PullInto is positional — row i
// of the block is the row of ids[i], a repeated id once per occurrence —
// and equals PullBatch's rows taken through pos, with ids spanning every
// partition, while other goroutines push into neighbouring rows and pull
// the same never-touched ids for the first time. Run with -race (CI does).
func TestPullIntoMatchesPullBatch(t *testing.T) {
	const dim = 6
	rng := rand.New(rand.NewSource(11))
	embLayouts(t, dim, func(name string, e *Emb) {
		ids := make([]int64, 300)
		for i := range ids {
			ids[i] = 1000 + rng.Int63n(200) // repeats, every partition, nothing materialised yet
		}
		stop := make(chan struct{})
		var pushers sync.WaitGroup
		for g := 0; g < 2; g++ {
			pushers.Add(1)
			go func(g int) {
				defer pushers.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					// Rows the pulls never ask for, in the same shards.
					b := RowBatch{IDs: []int64{int64(i % 900), int64(2000 + i%50)}, Dim: dim, Data: make([]float64, 2*dim)}
					if err := e.PushAddBatch(b); err != nil {
						t.Errorf("%s: push: %v", name, err)
						return
					}
				}
			}(g)
		}
		blocks := make([][]float64, 4)
		var pullers sync.WaitGroup
		for g := range blocks {
			pullers.Add(1)
			go func(g int) {
				defer pullers.Done()
				blocks[g] = make([]float64, len(ids)*dim)
				for i := range blocks[g] {
					blocks[g][i] = math.NaN() // PullInto must overwrite every value
				}
				if err := e.PullInto(ids, blocks[g]); err != nil {
					t.Errorf("%s: PullInto: %v", name, err)
				}
			}(g)
		}
		pullers.Wait()
		close(stop)
		pushers.Wait()
		rows, pos, err := e.PullBatch(ids)
		if err != nil {
			t.Fatal(err)
		}
		for g, block := range blocks {
			for i, id := range ids {
				if got, want := block[i*dim:(i+1)*dim], rows.Row(int(pos[i])); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: puller %d, position %d (id %d): PullInto row %v, PullBatch row %v", name, g, i, id, got, want)
				}
			}
		}
		if err := e.PullInto(ids, make([]float64, len(ids)*dim-1)); err == nil {
			t.Errorf("%s: PullInto into a short block: want error", name)
		}
		if err := e.PullInto(nil, nil); err != nil {
			t.Errorf("%s: PullInto of nothing: %v", name, err)
		}
	})
}

// TestPullCountsSurviveTheMove: the pull counts live beside the rows, so N
// pulls of an id report N from hotTop — on a live engine, across a split
// (keepOnly rebuilds the stores), on an engine stood up from an image
// (whose ordinals differ), through the master's LoadReport, and on a
// frozen serving generation.
func TestPullCountsSurviveTheMove(t *testing.T) {
	count := func(e engine, id int64) int64 {
		for _, hk := range e.(*embEngine).hotTop(0) {
			if hk.ID == id {
				return hk.Count
			}
		}
		return 0
	}
	meta := oneServerMeta(ModelMeta{Name: "cnt", Kind: Embedding, Dim: 3})
	SetEmbShards(4)
	defer SetEmbShards(0)
	eng, err := newEngine(meta, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := eng.(*embEngine)
	var lo, hi int64 = -1, -1 // one id on each side of the split point
	mid := meta.Parts[0].Lo + (meta.Parts[0].Hi-meta.Parts[0].Lo)/2
	for id := int64(0); lo < 0 || hi < 0; id++ {
		if meta.RouteKey(id) < mid {
			lo = id
		} else {
			hi = id
		}
	}
	for i := 0; i < 7; i++ {
		pullRows(t, src, []int64{lo, hi, lo}) // lo twice a pull: once per occurrence
	}
	pullRows(t, src, []int64{hi})
	if count(src, lo) != 14 || count(src, hi) != 8 {
		t.Fatalf("live engine: lo pulled %d times, hi %d; want 14 and 8", count(src, lo), count(src, hi))
	}
	if top := src.hotTop(1); len(top) != 1 || top[0] != (HotKey{ID: lo, Count: 14}) {
		t.Fatalf("hotTop(1) = %v", top)
	}
	// An image carries rows, not counts: the copy starts at zero and counts
	// its own pulls on its own ordinals; the source keeps its counts.
	dst := mergedCopy(t, meta, 1, exportAll(src))
	if n := count(dst, lo); n != 0 {
		t.Fatalf("merged copy starts with %d pulls of lo", n)
	}
	for i := 0; i < 5; i++ {
		pullRows(t, dst.(*embEngine), []int64{hi, lo})
	}
	if count(dst, lo) != 5 || count(dst, hi) != 5 || count(src, lo) != 14 {
		t.Fatalf("after the merge: copy lo %d hi %d, source lo %d; want 5, 5, 14", count(dst, lo), count(dst, hi), count(src, lo))
	}
	if err := src.splitAt(mid); err != nil {
		t.Fatal(err)
	}
	if count(src, lo) != 14 || count(src, hi) != 0 {
		t.Fatalf("after the split: lo %d, hi %d; want 14 and the moved row gone", count(src, lo), count(src, hi))
	}
	pullRows(t, src, []int64{lo})
	if count(src, lo) != 15 {
		t.Fatalf("a pull after the split: lo %d, want 15", count(src, lo))
	}

	// Through the cluster: LoadReport for the live partitions, ServeHotStats
	// for the frozen generations.
	c, cl := newTestCluster(t, 2)
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "cnt", Dim: 2, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	block := make([]float64, 3*2)
	for i := 0; i < 9; i++ {
		if err := e.PullInto([]int64{42, 43, 42}, block); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := cl.LoadReport()
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[int64]int64)
	for _, pl := range rep.Parts {
		for _, hk := range pl.Hot {
			live[hk.ID] += hk.Count
		}
	}
	if live[42] != 18 || live[43] != 9 {
		t.Fatalf("LoadReport counts 42: %d, 43: %d; want 18 and 9", live[42], live[43])
	}
	c.Master.SetServeOptions(ServeOptions{Replicas: 1, HotKeys: -1})
	sl, err := cl.PublishSnapshot("cnt")
	if err != nil {
		t.Fatal(err)
	}
	part := sl.Meta.Parts[sl.Meta.PartitionFor(42)].Index
	for i := 0; i < 6; i++ {
		req := onePart("cnt", part, sl.SnapEpoch, []int64{42})
		if _, err := c.Transport.Call(sl.Replicas[part][0], "ServePull", enc(req)); err != nil {
			t.Fatal(err)
		}
	}
	frozen := make(map[int64]int64)
	for _, ep := range sl.Endpoints {
		var resp serveHotStatsResp
		body, err := c.Transport.Call(ep, "ServeHotStats", enc(serveHotStatsReq{Model: "cnt"}))
		if err == nil {
			err = dec(body, &resp)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, hk := range resp.Hot {
			frozen[hk.ID] += hk.Count
		}
	}
	if len(frozen) != 1 || frozen[42] != 6 {
		t.Fatalf("frozen generation counts %v, want 6 pulls of 42 and nothing else", frozen)
	}
}

// TestVecPullCountsSurviveTheMove: a DenseVector partition counts its
// indexed pulls per slot, exactly: N pulls of an index report N however
// many other indices were pulled first, concurrent pulls sum, a split drops
// the moved half's counts with its values, an image carries none, and a
// frozen serving generation counts the reads it answers.
func TestVecPullCountsSurviveTheMove(t *testing.T) {
	const size = 20_000
	meta := oneServerMeta(ModelMeta{Name: "cntv", Kind: DenseVector, Size: size})
	eng, err := newEngine(meta, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ve := eng.(*vecEngine)
	pull := func(e *vecEngine, ids ...int64) {
		t.Helper()
		if _, err := e.pull(pullReq{Keys: ids}); err != nil {
			t.Fatal(err)
		}
	}
	count := func(e *vecEngine, idx int64) int64 {
		for _, hk := range e.hotTop(0) {
			if hk.ID == idx {
				return hk.Count
			}
		}
		return 0
	}
	// 10,000 distinct indices first (past the old tracker's 8,192 cap), then
	// index 10,000 itself.
	first := make([]int64, 10_000)
	for i := range first {
		first[i] = int64(i)
	}
	pull(ve, first...)
	for i := 0; i < 7; i++ {
		pull(ve, 10_000, 90, 10_000)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if _, err := ve.pull(pullReq{Keys: []int64{19_999, 90}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c, d, e := count(ve, 10_000), count(ve, 90), count(ve, 19_999); c != 14 || d != 1008 || e != 1000 {
		t.Fatalf("counts of 10000, 90, 19999: %d, %d, %d; want 14, 1008, 1000", c, d, e)
	}
	if top := ve.hotTop(2); !reflect.DeepEqual(top, []HotKey{{ID: 90, Count: 1008}, {ID: 19_999, Count: 1000}}) {
		t.Fatalf("hotTop(2) = %v", top)
	}
	if all := ve.hotTop(0); len(all) != 10_002 {
		t.Fatalf("hotTop(0) lists %d indices, want 10002", len(all))
	}
	if _, err := ve.pull(pullReq{}); err != nil || count(ve, 0) != 1 {
		t.Fatalf("a full-range pull counted: index 0 at %d (%v)", count(ve, 0), err)
	}

	// An image carries values, not counts.
	dst := mergedCopy(t, meta, 0, exportAll(ve)).(*vecEngine)
	if n := len(dst.hotTop(0)); n != 0 {
		t.Fatalf("merged copy starts with %d pulled indices", n)
	}
	pull(dst, 90)
	if count(dst, 90) != 1 || count(ve, 90) != 1008 {
		t.Fatalf("after the merge: copy 90 at %d, source at %d; want 1 and 1008", count(dst, 90), count(ve, 90))
	}

	const mid = size / 2
	if err := ve.splitAt(mid); err != nil {
		t.Fatal(err)
	}
	for _, hk := range ve.hotTop(0) {
		if hk.ID >= mid {
			t.Fatalf("after splitAt(%d) hotTop reports index %d (%d pulls)", mid, hk.ID, hk.Count)
		}
	}
	pull(ve, 90)
	if count(ve, 90) != 1009 {
		t.Fatalf("a pull after the split: 90 at %d, want 1009", count(ve, 90))
	}

	// A serving generation is an engine stood up from an image; it counts
	// the rows it answers.
	gen, err := engineFromImage(meta, 0, exportAll(dst), 1)
	if err != nil {
		t.Fatal(err)
	}
	ge := gen.(*vecEngine)
	for i := 0; i < 3; i++ {
		ids := []int64{5, 19_000, 5}
		n, err := ge.rowsLen(ids)
		if err != nil {
			t.Fatal(err)
		}
		ge.appendRows(make([]byte, 0, n), ids)
	}
	if top := ge.hotTop(0); !reflect.DeepEqual(top, []HotKey{{ID: 5, Count: 6}, {ID: 19_000, Count: 3}}) {
		t.Fatalf("serving generation counts %v, want 6 reads of 5 and 3 of 19000", top)
	}
}

// TestPulledRowsDoNotShareCapacity: the map views slice one block, so a
// caller's append to a row must reallocate rather than run into the next
// row.
func TestPulledRowsDoNotShareCapacity(t *testing.T) {
	embLayouts(t, 3, func(name string, e *Emb) {
		for what, pull := range map[string]func([]int64) (map[int64][]float64, error){
			"Pull": e.Pull, "cached pull": func(ids []int64) (map[int64][]float64, error) { return pullCached(e, ids) },
		} {
			rows, err := pull([]int64{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			next := append([]float64(nil), rows[2]...)
			_ = append(rows[1], 99, 99, 99)
			if !reflect.DeepEqual(rows[2], next) {
				t.Fatalf("%s %s: append to row 1 rewrote row 2: %v, was %v", name, what, rows[2], next)
			}
		}
	})
}

// keyCounter counts the keys EmbPull requests carry, per server address.
type keyCounter struct {
	rpc.Transport
	mu   sync.Mutex
	keys map[string][]int
}

func (k *keyCounter) Call(addr, method string, body []byte) ([]byte, error) {
	if method == "EmbPull" {
		var req pullReq
		if err := dec(body, &req); err == nil {
			k.mu.Lock()
			k.keys[addr] = append(k.keys[addr], len(req.Keys))
			k.mu.Unlock()
		}
	}
	return k.Transport.Call(addr, method, body)
}

// TestDuplicateIDsCrossTheWireOnce: a pull of [7,7,7,9] asks every
// partition for two keys and records two cache misses — not four of each,
// which is what LINE's runs of equal U ids used to cost on every column
// partition.
func TestDuplicateIDsCrossTheWireOnce(t *testing.T) {
	tr := &keyCounter{Transport: rpc.NewInProc(), keys: make(map[string][]int)}
	c, err := NewCluster(ClusterConfig{NumServers: 2, Transport: tr, NamePrefix: "dup"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := c.NewClient()
	e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "d", Dim: 4, ByColumn: true, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows, pos, err := e.PrefetchRows([]int64{7, 7, 7, 9}).Batch()
	if err != nil || len(rows.IDs) != 2 || len(pos) != 4 {
		t.Fatalf("PrefetchRows = %v, %v, %v", rows, pos, err)
	}
	calls := 0
	for addr, ks := range tr.keys {
		for _, n := range ks {
			calls++
			if n != 2 {
				t.Errorf("an EmbPull to %s carried %d keys, want 2", addr, n)
			}
		}
	}
	if calls != 4 {
		t.Errorf("%d EmbPull calls for 4 column partitions", calls)
	}
	if hits, misses := cl.CacheStats(); hits != 0 || misses != 2 {
		t.Errorf("cache recorded %d hits and %d misses, want 0 and 2", hits, misses)
	}
	if _, _, err := e.PrefetchRows([]int64{9, 9, 7}).Batch(); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cl.CacheStats(); hits != 2 || misses != 2 || calls != 4 {
		t.Errorf("after a repeat: %d hits, %d misses, want 2 and 2", hits, misses)
	}
}

// Allocation budgets: one allocation per row must not creep back onto the
// pull paths. A 128-row pull over 4 partitions costs 66 to 91 (fan-out
// goroutines, four request frames, four handlers, the per-partition id
// buckets; pool misses after a GC, and under -race, where sync.Pool drops
// a quarter of what it is given); each budget is the highest count seen
// plus 10%. At the parent of the change that introduced RowBatch each of
// these was over a thousand; what the frame-writing engines and PullInto
// took off them since is bytes (88 KB → 9 KB per pull), not objects.
func TestPullAllocationBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are measured without -short")
	}
	ids := make([]int64, 128)
	for i := range ids {
		ids[i] = int64(i * 7)
	}
	within := func(what string, budget float64, pull func() error) {
		t.Helper()
		if n := testing.AllocsPerRun(20, func() {
			if err := pull(); err != nil {
				t.Fatal(err)
			}
		}); n > budget {
			t.Errorf("%s of 128 rows over 4 partitions makes %v allocations, budget %v", what, n, budget)
		}
	}
	block := make([]float64, len(ids)*32)
	_, cl := embLayouts(t, 32, func(name string, e *Emb) {
		if _, err := e.Pull(ids); err != nil { // materialise the rows
			t.Fatal(err)
		}
		budget := map[string][3]float64{"hash": {89, 95, 100}, "column": {68, 75, 80}}[name]
		within(name+": PullInto", budget[0], func() error { return e.PullInto(ids, block) })
		within(name+": PullBatch", budget[1], func() error { _, _, err := e.PullBatch(ids); return err })
		within(name+": Pull (map view)", budget[2], func() error { _, err := e.Pull(ids); return err })
	})
	if _, err := cl.PublishSnapshot("hash"); err != nil {
		t.Fatal(err)
	}
	cl.SetRowCacheLimits(1, 0) // every lookup below misses the agent's cache
	sc, err := cl.Serve("hash")
	if err != nil {
		t.Fatal(err)
	}
	// Both endpoints hold all 4 partitions: a lookup is the head read and one
	// ServePull of four parts (49 to 50 allocations; it was 99 as one
	// ServePull per partition).
	within("ServeClient.Pull, uncached,", 55, func() error { _, err := sc.Pull(ids); return err })
	if st := sc.Stats(); st.PrimaryRows != 0 || st.SnapRows == 0 {
		t.Errorf("serve reads did not come off the snapshots: %+v", st)
	}
}

func benchEmb(b *testing.B, byCol bool) (*Emb, []int64) {
	c, err := NewCluster(ClusterConfig{NumServers: 2, NamePrefix: "be" + b.Name()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	e, err := c.NewClient().CreateEmbedding(EmbeddingSpec{Name: "e", Dim: 32, ByColumn: byCol, Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int64, 128)
	for i := range ids {
		ids[i] = int64(i * 7)
	}
	return e, ids
}

func BenchmarkEmbPullBatch(b *testing.B) {
	for _, layout := range []string{"hash", "column"} {
		b.Run(layout, func(b *testing.B) {
			e, ids := benchEmb(b, layout == "column")
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := e.PullBatch(ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEmbPullFrame: one positional pull of distinct ids end to end,
// in-proc — request encode, the engines writing rows from their slabs into
// the reply frames, the scatter into the caller's block — at the GraphSage
// feature pull's shape (7,000 × 16) and the serve lookup's (128 × 32).
func BenchmarkEmbPullFrame(b *testing.B) {
	for _, shape := range [][2]int{{7000, 16}, {128, 32}} {
		n, dim := shape[0], shape[1]
		b.Run(fmt.Sprintf("%dx%d", n, dim), func(b *testing.B) {
			c, err := NewCluster(ClusterConfig{NumServers: 2, NamePrefix: "bf" + b.Name()})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			e, err := c.NewClient().CreateEmbedding(EmbeddingSpec{Name: "e", Dim: dim, Partitions: 4})
			if err != nil {
				b.Fatal(err)
			}
			ids := make([]int64, n)
			for i := range ids {
				ids[i] = int64(i*7) % 50021 // distinct, unsorted
			}
			block := make([]float64, n*dim)
			b.SetBytes(int64(8 * n * dim))
			b.ReportAllocs()
			for b.Loop() {
				if err := e.PullInto(ids, block); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEmbPushBatch(b *testing.B) {
	for _, layout := range []string{"hash", "column"} {
		b.Run(layout, func(b *testing.B) {
			e, ids := benchEmb(b, layout == "column")
			rows := RowBatch{IDs: ids, Dim: 32, Data: make([]float64, len(ids)*32)}
			b.ReportAllocs()
			for b.Loop() {
				if err := e.PushAddBatch(rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServePull: one uncached 128-id serve lookup end to end — in-proc
// over 2 servers x 4 partitions (one frame: either endpoint holds the
// table), and over TCP at the repo benchmark's shape, 3 servers x 6
// partitions x 2 replicas (two frames).
func BenchmarkServePull(b *testing.B) {
	for _, shape := range []struct {
		name           string
		servers, parts int
		tcp            bool
	}{{"inproc-2x4", 2, 4, false}, {"tcp-3x6", 3, 6, true}} {
		b.Run(shape.name, func(b *testing.B) {
			cfg := ClusterConfig{NumServers: shape.servers, NamePrefix: "bs" + b.Name()}
			if shape.tcp {
				cfg.Transport = rpc.NewTCP()
			}
			c, err := NewCluster(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			cl := c.NewClient()
			e, err := cl.CreateEmbedding(EmbeddingSpec{Name: "e", Dim: 32, Partitions: shape.parts})
			if err != nil {
				b.Fatal(err)
			}
			ids := make([]int64, 128)
			for i := range ids {
				ids[i] = int64(i * 7)
			}
			if _, err := e.Pull(ids); err != nil {
				b.Fatal(err)
			}
			c.Master.SetServeOptions(ServeOptions{HotKeys: -1})
			if _, err := cl.PublishSnapshot("e"); err != nil {
				b.Fatal(err)
			}
			cl.SetRowCacheLimits(1, 0)
			sc, err := cl.Serve("e")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := sc.Pull(ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

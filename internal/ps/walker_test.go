package ps

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"psgraph/internal/dfs"
	"psgraph/internal/rpc"
)

// gobBytes is encoding/gob's encoding of v. Gob stays in the tests only:
// as the reference decoder the walker's values are held to
// (TestWireGobGoldenEquivalence), and behind the 0x00 tag (gobEra) as the
// bytes a checkpoint, a WAL record or a message had before the wire had
// one format.
func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode %T: %v", v, err)
	}
	return buf.Bytes()
}

// gobEra is v as the gob format wrote it, behind its 0x00 tag.
func gobEra(t testing.TB, v any) []byte { return append([]byte{0x00}, gobBytes(t, v)...) }

// The ids tests name, out of the table.
var (
	msgVecPullResp = wireIDs[reflect.TypeFor[vecPullResp]()]
	msgPartImage   = wireIDs[reflect.TypeFor[partImage]()]
)

// walkedMessages is one or more awkward instances of every type in
// wireIDs, and of the hand-written messages (hotMessages): negative and
// extreme integers, NaN, −0 and ±Inf, nil beside empty slices and maps,
// empty strings.
func walkedMessages() []any {
	nan, negz, inf := math.NaN(), math.Copysign(0, -1), math.Inf(1)
	meta := ModelMeta{Name: "m", Kind: ColumnEmbedding, Size: -1, Dim: 4,
		Opt:                Optimizer{Kind: OptAdam, LR: nan, Beta1: negz, Beta2: inf, Eps: 1e-8},
		ConsistentRecovery: true, InitScale: negz, Scheme: SchemeRange, NumPartitions: 3,
		Parts:  []Partition{{Index: 2, Server: "s1", Lo: -5, Hi: 1 << 40, Col1: 2}, {}},
		NextID: 3, Epoch: math.MaxInt64}
	serve := ServeLayout{Model: "m", SnapEpoch: 2, Meta: meta,
		Replicas: map[int][]string{0: {"a", "b"}, 1: nil, -2: {}}, HotIDs: []int64{}, Endpoints: []string{"a", ""}}
	img := partImage{Kind: Embedding, Step: -3, Lo: 1, Hi: math.MinInt64, Dense: []float64{nan, negz, inf},
		Rows: RowBatch{IDs: []int64{4, -9}, Dim: 2, Data: []float64{1, negz, nan, 4}},
		Mom:  RowBatch{IDs: []int64{}, Dim: 2, Data: []float64{}}, Sealed: true,
		Nbr: map[int64][]int64{7: {1, -1}, 8: nil, 9: {}}, CsrIDs: []int64{}, CsrOff: []int64{0}}
	hot := []HotKey{{ID: -1, Count: 9}, {}}
	matrix := ModelMeta{Name: "w", Kind: ColumnEmbedding, Size: 32, Dim: 3, Opt: Adam(0.01), Parts: []Partition{{Col1: 1}, {Index: 1, Col0: 1, Col1: 3}}, NextID: 2}
	return append(hotMessages(),
		img, partImage{},
		partImage{Kind: ColumnEmbedding, Step: 5, Rows: RowBatch{IDs: []int64{0, 1}, Dim: 2, Data: []float64{1, nan, negz, inf}},
			Mom: RowBatch{IDs: []int64{1}, Dim: 2, Data: []float64{0.5, -0.5}}, Vel: RowBatch{IDs: []int64{1}, Dim: 2, Data: []float64{0.25, 1e-300}}},
		partImage{Kind: Embedding, Rows: RowBatch{IDs: []int64{900, 7, -3}, Dim: 1, Data: []float64{-2, 1.5, nan}}},
		createModelReq{Meta: matrix},
		walRecord{Kind: walKindModel, Epoch: 1, Meta: ModelMeta{Name: "retired", Kind: 5, Size: 2, Dim: 2}},
		replicateReq{Method: "EmbPush", ClientID: 1<<64 - 1, Seq: 9, Epoch: -2, Body: []byte{tagBin, 0}},
		replicateReq{},
		createPartReq{Meta: meta, Part: 1, Replica: true},
		ckptReq{Model: "m", Part: -1},
		restoreReq{Part: 0, Prev: true},
		registerServerReq{Addr: "127.0.0.1:7070"},
		createModelReq{Meta: meta},
		getModelResp{},
		clockReq{Tag: "line", Worker: 1, Expect: 2, K: -1, Clock: 1 << 62, LeaseNS: -1},
		modelNameReq{Name: "é"},
		ckptModelsReq{Names: []string{"a", ""}, IfRecoveries: -1},
		ckptModelsReq{Names: []string{}},
		ckptModelsResp{Raced: true},
		restoreModelsReq{},
		heartbeatReq{Addr: "s", Dropped: 3},
		heartbeatResp{Epoch: -1},
		promoteReq{Model: "m", Part: 2, Epoch: 5},
		setBackupReq{},
		seedBackupReq{Meta: meta, Part: 2, Backup: "b", Epoch: 1},
		FailoverStats{Epoch: 1, Promotions: 2, Degraded: -1, Replicating: true, Moves: 4},
		ServerStats{Addr: "a", Models: []string{}, Partitions: 2, Bytes: 100, MutApplied: -1, Dead: true},
		ServerStats{Models: []string{"x"}},
		int64(math.MinInt64), nan, negz,
		migratePartReq{Meta: meta, Part: 1, NewPart: 4, Lo: 1, Hi: 2, Split: true, Dest: "d", Epoch: 3},
		installPartReq{Meta: meta, Part: 1, Replica: true, Image: img, Muts: 5, Epoch: 2, Dedup: []dedupExport{
			{Client: 1<<64 - 1, MaxSeq: 9, Entries: map[uint64]dedupOutcome{1: {Resp: []byte{}, Err: "e"}, 2: {Rerun: true}, 3: {Resp: []byte{7}}}},
			{}}},
		dropPartReq{Model: "m", Part: 7, Epoch: -7},
		partStatsResp{Parts: []partStat{{Model: "m", Part: 1, Replica: true, Muts: 2, Bytes: 3, Hot: hot}, {}}},
		partOpReq{Model: "m", Part: 1},
		drainReq{Addr: "x"},
		LoadReport{Epoch: 1, Parts: []PartLoad{{Model: "m", Part: 2, Server: "s", Lo: -1, Hi: 9, Muts: 3, Hot: hot}}},
		RebalanceResult{Moves: 1, Actions: []string{"move m/1 s1 -> s2"}},
		serveSeedReq{Meta: meta, Part: 1, SnapEpoch: 2, Targets: []string{"a"}},
		serveInstallReq{Meta: meta, SnapEpoch: -1, Image: img},
		serveHotInstallReq{Model: "m", SnapEpoch: 3, Rows: RowBatch{IDs: []int64{3, -1}, Dim: 2, Data: []float64{nan, negz, 1, 2}}},
		serveHotStatsReq{Model: "m"},
		serveHotStatsResp{Hot: hot},
		serveHotStatsResp{Hot: []HotKey{}},
		serve, ServeLayout{},
		walRecord{Kind: walKindServe, Epoch: 3, Meta: meta, Serve: serve, Name: "n", Servers: []string{"a"}, Dead: []string{}, Recoveries: 2},
	)
}

// messageTable is every message id with the type a frame of that id
// decodes into: the walked types, the hand-written ones, and the test
// types that take the row frames whole.
func messageTable() map[byte]reflect.Type {
	table := map[byte]reflect.Type{
		msgEmbPullResp:   reflect.TypeFor[embPullResp](),
		msgEmbPushReq:    reflect.TypeFor[embPushReq](),
		msgNbrPullResp:   reflect.TypeFor[nbrPullResp](),
		msgFuncReq:       reflect.TypeFor[funcReq](),
		msgServePullReq:  reflect.TypeFor[servePullReq](),
		msgServePullResp: reflect.TypeFor[servePullResp](),
	}
	for typ, id := range wireIDs {
		table[id] = typ
	}
	return table
}

// TestEveryMessageHasALayout: message ids are unique across the walked and
// the hand-written messages; every walked type frames under its id and
// round-trips; a type with no id panics in enc and is an error in dec.
func TestEveryMessageHasALayout(t *testing.T) {
	seen := map[byte]string{msgEmbPullResp: "EmbPull reply", msgEmbPushReq: "EmbPush", msgNbrPullResp: "nbrPullResp",
		msgFuncReq: "funcReq", msgServePullReq: "servePullReq", msgServePullResp: "ServePull reply"}
	for typ, id := range wireIDs {
		if prev, dup := seen[id]; dup {
			t.Errorf("message id %d is %s and %s", id, prev, typ)
		}
		seen[id] = typ.String()
	}
	covered := make(map[reflect.Type]bool)
	for _, msg := range walkedMessages() {
		typ := reflect.TypeOf(msg)
		id, walked := wireIDs[typ]
		if !walked {
			continue
		}
		covered[typ] = true
		b := enc(msg)
		if b[0] != tagBin || b[1] != id {
			t.Errorf("enc(%T) starts % x, want %02x %02x", msg, b[:2], tagBin, id)
		}
		if got := decodeAs(t, b, msg); !wireEq(reflect.ValueOf(msg), reflect.ValueOf(got)) {
			t.Errorf("%T round trip:\n got %+v\nwant %+v", msg, got, msg)
		}
	}
	for typ := range wireIDs {
		if !covered[typ] {
			t.Errorf("%s has an id but no instance in walkedMessages", typ)
		}
	}
	type unlisted struct{ X int }
	func() {
		defer func() {
			if recover() == nil {
				t.Error("enc of a type with no id did not panic")
			}
		}()
		enc(unlisted{1})
	}()
	if err := dec(enc(modelNameReq{Name: "m"}), &unlisted{}); err == nil || !strings.Contains(err.Error(), "no wire layout") {
		t.Errorf("dec into a type with no id: err = %v", err)
	}
}

// TestWalkedDecodeBoundsLengths: for every slice and map of every walked
// type — fields, fields of nested structs, elements of slices and values
// of maps —, a 2^40 length prefix over 1 MB of zeros is an error, and the
// decoder allocates nothing near what the prefix promises on the way.
func TestWalkedDecodeBoundsLengths(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	zeros := make([]byte, 1<<20)
	cases := 0
	for typ, id := range wireIDs {
		prefixes := make(map[string][]byte)
		lengthPrefixes(typ, typ.Name(), []byte{tagBin, id}, prefixes)
		for path, head := range prefixes {
			cases++
			body := append(append(slices.Clone(head), huge...), zeros...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := dec(body, reflect.New(typ).Interface())
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s: a 2^40 length prefix over 1 MB decoded", path)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
				t.Errorf("%s: decoder allocated %d bytes before rejecting the length", path, grew)
			}
		}
	}
	if cases < 60 {
		t.Fatalf("only %d slice and map positions found", cases)
	}
}

// lengthPrefixes records, under its path, the encoding of a zero value of t
// up to every slice or map length prefix inside it — one element deep into
// slices and maps — and returns head followed by the whole zero value.
func lengthPrefixes(t reflect.Type, path string, head []byte, out map[string][]byte) []byte {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			head = lengthPrefixes(t.Field(i).Type, path+"."+t.Field(i).Name, head, out)
		}
		return head
	case reflect.Slice, reflect.Map:
		out[path] = slices.Clone(head)
		one := append(slices.Clone(head), 2) // one element
		if t.Kind() == reflect.Map {
			one = appendValue(one, reflect.Zero(t.Key()))
		}
		lengthPrefixes(t.Elem(), path+"[]", one, out)
	}
	return appendValue(head, reflect.Zero(t))
}

// FuzzMessageTable: for every message id, walked and hand-written,
// arbitrary bytes never panic the decoder and never make it allocate more
// than a small multiple of their length, and whatever decodes re-encodes
// to something that decodes to the same value (values, not bytes: map
// order is random).
func FuzzMessageTable(f *testing.F) {
	for _, msg := range append(walkedMessages(), rowReplies()...) {
		b := encReply(msg)
		f.Add(b[1], b[2:])
	}
	huge := binary.AppendUvarint(nil, 1<<40)
	for id := range messageTable() {
		f.Add(id, huge)
	}
	table := messageTable()
	f.Fuzz(func(t *testing.T, id byte, payload []byte) {
		typ, ok := table[id]
		if !ok {
			return
		}
		body := append([]byte{tagBin, id}, payload...)
		got := reflect.New(typ)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := dec(body, got.Interface())
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(body))+64<<10 {
			t.Fatalf("%s: %d bytes allocated decoding %d", typ, grew, len(body))
		}
		if err != nil {
			return
		}
		again := reflect.New(typ)
		if err := dec(encReply(got.Elem().Interface()), again.Interface()); err != nil {
			t.Fatalf("%s: re-decode: %v", typ, err)
		}
		if !wireEq(got.Elem(), again.Elem()) {
			t.Fatalf("%s: decode → encode → decode is not a fixpoint:\n got %+v\nthen %+v", typ, got.Elem(), again.Elem())
		}
	})
}

// TestMovedMessagesGolden: the messages that went from hand-written cases
// to the walker kept their frames byte for byte (the sparse-vector and
// matrix messages among them are retired, their ids left blank). The hex was captured
// from the hand-written encoder; maps hold one entry so that the order
// their entries leave in is fixed. Two frames of formerly-gob messages,
// captured when the walker first wrote them, pin the id table's tail: the
// clock call, and a WAL record, which a restarted master must still read.
func TestMovedMessagesGolden(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	for _, tc := range []struct {
		msg    any
		golden string
	}{
		{pullReq{Model: "ranks", Part: 3, Keys: []int64{0, -5, 1 << 40}}, "01010572616e6b73060400098a8080808040"},
		{pullReq{Model: "all", Part: -1}, "010103616c6c0100"},
		{vecPullResp{Values: []float64{1.5, nan, math.Inf(-1), math.Copysign(0, -1)}, Lo: -9}, "010205000000000000f83f010000000000f87f000000000000f0ff000000000000008011"},
		{vecPushReq{Model: "m", Part: 2, Indices: []int64{7, 8}, Values: []float64{0.25, -3}, Op: vecMax}, "0103016d04030e0203000000000000d03f00000000000008c006"},
		{vecPushReq{Model: "full", Indices: nil, Values: []float64{}, Op: vecSet}, "01030466756c6c00000102"},
		{nbrPushReq{Model: "nbr", Part: 1, Tables: map[int64][]int64{8: {9, 3, 1 << 33}}}, "0109036e627202021004120bfaffffff3f"},
		{nbrPushReq{Model: "nbr", Tables: map[int64][]int64{-4: nil}}, "0109036e627200020700"},
		{funcResp{Out: []byte("result")}, "010d07726573756c74"},
		{funcResp{Out: []byte{}}, "010d01"},
		{replicateReq{Method: "EmbPush", ClientID: 1<<63 + 7, Seq: 9, Epoch: -2, Body: []byte{1, 2}}, "010e07456d6250757368878080808080808080010903030102"},
		{serveHotPullReq{Model: "emb", SnapEpoch: -1, IDs: []int64{5, 3, 300}}, "011003656d6201040a03d204"},
		{clockReq{Tag: "line", Worker: 1, Expect: 2, K: 0, Clock: 17, LeaseNS: 250_000_000}, "0119046c696e650204002280cab5ee01"},
		{walRecord{Kind: walKindModel, Epoch: 3, Meta: ModelMeta{Name: "v", Kind: DenseVector, Size: 8,
			Parts: []Partition{{Server: "s0", Hi: 8}}, NextID: 1, Epoch: 3}},
			"013504060176001000" + strings.Repeat("00", 33) + "00" + strings.Repeat("00", 8) + "0000020002733000001000000206" +
				"0000" + "00000000" + strings.Repeat("00", 33) + "00" + strings.Repeat("00", 8) + "0000000000" + "000000" + "00" + "00000000"},
	} {
		if got := hex.EncodeToString(enc(tc.msg)); got != tc.golden {
			t.Errorf("%T frame changed:\n got %s\nwant %s", tc.msg, got, tc.golden)
		}
	}
}

// TestWALSkipsGobEraRecords: a journal written before the wire had one
// format starts with gob (0x00) records. Replay rejects each as an unknown
// tag — it is not read by a second path — skips it, and replays the rest.
func TestWALSkipsGobEraRecords(t *testing.T) {
	fs := dfs.NewDefault()
	wal, _, err := fs.OpenWAL(MasterWALPath)
	if err != nil {
		t.Fatal(err)
	}
	old := gobEra(t, walRecord{Kind: walKindModel, Epoch: 9, Meta: ModelMeta{Name: "old", Epoch: 9}})
	if err := dec(old, &walRecord{}); err == nil || !strings.Contains(err.Error(), "unknown wire format tag 0x00") {
		t.Fatalf("gob-era record: err = %v, want an unknown tag", err)
	}
	for _, rec := range [][]byte{old, enc(walRecord{Kind: walKindModel, Epoch: 4, Meta: ModelMeta{Name: "new", Kind: Embedding, Dim: 2}}), old} {
		if err := wal.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	m := NewMaster("m", nil)
	m.SetFS(fs)
	if recovered, err := m.EnableWAL(); err != nil || !recovered {
		t.Fatalf("EnableWAL: recovered %v, err %v", recovered, err)
	}
	if _, ok := m.models["old"]; ok {
		t.Error("a gob-era record was replayed")
	}
	if meta, ok := m.models["new"]; !ok || meta.Kind != Embedding || meta.Dim != 2 || m.epoch != 4 {
		t.Errorf("the record behind a gob-era one: %+v (present %v), epoch %d", meta, ok, m.epoch)
	}
}

// TestWALSkipsRetiredKinds: a model journaled under a retired Kind — 1, a
// sparse vector's own, or 5, a matrix's — is skipped on replay, and the
// records around it replay.
func TestWALSkipsRetiredKinds(t *testing.T) {
	fs := dfs.NewDefault()
	wal, _, err := fs.OpenWAL(MasterWALPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []walRecord{
		{Kind: walKindModel, Epoch: 2, Meta: ModelMeta{Name: "sparse", Kind: 1}},
		{Kind: walKindModel, Epoch: 3, Meta: ModelMeta{Name: "emb", Kind: Embedding, Dim: 1}},
		{Kind: walKindModel, Epoch: 4, Meta: ModelMeta{Name: "matrix", Kind: 5, Size: 2, Dim: 2}},
	} {
		if err := wal.Append(enc(rec)); err != nil {
			t.Fatal(err)
		}
	}
	m := NewMaster("m", nil)
	m.SetFS(fs)
	if recovered, err := m.EnableWAL(); err != nil || !recovered {
		t.Fatalf("EnableWAL: recovered %v, err %v", recovered, err)
	}
	if len(m.models) != 1 || m.models["emb"].Kind != Embedding {
		t.Errorf("replayed models %v, want only the embedding", m.models)
	}
}

// BenchmarkControlCodec is the encode + decode of three control-plane
// messages: the clock call every BSP/SSP worker makes once per window, a
// layout reply, and a serve layout of 8 partitions × 2 replicas.
func BenchmarkControlCodec(b *testing.B) {
	meta := ModelMeta{Name: "line.emb", Kind: ColumnEmbedding, Size: 1 << 14, Dim: 32, Opt: sgd(0.025), InitScale: 0.5}
	meta = layout(meta, []string{"s0", "s1", "s2", "s3"})
	serve := ServeLayout{Model: "emb", SnapEpoch: 3, Meta: layout(ModelMeta{Name: "emb", Kind: Embedding, Dim: 32, NumPartitions: 8}, []string{"s0", "s1", "s2"}),
		Replicas: map[int][]string{}, HotIDs: make([]int64, 64), Endpoints: []string{"s0", "s1", "s2"}}
	for i := range 8 {
		serve.Replicas[i] = []string{serve.Endpoints[i%3], serve.Endpoints[(i+1)%3]}
	}
	for _, tc := range []struct {
		name string
		msg  any
	}{
		{"clockReq", clockReq{Tag: "line-bsp", Worker: 1, Expect: 2, K: 0, Clock: 17}},
		{"getModelResp", getModelResp{Meta: meta}},
		{"ServeLayout", serve},
	} {
		b.Run(tc.name, func(b *testing.B) {
			out := reflect.New(reflect.TypeOf(tc.msg))
			b.ReportAllocs()
			for b.Loop() {
				body := enc(tc.msg)
				if err := dec(body, out.Interface()); err != nil {
					b.Fatal(err)
				}
				rpc.PutBuf(body)
			}
		})
	}
}

package ps

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"psgraph/internal/dfs"
	"psgraph/internal/rpc"
)

// canonImage renders an image so that two images holding the same state
// render the same: row batches by id (row order in an image is shard
// order), maps in fmt's sorted key order, nil and empty alike.
func canonImage(img partImage) string {
	return fmt.Sprintf("%v step=%d [%d,%d) dense=%v rows=%d×%v mom=%v vel=%v sealed=%v nbr=%v csr=%v/%v/%v",
		img.Kind, img.Step, img.Lo, img.Hi, img.Dense,
		img.Rows.Dim, img.Rows.Map(), img.Mom.Map(), img.Vel.Map(),
		img.Sealed, img.Nbr, img.CsrIDs, img.CsrOff, img.CsrAdj)
}

// imageCase is one engine state the export/merge properties are checked
// on: four kinds × {fresh, after two optimizer steps, sealed Neighbor}, and
// the sparse vector and the matrix the embedding engine holds as well.
type imageCase struct {
	name string
	meta ModelMeta
	fill func(t testing.TB, e engine) // nil: fresh
}

func imageCases() []imageCase {
	embGrads := func(dim int) RowBatch {
		grads := make(map[int64][]float64)
		for id := int64(0); id < 40; id++ {
			row := make([]float64, dim)
			for j := range row {
				row[j] = 0.1*float64(j+1) - float64(id)
			}
			grads[id] = row
		}
		return mustRows(grads, dim)
	}
	fillEmb := func(dim int) func(t testing.TB, e engine) {
		return func(t testing.TB, e engine) {
			ee := e.(*embEngine)
			// Rows 40..59 materialise without moments; two gradient steps
			// make mom, vel and step of rows 0..39 nonzero and nontrivial.
			var ids []int64
			for id := int64(0); id < 60; id++ {
				ids = append(ids, id)
			}
			if _, err := ee.pull(pullReq{Keys: ids}); err != nil {
				t.Fatalf("emb pull: %v", err)
			}
			for k := 0; k < 2; k++ {
				if err := pushReq(ee, embPushReq{Rows: embGrads(dim), Grad: true}); err != nil {
					t.Fatalf("emb grad push: %v", err)
				}
			}
		}
	}
	fillNbr := func(seal bool) func(t testing.TB, e engine) {
		return func(t testing.TB, e engine) {
			ne := e.(*nbrEngine)
			tables := map[int64][]int64{1: {3, 2, 2}, 5: {1}, 77: {5, 5, 2}, 900: {}}
			for id := int64(100); id < 140; id++ {
				tables[id] = []int64{id + 1, id - 1, 7}
			}
			if err := ne.push(nbrPushReq{Tables: tables}); err != nil {
				t.Fatalf("nbr push: %v", err)
			}
			if seal {
				ne.seal()
			}
		}
	}
	vec := ModelMeta{Name: "v", Kind: DenseVector, Size: 64}
	sparse := ModelMeta{Name: "s", Kind: Embedding, Dim: 1} // as CreateSparseVector makes it
	emb := ModelMeta{Name: "e", Kind: Embedding, Dim: 4, InitScale: 0.1, Opt: Adam(0.01)}
	col := ModelMeta{Name: "c", Kind: ColumnEmbedding, Dim: 3, InitScale: 0.5, Opt: AdaGrad(0.05)}
	nbr := ModelMeta{Name: "n", Kind: Neighbor}
	mat := ModelMeta{Name: "m", Kind: ColumnEmbedding, Size: 3, Dim: 4, Opt: Adam(0.01)} // as CreateMatrix makes it
	return []imageCase{
		{name: "DenseVector/fresh", meta: vec},
		{name: "DenseVector", meta: vec, fill: func(t testing.TB, e engine) {
			if err := pushVec(e.(*vecEngine), vecPushReq{Indices: []int64{0, 13, 63}, Values: []float64{1, 2, 3}, Op: vecAdd}); err != nil {
				t.Fatalf("vec push: %v", err)
			}
		}},
		{name: "SparseVector/fresh", meta: sparse},
		{name: "SparseVector", meta: sparse, fill: func(t testing.TB, e engine) {
			add := RowBatch{IDs: []int64{7, 900, 12345, 3}, Dim: 1, Data: []float64{1.5, -2, 4, 0.5}}
			if err := pushReq(e.(*embEngine), embPushReq{Rows: add}); err != nil {
				t.Fatalf("sparse push: %v", err)
			}
		}},
		{name: "Embedding/fresh", meta: emb},
		{name: "Embedding/Adam", meta: emb, fill: fillEmb(4)},
		{name: "ColumnEmbedding/fresh", meta: col},
		{name: "ColumnEmbedding/AdaGrad", meta: col, fill: fillEmb(3)},
		{name: "Neighbor/fresh", meta: nbr},
		{name: "Neighbor/building", meta: nbr, fill: fillNbr(false)},
		{name: "Neighbor/sealed", meta: nbr, fill: fillNbr(true)},
		{name: "DenseMatrix/fresh", meta: mat},
		{name: "DenseMatrix/Adam", meta: mat, fill: func(t testing.TB, e engine) {
			me := e.(*embEngine)
			data := RowBatch{IDs: []int64{0, 1, 2}, Dim: 4, Data: make([]float64, 12)}
			for i := range data.Data {
				data.Data[i] = float64(i)
			}
			if err := pushReq(me, embPushReq{Rows: data, Set: true}); err != nil {
				t.Fatalf("mat set: %v", err)
			}
			for k := 0; k < 2; k++ {
				if err := pushReq(me, embPushReq{Rows: data, Grad: true}); err != nil {
					t.Fatalf("mat grad: %v", err)
				}
			}
		}},
	}
}

// build makes the case's engine under the current shard count.
func (tc imageCase) build(t testing.TB) (ModelMeta, engine) {
	t.Helper()
	meta := oneServerMeta(tc.meta)
	e, err := newEngine(meta, 0, 0)
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	if tc.fill != nil {
		tc.fill(t, e)
	}
	return meta, e
}

// forImageCases runs check on every case under shard counts 1, 3 and 32
// for the source, each against every shard count for the destination
// (only embedding engines shard, but nothing says the rest may not).
func forImageCases(t *testing.T, check func(t *testing.T, tc imageCase, toShards int)) {
	defer SetEmbShards(0)
	for _, tc := range imageCases() {
		for _, from := range []int{1, 3, 32} {
			for _, to := range []int{1, 3, 32} {
				t.Run(fmt.Sprintf("%s/%d→%d", tc.name, from, to), func(t *testing.T) {
					SetEmbShards(from)
					check(t, tc, to)
				})
			}
		}
	}
}

// mergeImage decodes an encoded image and merges it into e: the way an
// image reaches an engine from a checkpoint file or off the wire.
func mergeImage(e engine, data []byte) error {
	var img partImage
	if err := dec(data, &img); err != nil {
		return err
	}
	return e.merge(img)
}

// mergedCopy stands a fresh engine of meta up under shards shards and
// merges the images into it, each through its encoded form.
func mergedCopy(t testing.TB, meta ModelMeta, shards int, imgs ...partImage) engine {
	t.Helper()
	SetEmbShards(shards)
	dst, err := newEngine(meta, 0, 0)
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	for _, img := range imgs {
		if err := mergeImage(dst, enc(img)); err != nil {
			t.Fatalf("merge: %v", err)
		}
	}
	return dst
}

// pullEverything reads all an engine holds — the keyed kinds by the ids
// of img plus one id nobody pushed — in a form reflect.DeepEqual compares.
func pullEverything(t *testing.T, e engine, img partImage) any {
	t.Helper()
	ids := append([]int64{1 << 40}, img.Rows.IDs...)
	ids = append(ids, img.CsrIDs...)
	for id := range img.Nbr {
		ids = append(ids, id)
	}
	slices.Sort(ids) // a Neighbor pull answers in request order
	var out any
	var err error
	switch e := e.(type) {
	case *vecEngine:
		out, err = e.pull(pullReq{})
	case *embEngine:
		out = pullRows(t, e, ids).Map()
	case *nbrEngine:
		out, err = e.pull(pullReq{Keys: ids})
	}
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	return out
}

// TestExportImportRoundTripAllKinds: merge(export(all)) into a fresh
// engine reproduces an equal re-export — row values, optimizer moments,
// the Adam step, the Neighbor lifecycle state — and every pull, the
// deterministic init of a never-pushed row included.
func TestExportImportRoundTripAllKinds(t *testing.T) {
	forImageCases(t, func(t *testing.T, tc imageCase, to int) {
		meta, src := tc.build(t)
		all := exportAll(src)
		dst := mergedCopy(t, meta, to, all)
		if got := exportAll(dst); canonImage(got) != canonImage(all) {
			t.Fatalf("re-export differs:\nwant %s\ngot  %s", canonImage(all), canonImage(got))
		}
		if want, got := pullEverything(t, src, all), pullEverything(t, dst, all); !reflect.DeepEqual(want, got) {
			t.Fatalf("pulls differ:\nwant %v\ngot  %v", want, got)
		}
	})
}

// TestExportMergeHalvesEqualWhole: export(lo,mid) ⊎ export(mid,hi) merged
// equals export(lo,hi). Column-partitioned kinds export everything for
// any range, so there the halves overlap entirely and must still agree.
func TestExportMergeHalvesEqualWhole(t *testing.T) {
	forImageCases(t, func(t *testing.T, tc imageCase, to int) {
		meta, src := tc.build(t)
		all, mid := exportAll(src), meta.routeSpan()/2
		lower, upper := src.export(0, mid), src.export(mid, meta.routeSpan())
		if meta.routed() && tc.fill != nil && canonImage(lower) == canonImage(upper) {
			t.Fatalf("the split landed on one side only")
		}
		dst := mergedCopy(t, meta, to, lower, upper)
		if got := exportAll(dst); canonImage(got) != canonImage(all) {
			t.Fatalf("halves do not add up to the whole:\nwant %s\ngot  %s", canonImage(all), canonImage(got))
		}
	})
}

// TestExportMergeTwiceEqualsOnce: merging one image twice equals merging
// it once — except into a building Neighbor table, where merge appends:
// there the copies hold every neighbour twice until seal() folds them.
func TestExportMergeTwiceEqualsOnce(t *testing.T) {
	forImageCases(t, func(t *testing.T, tc imageCase, to int) {
		meta, src := tc.build(t)
		all := exportAll(src)
		once, twice := mergedCopy(t, meta, to, all), mergedCopy(t, meta, to, all, all)
		if tc.name == "Neighbor/building" {
			if canonImage(exportAll(twice)) == canonImage(exportAll(once)) {
				t.Fatalf("a building table merged twice does not show the appended copies")
			}
			once.(*nbrEngine).seal()
			twice.(*nbrEngine).seal()
		}
		if want, got := exportAll(once), exportAll(twice); canonImage(got) != canonImage(want) {
			t.Fatalf("second merge changed the engine:\nonce  %s\ntwice %s", canonImage(want), canonImage(got))
		}
	})
}

// TestPartImageMergeRejects: an image is validated against the engine it
// merges into — one row per rejection, each naming model, partition and
// field, each leaving the engine as it was.
func TestPartImageMergeRejects(t *testing.T) {
	byName := make(map[string]imageCase)
	for _, tc := range imageCases() {
		byName[tc.name] = tc
	}
	rows := func(dim int, ids ...int64) RowBatch {
		return RowBatch{IDs: ids, Dim: dim, Data: make([]float64, len(ids)*dim)}
	}
	cases := []struct {
		name  string
		into  string // imageCases name of the engine
		field string
		img   partImage
	}{
		{"wrong kind", "DenseVector", "Kind", partImage{Kind: Embedding}},
		{"emb image into column engine", "ColumnEmbedding/AdaGrad", "Kind", partImage{Kind: Embedding, Rows: rows(3, 1)}},
		{"vector range outside the engine's", "DenseVector", "Dense", partImage{Kind: DenseVector, Lo: 60, Hi: 70, Dense: make([]float64, 10)}},
		{"vector range inverted", "DenseVector", "Dense", partImage{Kind: DenseVector, Lo: 9, Hi: 3}},
		{"vector values do not fill the range", "DenseVector", "Dense", partImage{Kind: DenseVector, Lo: 0, Hi: 10, Dense: make([]float64, 9)}},
		{"row width", "Embedding/Adam", "Rows", partImage{Kind: Embedding, Rows: rows(5, 1), Mom: rows(5), Vel: rows(5)}},
		{"moment width", "Embedding/Adam", "Vel", partImage{Kind: Embedding, Rows: rows(4, 1), Mom: rows(4), Vel: rows(3)}},
		{"row batch shape", "Embedding/Adam", "Rows", partImage{Kind: Embedding, Rows: RowBatch{IDs: []int64{1, 2}, Dim: 4, Data: make([]float64, 4)}, Mom: rows(4), Vel: rows(4)}},
		{"moments of ids that are not rows", "Embedding/Adam", "Mom", partImage{Kind: Embedding, Rows: rows(4, 1, 2), Mom: rows(4, 3), Vel: rows(4)}},
		{"moments out of the rows' order", "Embedding/Adam", "Vel", partImage{Kind: Embedding, Rows: rows(4, 1, 2), Mom: rows(4), Vel: rows(4, 2, 1)}},
		{"matrix length", "DenseMatrix/Adam", "Rows", partImage{Kind: ColumnEmbedding, Rows: RowBatch{IDs: []int64{0, 1, 2}, Dim: 4, Data: make([]float64, 11)}}},
		{"matrix moment length", "DenseMatrix/Adam", "Vel", partImage{Kind: ColumnEmbedding, Rows: rows(4, 0, 1, 2), Mom: rows(4, 0, 1, 2), Vel: rows(3, 0, 1, 2)}},
		{"CSR offset count", "Neighbor/sealed", "CsrOff", partImage{Kind: Neighbor, Sealed: true, CsrIDs: []int64{1, 2}, CsrOff: []int64{0, 1}, CsrAdj: []int64{9}}},
		{"CSR without offsets", "Neighbor/building", "CsrOff", partImage{Kind: Neighbor, Sealed: true}},
		{"CSR offsets not from zero", "Neighbor/sealed", "CsrOff", partImage{Kind: Neighbor, Sealed: true, CsrIDs: []int64{1}, CsrOff: []int64{-1, 1}, CsrAdj: []int64{9}}},
		{"CSR offsets not monotone", "Neighbor/sealed", "CsrOff", partImage{Kind: Neighbor, Sealed: true, CsrIDs: []int64{1, 2}, CsrOff: []int64{0, 2, 1}, CsrAdj: []int64{9, 8}}},
		{"CSR offsets past the adjacency", "Neighbor/fresh", "CsrOff", partImage{Kind: Neighbor, Sealed: true, CsrIDs: []int64{1}, CsrOff: []int64{0, 3}, CsrAdj: []int64{9}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, e := byName[tc.into].build(t)
			before := canonImage(exportAll(e))
			// Straight into merge: the wire decoder already refuses some of
			// these shapes, and merge must not lean on that.
			err := e.merge(tc.img)
			if err == nil {
				t.Fatalf("merge accepted the image")
			}
			where := fmt.Sprintf("%s/%d: %s:", e.modelMeta().Name, e.partIdx(), tc.field)
			if !strings.Contains(err.Error(), where) {
				t.Fatalf("error %q does not name %q", err, where)
			}
			if after := canonImage(exportAll(e)); after != before {
				t.Fatalf("a rejected merge changed the engine:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}

// TestPartImageRestoreRejectsAsCorrupt: on the restore path anything that
// is not an image fitting the partition — a mis-shaped image, a gob-era
// checkpoint, noise — is ErrCorruptCheckpoint-class, so the master's
// ladder tries the previous generation; nothing is installed.
func TestPartImageRestoreRejectsAsCorrupt(t *testing.T) {
	meta := oneServerMeta(ModelMeta{Name: "r", Kind: DenseVector, Size: 8})
	gobEra := gobEra(t, struct {
		Kind   Kind
		Vec    []float64
		Lo, Hi int64
	}{DenseVector, make([]float64, 8), 0, 8})
	for name, data := range map[string][]byte{
		"mis-shaped image":    enc(partImage{Kind: DenseVector, Lo: 0, Hi: 16, Dense: make([]float64, 16)}),
		"other kind":          enc(partImage{Kind: Embedding, Rows: RowBatch{IDs: []int64{1}, Dim: 1, Data: []float64{1}}}),
		"gob-era checkpoint":  gobEra,
		"another bin message": enc(pullReq{Model: "r"}),
		"truncated image":     enc(partImage{Kind: DenseVector, Lo: 0, Hi: 8, Dense: make([]float64, 8)})[:20],
		"empty file":          {},
	} {
		t.Run(name, func(t *testing.T) {
			fsys := dfs.NewDefault()
			srv := NewServer("s0", fsys)
			if err := fsys.WriteFileSummed(CheckpointPath("r", 0), data); err != nil {
				t.Fatal(err)
			}
			err := srv.restore(restoreReq{Meta: meta, Part: 0})
			if !isCorruptCheckpointErr(err) {
				t.Fatalf("restore: err = %v, want ErrCorruptCheckpoint-class", err)
			}
			if name == "gob-era checkpoint" && !strings.Contains(err.Error(), "not a partition image") {
				t.Fatalf("gob-era file not rejected by name: %v", err)
			}
			if _, err := srv.store.get("r", 0); err == nil {
				t.Fatalf("a rejected restore installed a partition")
			}
		})
	}
}

// TestPartImageIsBinary: the image of every kind encodes as a tagBin
// msgPartImage message; that is what a checkpoint file holds, and an
// InstallPart (migration and replica seed) and a ServeInstall carry the
// image itself, not an encoding of it inside another message.
func TestPartImageIsBinary(t *testing.T) {
	isImage := func(b []byte) bool { return len(b) >= 2 && b[0] == tagBin && b[1] == msgPartImage }
	for _, tc := range imageCases() {
		_, e := tc.build(t)
		if b := enc(exportAll(e)); !isImage(b) {
			t.Errorf("%s: enc(image) starts % x, want tagBin msgPartImage", tc.name, b[:2])
		}
	}

	fsys := dfs.NewDefault()
	c, err := NewCluster(ClusterConfig{NumServers: 2, FS: fsys, NamePrefix: "imgbin"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Check every image-carrying install the servers send each other.
	rec := &installRecorder{t: t}
	for _, srv := range c.servers {
		srv.SetOutbound(recordingTransport{Transport: srv.repl.out, rec: rec})
	}
	cl := c.NewClient()
	emb, err := cl.CreateEmbedding(EmbeddingSpec{Name: "e", Dim: 2, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.PushAdd(map[int64][]float64{1: {1, 2}, 2: {3, 4}, 3: {5, 6}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Checkpoint("e"); err != nil {
		t.Fatal(err)
	}
	for part := 0; part < 2; part++ {
		data, err := fsys.ReadFileSummed(CheckpointPath("e", part))
		if err != nil || !isImage(data) {
			t.Fatalf("checkpoint file of partition %d is not an image (err %v)", part, err)
		}
	}
	if err := cl.SplitPartition("e", 0, ""); err != nil {
		t.Fatalf("split: %v", err)
	}
	if _, err := cl.PublishSnapshot("e"); err != nil {
		t.Fatalf("publish: %v", err)
	}
	for _, want := range []string{"InstallPart", "ServeInstall"} {
		if rec.seen[want] == 0 {
			t.Errorf("no %s crossed the servers' outbound transport (saw %v)", want, rec.seen)
		}
	}
}

// installRecorder counts the InstallPart and ServeInstall calls servers
// originate and fails the test on one whose image is not the model's.
type installRecorder struct {
	t    *testing.T
	mu   sync.Mutex
	seen map[string]int
}

type recordingTransport struct {
	rpc.Transport
	rec *installRecorder
}

func (r recordingTransport) Call(addr, method string, body []byte) ([]byte, error) {
	var img partImage
	switch method {
	case "InstallPart":
		var req installPartReq
		if err := dec(body, &req); err != nil {
			r.rec.t.Errorf("decode InstallPart: %v", err)
		}
		img = req.Image
	case "ServeInstall":
		var req serveInstallReq
		if err := dec(body, &req); err != nil {
			r.rec.t.Errorf("decode ServeInstall: %v", err)
		}
		img = req.Image
	default:
		return r.Transport.Call(addr, method, body)
	}
	if img.Kind != Embedding || img.Rows.Dim != 2 {
		r.rec.t.Errorf("%s to %s carries a %v image of width %d, want the embedding's", method, addr, img.Kind, img.Rows.Dim)
	}
	r.rec.mu.Lock()
	if r.rec.seen == nil {
		r.rec.seen = make(map[string]int)
	}
	r.rec.seen[method]++
	r.rec.mu.Unlock()
	return r.Transport.Call(addr, method, body)
}

// FuzzPartImageDecode feeds the image decoder outside bytes: it never
// panics, what it accepts re-encodes to something that decodes to the
// same image, and an accepted image either merges into a fresh engine of
// its kind — which then exports and pulls — or is rejected by merge's
// own checks.
func FuzzPartImageDecode(f *testing.F) {
	metas := make(map[Kind]ModelMeta)
	for _, tc := range imageCases() {
		meta, e := tc.build(f)
		metas[meta.Kind] = meta
		f.Add(enc(exportAll(e))[2:])
	}
	f.Add([]byte{byte(DenseVector), 0, 0, 16, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var img, again partImage
		if dec(append([]byte{tagBin, msgPartImage}, payload...), &img) != nil {
			return
		}
		if err := dec(enc(img), &again); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !wireEq(reflect.ValueOf(img), reflect.ValueOf(again)) {
			t.Fatalf("decode → encode → decode is not a fixpoint:\n got %+v\nthen %+v", img, again)
		}
		meta, known := metas[img.Kind]
		if !known {
			meta = metas[DenseVector] // whose merge turns any other kind away
		}
		e, err := newEngine(meta, 0, 0)
		if err != nil {
			t.Fatalf("newEngine(%v): %v", meta.Kind, err)
		}
		if err := e.merge(img); err != nil {
			if !strings.Contains(err.Error(), "image does not fit") {
				t.Fatalf("merge failed outside its own checks: %v", err)
			}
			return
		}
		if !known {
			t.Fatalf("an image of kind %v merged into a DenseVector", img.Kind)
		}
		pullEverything(t, e, exportAll(e))
	})
}

// TestPartImageDecodeBoundsLengths: a length prefix larger than the
// bytes that remain fails before anything is allocated for it, whichever
// primitive reads it.
func TestPartImageDecodeBoundsLengths(t *testing.T) {
	// Every field before the one under test is written empty, as the
	// walker would; then comes the 2^40 length prefix.
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, nEmpty := range map[string]int{
		"float block (Dense)": 0, "id block (Rows.IDs)": 1, "float block (Rows.Data)": 3,
		"neighbor map (Nbr)": 11, "id block (CsrIDs)": 12,
	} {
		// Kind, Step, Lo, Hi; a RowBatch is three fields, a bool is one.
		body := append([]byte{tagBin, msgPartImage, byte(DenseVector), 0, 0, 0}, make([]byte, nEmpty)...)
		body = append(body, huge...)
		body = append(body, make([]byte, 64)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var img partImage
		err := dec(body, &img)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a 2^40 length prefix over 64 bytes decoded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoder allocated %d bytes before rejecting the length", name, grew)
		}
	}
}

// BenchmarkPartImage is the cost of moving one partition: export →
// encode → decode → stand-up of a 10k × 32 embedding partition with Adam
// state (checkpoint + restore, a replica seed, a snapshot publication).
func BenchmarkPartImage(b *testing.B) {
	meta := oneServerMeta(ModelMeta{Name: "e", Kind: Embedding, Dim: 32, InitScale: 0.1, Opt: Adam(0.01)})
	src, _ := newEngine(meta, 0, 0)
	grads := RowBatch{Dim: 32}
	for id := int64(0); id < 10_000; id++ {
		grads.IDs, grads.Data = append(grads.IDs, id), append(grads.Data, make([]float64, 32)...)
		grads.Data[len(grads.Data)-1] = float64(id)
	}
	if err := pushReq(src.(*embEngine), embPushReq{Rows: grads, Grad: true}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		data := enc(exportAll(src))
		b.SetBytes(int64(len(data)))
		var img partImage
		if err := dec(data, &img); err != nil {
			b.Fatal(err)
		}
		if _, err := engineFromImage(meta, 0, img, 0); err != nil {
			b.Fatal(err)
		}
	}
}

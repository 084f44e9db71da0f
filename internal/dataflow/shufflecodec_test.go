package dataflow

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"testing"

	"psgraph/internal/dfs"
)

// readShuffleBytes decodes file as reduce partition 0 of a one-file
// shuffle, through readShufflePart's window, and also returns the task's
// peak memory charge.
func readShuffleBytes[K comparable, V any](tb testing.TB, file []byte) ([]KV[K, V], int64, error) {
	tb.Helper()
	ctx := NewContext(dfs.NewDefault(), Config{NumExecutors: 1})
	dep := &shuffleDep{ctx: ctx, id: 1, mapParts: 1, reduceParts: 1}
	if err := ctx.FS.WriteFile(shufflePath(dep.id, 0, 0), file); err != nil {
		tb.Fatal(err)
	}
	var recs []KV[K, V]
	err := ctx.runTasks(1, func(t *Task, _ int) error {
		return readShufflePart(t, dep, 0, func(f []KV[K, V]) error { recs = append(recs, f...); return nil })
	})
	return recs, ctx.Stats().PeakExecBytes, err
}

// shuffleFile returns the bytes a map task's bucket writer produces for
// recs through the shape's registered codec.
func shuffleFile[K comparable, V any](tb testing.TB, recs []KV[K, V]) []byte {
	tb.Helper()
	ctx := NewContext(dfs.NewDefault(), Config{NumExecutors: 1})
	w := newBucketWriter(ctx, "/bucket", codecFor[K, V]())
	var err error
	for i := 0; err == nil && i < len(recs); i++ {
		err = w.write(recs[i])
	}
	if err == nil {
		_, err = w.close()
	}
	file, rerr := ctx.FS.ReadFile("/bucket")
	if err != nil || rerr != nil {
		tb.Fatal(err, rerr)
	}
	return file
}

// frame is one shuffle frame of n records around body.
func frame(n int, body []byte) []byte {
	h := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	return append(binary.LittleEndian.AppendUint32(h, uint32(n)), body...)
}

// frameSizes lists the body length and record count of each frame of a
// file the bucket writer wrote.
func frameSizes(file []byte) (sizes [][2]int) {
	for len(file) > 0 {
		size, n := int(binary.LittleEndian.Uint32(file)), int(binary.LittleEndian.Uint32(file[4:]))
		sizes, file = append(sizes, [2]int{size, n}), file[frameHeader+size:]
	}
	return sizes
}

// checkShuffleFile writes recs and requires the file to decode to exactly
// recs, nil and empty slices kept apart, and each of its frames of more
// than one record to fit the window (and a packed frame frameRecords).
func checkShuffleFile[K comparable, V any](t *testing.T, recs []KV[K, V]) (file []byte, peak int64) {
	t.Helper()
	file = shuffleFile(t, recs)
	for _, f := range frameSizes(file) {
		if f[1] > 1 && frameHeader+f[0] > shuffleChunk || f[1] > frameRecords && codecFor[K, V]().pack != nil {
			t.Fatalf("a frame of %d records and %d bytes", f[1], f[0])
		}
	}
	got, peak, err := readShuffleBytes[K, V](t, file)
	if err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("file of %d bytes: %d of %d records back, err %v", len(file), len(got), len(recs), err)
	}
	return file, peak
}

// checkWindowEdge puts the window's edge at every offset of the frame the
// probes make: for c from 0 to its length, frames of one record of the
// shape's zero value, their keys one to ten varint bytes long, make the
// probe frame start c bytes before the edge, so the edge cuts its header
// or its body at every byte. The frame repeats after it, at another
// offset of the next window.
func checkWindowEdge[V any](t *testing.T, probes []KV[int64, V]) {
	t.Helper()
	probe := shuffleFile(t, probes)
	if len(frameSizes(probe)) != 1 {
		t.Fatalf("the probes make %d frames", len(frameSizes(probe)))
	}
	var pads [10][]byte // pads[l]: one record, its key an (l+1)-byte varint
	var keys [10]int64
	for l := range pads {
		if l > 0 {
			keys[l] = 1 << (7*l - 1)
		}
		if pads[l] = shuffleFile(t, []KV[int64, V]{{K: keys[l]}}); len(pads[l]) != len(pads[0])+l {
			t.Fatalf("a %d-byte key makes a %d-byte frame", l+1, len(pads[l]))
		}
	}
	a := len(pads[0])
	for c := 0; c <= len(probe); c++ {
		n := shuffleChunk - c // padding bytes
		f := (n + a + 8) / (a + 9)
		var file []byte
		var recs []KV[int64, V]
		for extra := n - f*a; f > 0; f-- {
			l := min(extra, 9)
			extra -= l
			file, recs = append(file, pads[l]...), append(recs, KV[int64, V]{K: keys[l]})
		}
		file = append(append(file, probe...), probe...)
		recs = append(append(recs, probes...), probes...)
		if got, _, err := readShuffleBytes[int64, V](t, file); err != nil || !reflect.DeepEqual(got, recs) {
			t.Fatalf("probe frame %d bytes before the edge: %d of %d records, err %v", c, len(got), len(recs), err)
		}
	}
}

// decodeShape decodes file as a shuffle file of the fuzz target's shape
// number shape, returning the record count, the peak charge and the error.
func decodeShape(tb testing.TB, shape uint8, file []byte) (int, int64, error) {
	switch shape % 5 {
	case 0:
		recs, peak, err := readShuffleBytes[int64, int64](tb, file)
		return len(recs), peak, err
	case 1:
		recs, peak, err := readShuffleBytes[int64, float64](tb, file)
		return len(recs), peak, err
	case 2:
		recs, peak, err := readShuffleBytes[int64, []float64](tb, file)
		return len(recs), peak, err
	case 3:
		recs, peak, err := readShuffleBytes[int64, []int64](tb, file)
		return len(recs), peak, err
	default:
		recs, peak, err := readShuffleBytes[int64, struct{}](tb, file)
		return len(recs), peak, err
	}
}

// packedBody is an i64-i64 frame body with the given widths and minimums
// and a packed payload of n records, all offsets zero.
func packedBody(kw, vw byte, kmin, vmin int64, n int) []byte {
	b := binary.AppendVarint(binary.AppendVarint([]byte{kw, vw}, kmin), vmin)
	return append(b, make([]byte, (n-1)*int(kw+vw)/8+8)...)
}

// hostileFrames are files whose frames claim what they do not hold, by
// the fuzz target's shape numbers: each must decode to an error, with no
// panic and no allocation of the claimed size, after recs records of the
// frames before the bad one.
var hostileFrames = []struct {
	name  string
	shape uint8
	file  []byte
	recs  int
}{
	{"torn length prefix", 0, []byte{0x14, 0, 0}, 0},
	{"torn count", 3, append(frame(1, AppendI64s(binary.AppendVarint(nil, 1), []int64{2})), 9, 0, 0, 0, 1, 0), 1},
	{"a count larger than the frame body", 4, frame(5, []byte{2, 4, 6, 8}), 0},
	{"more records than a packed frame holds", 0, frame(frameRecords+1, packedBody(1, 1, 0, 0, frameRecords+1)), 0},
	{"a packed count past its payload", 0, frame(3, packedBody(9, 9, 0, 0, 2)), 0},
	{"a key width of 0", 0, frame(1, packedBody(0, 5, 0, 0, 1)), 0},
	{"a value width of 0", 0, frame(1, packedBody(5, 0, 0, 0, 1)), 0},
	{"widths over 56 on a packed payload", 0, frame(4, packedBody(40, 20, 1, 1, 4)), 0},
	{"a width over 64", 0, frame(1, packedBody(65, 1, 0, 0, 1)), 0},
	{"kmin + offset overflowing", 0, frame(1, packedBody(3, 1, math.MaxInt64-2, 0, 1)), 0},
	{"vmin + offset overflowing", 0, frame(1, packedBody(1, 3, 0, math.MaxInt64-2, 1)), 0},
	{"varints short of the count", 0, frame(3, binary.AppendVarint(binary.AppendVarint([]byte{64, 64}, 1), 2)), 0},
	{"an empty frame", 1, frame(0, nil), 0},
	{"records short of the body", 1, frame(1, AppendF64(binary.AppendVarint(AppendF64(binary.AppendVarint(nil, 1), 2), 3), 4)), 1},
	{"a frame longer than the window", 3, frame(2, make([]byte, shuffleChunk)), 0},
	{"a one-record frame claiming 4 GiB", 3, append([]byte{0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0}, make([]byte, 100)...), 0},
	{"a 2^40-float claim", 2, frame(1, append(binary.AppendUvarint(binary.AppendVarint(nil, 1), 1<<40+1), make([]byte, 100)...)), 0},
	{"a 2^40-id claim", 3, frame(1, append(binary.AppendUvarint(binary.AppendVarint(nil, 1), 1<<40+1), make([]byte, 100)...)), 0},
}

// TestShuffleWindowBoundaries: a reduce task decodes its files through one
// 64 KiB window, a frame at a time. A frame the window's end cuts is
// decoded once the refill brings the rest, a one-record frame longer than
// the window grows it (charged to the task), and a file that ends inside a
// frame, or a frame that claims more than it holds, is an error.
func TestShuffleWindowBoundaries(t *testing.T) {
	t.Run("edge/i64-i64", func(t *testing.T) {
		checkWindowEdge(t, []KV[int64, int64]{{K: 5, V: 7}, {K: 1 << 20, V: -3}, {K: -1 << 17, V: 1 << 30}})
		checkWindowEdge(t, []KV[int64, int64]{ // widths over 56: varints
			{K: math.MinInt64, V: math.MaxInt64}, {K: 300, V: -(1 << 17)},
		})
	})
	t.Run("edge/i64-f64", func(t *testing.T) {
		checkWindowEdge(t, []KV[int64, float64]{{K: -1 << 40, V: math.Inf(-1)}})
	})
	t.Run("edge/i64-f64s", func(t *testing.T) {
		checkWindowEdge(t, []KV[int64, []float64]{{K: 1 << 30, V: []float64{-2}}, {K: 2, V: []float64{}}})
	})
	t.Run("edge/i64-i64s", func(t *testing.T) {
		checkWindowEdge(t, []KV[int64, []int64]{{K: 9, V: []int64{math.MinInt64, 1 << 17}}, {K: 3, V: []int64{}}})
	})
	t.Run("edge/i64-unit", func(t *testing.T) {
		checkWindowEdge(t, []KV[int64, struct{}]{{K: math.MaxInt64}, {K: 1 << 17}})
	})
	t.Run("empty", func(t *testing.T) {
		checkShuffleFile[int64, int64](t, nil)
		checkShuffleFile[int64, []float64](t, nil)
	})
	t.Run("packed-frames", func(t *testing.T) {
		recs := make([]KV[int64, int64], 2*frameRecords+904)
		for i := range recs {
			recs[i] = KV[int64, int64]{K: int64(i) * 37 % 1000, V: -int64(i)}
		}
		recs[frameRecords+5].V = math.MaxInt64 // the second frame's widths pass 56: varints
		file, _ := checkShuffleFile(t, recs)
		// Widths 10 and 11 (keys 0 to 999, values -2047 to 0), a one-byte
		// and a two-byte minimum, and 8 bytes from the last record's first.
		packed := 2 + 1 + 2 + (frameRecords-1)*21/8 + 8
		if got := frameSizes(file); len(got) != 3 || got[0] != [2]int{packed, frameRecords} ||
			got[1][1] != frameRecords || got[1][0] < 2*frameRecords || got[2][1] != 904 {
			t.Fatalf("frames %v, want a %d-byte packed frame, then 2,048 records as varints and 904", got, packed)
		}
	})
	t.Run("longer-than-the-window", func(t *testing.T) {
		ids := make([]int64, 100_000)
		for i := range ids {
			ids[i] = int64(i) * 1_000_003 // ~4-byte varints: a ~400 KB record
		}
		file, peak := checkShuffleFile(t, []KV[int64, []int64]{{K: 1, V: []int64{2}}, {K: 3, V: ids}, {K: 4, V: nil}})
		if peak < int64(len(file)) || peak > 2*int64(len(file))+shuffleChunk {
			t.Errorf("a %d-byte record was charged %d bytes at peak", len(file), peak)
		}
		floats := make([]float64, 25_600) // a 200 KB record
		checkShuffleFile(t, []KV[int64, []float64]{{K: 1, V: floats}, {K: 2, V: []float64{1}}})
		// Each 40 KB record would carry the frame before it past the window:
		// it opens the next one.
		half := floats[:5120]
		file, _ = checkShuffleFile(t, []KV[int64, []float64]{{K: 1, V: half}, {K: 2, V: half}, {K: 3, V: half}, {K: 4, V: nil}})
		if got := frameSizes(file); len(got) != 3 || got[0][1] != 1 || got[1][1] != 1 || got[2][1] != 2 {
			t.Errorf("three 40 KB records and a short one made frames %v", got)
		}

		file = shuffleFile(t, []KV[int64, []int64]{{K: 3, V: ids}})
		if recs, _, err := readShuffleBytes[int64, []int64](t, file[:len(file)-1]); err == nil || len(recs) != 0 {
			t.Errorf("a file cut inside its one frame: %d records, err %v", len(recs), err)
		}
	})
	t.Run("torn", func(t *testing.T) {
		// A file cut at every byte around the boundary of its two frames
		// yields the first frame's records once all of it arrived, and an
		// error unless it ends exactly at a boundary.
		recs := make([]KV[int64, int64], frameRecords+2)
		for i := range recs {
			recs[i] = KV[int64, int64]{K: int64(i), V: int64(i) << 20}
		}
		file := shuffleFile(t, recs)
		edge := frameHeader + frameSizes(file)[0][0]
		for cut := edge - frameHeader - 3; cut <= edge+frameHeader+3; cut++ {
			got, _, err := readShuffleBytes[int64, int64](t, file[:cut])
			if wantN := frameRecords * min(cut/edge, 1); len(got) != wantN || (err == nil) != (cut == edge) {
				t.Errorf("cut at byte %d of %d (frame edge %d): %d records, err %v", cut, len(file), edge, len(got), err)
			}
		}
	})
	t.Run("hostile", func(t *testing.T) {
		for _, h := range hostileFrames {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n, peak, err := decodeShape(t, h.shape, h.file)
			runtime.ReadMemStats(&after)
			if err == nil || n != h.recs || peak > shuffleChunk {
				t.Errorf("%s: %d records, %d bytes charged, err %v", h.name, n, peak, err)
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 4<<20 {
				t.Errorf("%s: allocated %d bytes for a %d-byte file", h.name, grown, len(h.file))
			}
		}
	})
}

// fuzzShuffleStream decodes data as a binary shuffle file of KV[K, V]
// records, through readShufflePart's window. Whatever the bytes
// claim, the decoder may only report an error: no panic, and no record
// whose payload is longer than the stream that carried it. Records it does
// accept must be written again to a file that decodes to the same records,
// and that same file again from those.
func fuzzShuffleStream[K comparable, V any](t *testing.T, data []byte, size func(V) int) {
	t.Helper()
	codec := codecFor[K, V]()
	if codec == nil {
		t.Fatalf("no built-in codec for %T", KV[K, V]{})
	}
	decode := func(b []byte) ([]KV[K, V], error) {
		recs, _, err := readShuffleBytes[K, V](t, b)
		for _, kv := range recs {
			if n := size(kv.V); n > len(b) {
				t.Fatalf("%s: a %d-byte stream produced a %d-element value", codec.name, len(b), n)
			}
		}
		return recs, err
	}
	recs, err := decode(data)
	if err != nil {
		return
	}
	again := shuffleFile(t, recs)
	back, err := decode(again)
	if err != nil || len(back) != len(recs) {
		t.Fatalf("%s: re-encoded %d records, decoded %d (%v)", codec.name, len(recs), len(back), err)
	}
	if !bytes.Equal(again, shuffleFile(t, back)) {
		t.Fatalf("%s: records changed on a round trip", codec.name)
	}
}

// FuzzShuffleDecode feeds hostile bytes to every built-in shuffle codec
// (ROADMAP items 3 and 5): a torn or corrupt shuffle file must surface as
// an error, never as a panic or an allocation of the length it claims.
func FuzzShuffleDecode(f *testing.F) {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), 5e-324, 1.5}
	f.Add(uint8(0), shuffleFile(f, []KV[int64, int64]{{K: -3, V: 1 << 40}}))
	f.Add(uint8(0), shuffleFile(f, []KV[int64, int64]{{K: math.MinInt64, V: 1}, {K: math.MaxInt64, V: 2}}))
	f.Add(uint8(1), frame(1, AppendF64(binary.AppendVarint(nil, 9), math.NaN())))
	f.Add(uint8(2), frame(2, AppendF64s(binary.AppendVarint(AppendF64s(binary.AppendVarint(nil, 1), nil), 2), vals)))
	f.Add(uint8(3), frame(1, AppendI64s(binary.AppendVarint(nil, 4), []int64{math.MinInt64, 0, math.MaxInt64})))
	f.Add(uint8(4), frame(1, binary.AppendVarint(nil, 6)))
	// The lengths a torn file claims: 2^62 floats, 2^63 and 2^64-2 ids.
	f.Add(uint8(2), frame(1, binary.AppendUvarint(binary.AppendVarint(nil, 1), 1<<62)))
	f.Add(uint8(3), frame(1, binary.AppendUvarint(binary.AppendVarint(nil, 1), 1<<63)))
	f.Add(uint8(3), frame(1, binary.AppendUvarint(binary.AppendVarint(nil, 1), math.MaxUint64)))
	f.Add(uint8(2), frame(1, append(binary.AppendUvarint(binary.AppendVarint(nil, 1), 1<<30), make([]byte, 200)...)))
	// Two windows of pairs in frames, the last frame cut in its middle.
	var pairs []KV[int64, int64]
	for k := int64(0); len(pairs) < 9*frameRecords; k++ {
		pairs = append(pairs, KV[int64, int64]{K: k << 10, V: -k})
	}
	file := shuffleFile(f, pairs)
	f.Add(uint8(0), file)
	f.Add(uint8(0), file[:len(file)-100])
	for _, h := range hostileFrames {
		f.Add(h.shape, h.file)
	}
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		switch shape % 5 {
		case 0:
			fuzzShuffleStream[int64, int64](t, data, func(int64) int { return 0 })
		case 1:
			fuzzShuffleStream[int64, float64](t, data, func(float64) int { return 0 })
		case 2:
			fuzzShuffleStream[int64, []float64](t, data, func(v []float64) int { return len(v) })
		case 3:
			fuzzShuffleStream[int64, []int64](t, data, func(v []int64) int { return len(v) })
		case 4:
			fuzzShuffleStream[int64, struct{}](t, data, func(struct{}) int { return 0 })
		}
	})
}

// TestShuffleStageIsCharged: a reduce task is charged for the slice its
// frames are decoded into as it is for its window (half a chunk): a full
// packed frame's 2,048 pairs take the other half, a record codec's frame
// what its records hold.
func TestShuffleStageIsCharged(t *testing.T) {
	pairs := make([]KV[int64, int64], frameRecords)
	for i := range pairs {
		pairs[i] = KV[int64, int64]{K: int64(i), V: -int64(i)}
	}
	if _, peak, err := readShuffleBytes[int64, int64](t, shuffleFile(t, pairs)); err != nil || peak != shuffleChunk {
		t.Errorf("a packed frame of %d pairs: peak charge %d, want %d (%v)", frameRecords, peak, shuffleChunk, err)
	}
	keys := make([]KV[int64, struct{}], 3000) // one frame of 1- and 2-byte records
	for i := range keys {
		keys[i].K = int64(i)
	}
	file := shuffleFile(t, keys)
	staged := int64(len(keys)) * int64(reflect.TypeOf(keys[0]).Size())
	if got, peak, err := readShuffleBytes[int64, struct{}](t, file); err != nil || len(got) != len(keys) ||
		len(frameSizes(file)) != 1 || peak < shuffleChunk/2+staged || peak > shuffleChunk/2+2*staged {
		t.Errorf("%d records: peak charge %d, want the window's %d and about %d staged (%v)", len(got), peak, shuffleChunk/2, staged, err)
	}
}

// TestShuffleDecodeDoesNotTrustLengths: the slice decoders, handed a
// prefix that claims a gigabyte and a stream that ends, allocate for what
// arrived. Before they checked, each made the slice first: ~8 GB.
func TestShuffleDecodeDoesNotTrustLengths(t *testing.T) {
	claim := append(binary.AppendUvarint(nil, 1<<30+1), make([]byte, 4096)...)
	for name, read := range map[string]func(r *BinReader) int{
		"F64s": func(r *BinReader) int { return len(r.F64s()) },
		"I64s": func(r *BinReader) int { return len(r.I64s()) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := newBinReaderBytes(claim)
		n := read(r)
		runtime.ReadMemStats(&after)
		if n != 0 || r.Err() == nil {
			t.Errorf("%s: a stream cut short decoded to %d elements, err %v", name, n, r.Err())
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
			t.Errorf("%s: allocated %d bytes for a 4 KB stream", name, grown)
		}
	}
}

// An i64-f64s shuffle record as 857c658 encoded it, one value at a time;
// the values are the ones a conversion could bend.
const goldenF64sRecord = "d70409230100000000f87f010000000000f0ff00000000000000800100000000000000ffffffffffff0f00000000000000f07f000000000000f0ff000000000000f83f"

// TestShuffleF64sRecordGolden: the record's bytes did not change when its
// float block became one memmove, and it decodes bit for bit at every
// alignment of the stream in the read buffer.
func TestShuffleF64sRecordGolden(t *testing.T) {
	bits := []uint64{0x7ff8000000000123, 0xfff0000000000001, 0x8000000000000000, 1,
		0x000fffffffffffff, 0x7ff0000000000000, 0xfff0000000000000, 0x3ff8000000000000}
	kv := KV[int64, []float64]{K: -300, V: make([]float64, len(bits))}
	for i, u := range bits {
		kv.V[i] = math.Float64frombits(u)
	}
	codec := codecFor[int64, []float64]()
	rec := codec.enc(nil, kv)
	if got := hex.EncodeToString(rec); got != goldenF64sRecord {
		t.Fatalf("i64-f64s record\n got %s\nwant %s", got, goldenF64sRecord)
	}
	for shift := 0; shift < 8; shift++ {
		r := newBinReaderBytes(append(make([]byte, shift), rec...))
		r.off = shift
		got := codec.dec(r)
		if r.Err() != nil || r.off != len(r.b) || got.K != kv.K || len(got.V) != len(bits) {
			t.Fatalf("shift %d: decoded %v (%v)", shift, got, r.Err())
		}
		for i, u := range bits {
			if math.Float64bits(got.V[i]) != u {
				t.Errorf("shift %d: value %d decoded as %#x, want %#x", shift, i, math.Float64bits(got.V[i]), u)
			}
		}
	}
}

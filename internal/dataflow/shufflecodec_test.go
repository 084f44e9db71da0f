package dataflow

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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
		return readShufflePart(t, dep, 0, func(kv KV[K, V]) error { recs = append(recs, kv); return nil })
	})
	return recs, ctx.Stats().PeakExecBytes, err
}

// shuffleFile returns the bytes a map task's bucket writer produces for
// recs: the binary format through codec, gob when codec is nil.
func shuffleFile[K comparable, V any](tb testing.TB, recs []KV[K, V], codec *shuffleCodec[K, V]) []byte {
	tb.Helper()
	ctx := NewContext(dfs.NewDefault(), Config{NumExecutors: 1})
	w, err := newBucketWriter(ctx, "/bucket", codec)
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

// checkShuffleFile writes recs in both formats and requires each file to
// decode to exactly recs (the binary one) and to the same records (gob,
// which does not keep nil apart from empty).
func checkShuffleFile[K comparable, V any](t *testing.T, recs []KV[K, V]) (binFile []byte, peak int64) {
	t.Helper()
	binFile = shuffleFile(t, recs, codecFor[K, V]())
	got, peak, err := readShuffleBytes[K, V](t, binFile)
	if err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("binary file of %d bytes: %d of %d records back, err %v", len(binFile), len(got), len(recs), err)
	}
	ref, _, err := readShuffleBytes[K, V](t, shuffleFile(t, recs, nil))
	if err != nil || len(ref) != len(recs) {
		t.Fatalf("gob reference: %d of %d records back, err %v", len(ref), len(recs), err)
	}
	for i := range ref {
		if !reflect.DeepEqual(ref[i], got[i]) && fmt.Sprint(ref[i]) != fmt.Sprint(got[i]) {
			t.Fatalf("record %d: binary %v, gob %v", i, got[i], ref[i])
		}
	}
	return binFile, peak
}

// checkWindowEdge puts the window's edge at every offset of probes: for c
// from 0 to their length, padding records of the shape's zero value, their
// keys one, two or ten varint bytes long, make the probes start c bytes
// before the edge. The probes repeat after it, at another offset of the
// next window.
func checkWindowEdge[V any](t *testing.T, probes []KV[int64, V]) {
	t.Helper()
	codec := codecFor[int64, V]()
	var probeBytes []byte
	for _, kv := range probes {
		probeBytes = codec.enc(probeBytes, kv)
	}
	a := len(codec.enc(nil, KV[int64, V]{}))
	for c := 0; c <= len(probeBytes); c++ {
		n := shuffleChunk - 1 - c // padding bytes after the format byte
		var recs []KV[int64, V]
		for ; n > a*(a+1)+a+9; n -= a + 9 {
			recs = append(recs, KV[int64, V]{K: math.MinInt64})
		}
		for i := 0; i < n/a; i++ {
			k := int64(0)
			if i < n%a {
				k = 64 // a two-byte varint
			}
			recs = append(recs, KV[int64, V]{K: k})
		}
		recs = append(append(recs, probes...), probes...)
		file, _ := checkShuffleFile(t, recs)
		if at := shuffleChunk - c; !bytes.Equal(file[at:at+len(probeBytes)], probeBytes) {
			t.Fatalf("%s: the probes do not start %d bytes before the edge", codec.name, c)
		}
	}
}

// TestShuffleWindowBoundaries: a reduce task decodes its files through one
// 64 KiB window. A record the window's end cuts is decoded again after a
// refill, a record longer than the window grows it (charged to the task),
// and a file that ends inside a record, or claims more than it holds, is
// an error.
func TestShuffleWindowBoundaries(t *testing.T) {
	t.Run("edge/i64-i64", func(t *testing.T) {
		checkWindowEdge(t, []KV[int64, int64]{
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
	t.Run("edge/i64-bytes", func(t *testing.T) {
		checkWindowEdge(t, []KV[int64, []byte]{{K: -5, V: []byte("edge")}, {K: 4, V: []byte{}}})
	})
	t.Run("edge/i64-unit", func(t *testing.T) {
		checkWindowEdge(t, []KV[int64, struct{}]{{K: math.MaxInt64}, {K: 1 << 17}})
	})
	t.Run("empty", func(t *testing.T) {
		checkShuffleFile[int64, int64](t, nil)
		checkShuffleFile[int64, []byte](t, nil)
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
		raw := bytes.Repeat([]byte("0123456789abcdef"), 200<<10/16)
		checkShuffleFile(t, []KV[int64, []byte]{{K: 1, V: raw}, {K: 2, V: []byte("x")}})

		file = shuffleFile(t, []KV[int64, []int64]{{K: 3, V: ids}}, codecFor[int64, []int64]())
		if recs, _, err := readShuffleBytes[int64, []int64](t, file[:len(file)-1]); err == nil || len(recs) != 0 {
			t.Errorf("a file cut inside its one record: %d records, err %v", len(recs), err)
		}
	})
	t.Run("torn", func(t *testing.T) {
		file := shuffleFile(t, []KV[int64, int64]{{K: 1, V: 2}, {K: 3, V: 1 << 40}}, codecFor[int64, int64]())
		if recs, _, err := readShuffleBytes[int64, int64](t, file[:len(file)-1]); err == nil || len(recs) != 1 {
			t.Errorf("a file cut inside its last record: %d records, err %v", len(recs), err)
		}
		claim := append(binary.AppendUvarint(binary.AppendVarint([]byte{shuffleFmtBin}, 1), 1<<40+1), make([]byte, 100)...)
		claimed := func(name string, n int, peak int64, err error) {
			if err == nil || n != 0 || peak > shuffleChunk {
				t.Errorf("%s: a 2^40-element claim: %d records, %d bytes charged, err %v", name, n, peak, err)
			}
		}
		f64s, peak, err := readShuffleBytes[int64, []float64](t, claim)
		claimed("F64s", len(f64s), peak, err)
		i64s, peak, err := readShuffleBytes[int64, []int64](t, claim)
		claimed("I64s", len(i64s), peak, err)
		raw, peak, err := readShuffleBytes[int64, []byte](t, claim)
		claimed("Raw", len(raw), peak, err)
	})
}

// fuzzShuffleStream decodes data as a binary shuffle file of KV[K, V]
// records, through readShufflePart's window. Whatever the bytes
// claim, the decoder may only report an error: no panic, and no record
// whose payload is longer than the stream that carried it. Records it does
// accept must re-encode to bytes that decode to the same records.
func fuzzShuffleStream[K comparable, V any](t *testing.T, data []byte, size func(V) int) {
	t.Helper()
	codec := codecFor[K, V]()
	if codec == nil {
		t.Fatalf("no built-in codec for %T", KV[K, V]{})
	}
	decode := func(b []byte) ([]KV[K, V], error) {
		recs, _, err := readShuffleBytes[K, V](t, append([]byte{shuffleFmtBin}, b...))
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
	var again []byte
	for _, kv := range recs {
		again = codec.enc(again, kv)
	}
	back, err := decode(again)
	if err != nil || len(back) != len(recs) {
		t.Fatalf("%s: re-encoded %d records, decoded %d (%v)", codec.name, len(recs), len(back), err)
	}
	var third []byte
	for _, kv := range back {
		third = codec.enc(third, kv)
	}
	if !bytes.Equal(again, third) {
		t.Fatalf("%s: records changed on a round trip", codec.name)
	}
}

// FuzzShuffleDecode feeds hostile bytes to every built-in shuffle codec
// (ROADMAP items 3 and 5): a torn or corrupt shuffle file must surface as
// Err(), never as a panic or an allocation of the length it claims.
func FuzzShuffleDecode(f *testing.F) {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), 5e-324, 1.5}
	f.Add(uint8(0), binary.AppendVarint(binary.AppendVarint(nil, -3), 1<<40))
	f.Add(uint8(1), AppendF64(binary.AppendVarint(nil, 9), math.NaN()))
	f.Add(uint8(2), AppendF64s(binary.AppendVarint(AppendF64s(binary.AppendVarint(nil, 1), nil), 2), vals))
	f.Add(uint8(3), AppendI64s(binary.AppendVarint(nil, 4), []int64{math.MinInt64, 0, math.MaxInt64}))
	f.Add(uint8(4), AppendRaw(binary.AppendVarint(nil, 5), []byte("abc")))
	f.Add(uint8(5), binary.AppendVarint(nil, 6))
	// The lengths a torn file claims: 2^62 floats, 2^63 ids, 2^64-2 bytes.
	f.Add(uint8(2), binary.AppendUvarint(binary.AppendVarint(nil, 1), 1<<62))
	f.Add(uint8(3), binary.AppendUvarint(binary.AppendVarint(nil, 1), 1<<63))
	f.Add(uint8(4), binary.AppendUvarint(binary.AppendVarint(nil, 1), math.MaxUint64))
	f.Add(uint8(2), append(binary.AppendUvarint(binary.AppendVarint(nil, 1), 1<<30), make([]byte, 200)...))
	// Two windows of pairs, the record at the edge cut in its middle.
	var pairs []byte
	for k := int64(0); len(pairs) < shuffleChunk+100; k++ {
		pairs = binary.AppendVarint(binary.AppendVarint(pairs, k<<10), -k)
	}
	f.Add(uint8(0), pairs)
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		switch shape % 6 {
		case 0:
			fuzzShuffleStream[int64, int64](t, data, func(int64) int { return 0 })
		case 1:
			fuzzShuffleStream[int64, float64](t, data, func(float64) int { return 0 })
		case 2:
			fuzzShuffleStream[int64, []float64](t, data, func(v []float64) int { return len(v) })
		case 3:
			fuzzShuffleStream[int64, []int64](t, data, func(v []int64) int { return len(v) })
		case 4:
			fuzzShuffleStream[int64, []byte](t, data, func(v []byte) int { return len(v) })
		case 5:
			fuzzShuffleStream[int64, struct{}](t, data, func(struct{}) int { return 0 })
		}
	})
}

// TestShuffleDecodeDoesNotTrustLengths: the three slice decoders, handed a
// prefix that claims a gigabyte and a stream that ends, allocate for what
// arrived. At the parent each made the slice first: ~8 GB, 8 GB and 1 GB.
func TestShuffleDecodeDoesNotTrustLengths(t *testing.T) {
	claim := append(binary.AppendUvarint(nil, 1<<30+1), make([]byte, 4096)...)
	for name, read := range map[string]func(r *BinReader) int{
		"F64s": func(r *BinReader) int { return len(r.F64s()) },
		"I64s": func(r *BinReader) int { return len(r.I64s()) },
		"Raw":  func(r *BinReader) int { return len(r.Raw()) },
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

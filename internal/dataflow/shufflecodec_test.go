package dataflow

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// fuzzShuffleStream decodes data as a stream of KV[K, V] records through
// the registered codec, the way readShuffleFile does. Whatever the bytes
// claim, the decoder may only report an error: no panic, and no record
// whose payload is longer than the stream that carried it. Records it does
// accept must re-encode to bytes that decode to the same records.
func fuzzShuffleStream[K comparable, V any](t *testing.T, data []byte, size func(V) int) {
	t.Helper()
	codec := codecFor[K, V]()
	if codec == nil {
		t.Fatalf("no built-in codec for %T", KV[K, V]{})
	}
	decode := func(b []byte) (recs []KV[K, V], err error) {
		r := newBinReader(bufio.NewReaderSize(bytes.NewReader(b), 64))
		for r.more() {
			kv := codec.dec(r)
			if r.Err() != nil {
				break
			}
			if n := size(kv.V); n > len(b) {
				t.Fatalf("%s: a %d-byte stream produced a %d-element value", codec.name, len(b), n)
			}
			recs = append(recs, kv)
		}
		return recs, r.Err()
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
		r.br.Discard(shift)
		got := codec.dec(r)
		if r.Err() != nil || r.more() || got.K != kv.K || len(got.V) != len(bits) {
			t.Fatalf("shift %d: decoded %v (%v)", shift, got, r.Err())
		}
		for i, u := range bits {
			if math.Float64bits(got.V[i]) != u {
				t.Errorf("shift %d: value %d decoded as %#x, want %#x", shift, i, math.Float64bits(got.V[i]), u)
			}
		}
	}
}

package dataflow

// Shuffle codecs. A shuffle file is a sequence of frames, the only shuffle
// format: a frame is an 8-byte header (the body's length and its record
// count, each a little-endian uint32) and a body of records of the concrete
// KV[K, V] shape. A record codec, registered with RegisterShuffleCodec,
// fills a frame record by record with the varint + little-endian machinery
// the PS wire codec uses; the built-in i64-i64 codec packs a whole frame at
// once (packPairs). Packages owning other element types (graphx edges, core
// adjacency fragments) register their own record codecs. A shuffle over a
// shape with no codec panics when it is built (writeShuffle).
//
// The format streams: the map side writes a bucket a frame at a time, the
// reduce side reads a whole frame into one window per task and decodes it
// into one slice — no side ever holds a whole encoded bucket in memory, so
// the transient-memory charge per bucket is one chunk, not the bucket.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sync"

	"psgraph/internal/f64le"
)

// shuffleChunk is the longest frame of more than one record; a map task
// is charged one per open bucket, and a reduce task's window starts at half
// of one (shuffleWindow). A frame's header is its body's length and record
// count. A packed frame
// holds up to frameRecords pairs of at most packedBits each: a record and
// the up to 7 bits before it in its first byte are one 8-byte load.
const (
	shuffleChunk = 64 << 10
	frameHeader  = 8
	frameRecords = 2048
	packedBits   = 56
)

// ---------------------------------------------------------------------------
// Append helpers for codec implementers (the encode side works on plain
// byte slices; ints use encoding/binary's AppendVarint/AppendUvarint).

// AppendF64 appends v as 8 little-endian bytes.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendF64s appends a float slice as a length-prefixed little-endian
// bulk copy. Nil-ness is preserved: length 0 = nil, n+1 = n elements.
func AppendF64s(b []byte, s []float64) []byte {
	if s == nil {
		return binary.AppendUvarint(b, 0)
	}
	return f64le.Append(binary.AppendUvarint(b, uint64(len(s))+1), s)
}

// AppendI64s appends an int64 slice as length-prefixed varints,
// preserving nil-ness like AppendF64s. Values are not delta-coded:
// shuffle streams arrive in hash order, where deltas would be noise.
func AppendI64s(b []byte, s []int64) []byte {
	if s == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(s))+1)
	for _, v := range s {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// ---------------------------------------------------------------------------
// BinReader: the decode-side cursor handed to codec Read functions.

// BinReader reads binary shuffle records out of one frame's body. A
// primitive that runs past the body's end returns a zero value and leaves
// the cursor past it, as does a malformed value, which also latches an
// error; either way every later read returns zero, so a codec decodes a
// whole record and its caller checks once whether it was all there.
type BinReader struct {
	b   []byte
	off int
	err error
}

// Err reports the first malformed value, or a record cut short by the end
// of the bytes.
func (r *BinReader) Err() error {
	if r.err == nil && r.cut() {
		return fmt.Errorf("dataflow: shuffle decode: %w", io.ErrUnexpectedEOF)
	}
	return r.err
}

func (r *BinReader) cut() bool { return r.off > len(r.b) }

// Varint reads one zigzag varint.
func (r *BinReader) Varint() int64 {
	ux := r.Uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

// Uvarint reads one unsigned varint.
func (r *BinReader) Uvarint() uint64 {
	switch v, n := binary.Uvarint(r.b[min(r.off, len(r.b)):]); {
	case n > 0:
		r.off += n
		return v
	case n < 0:
		r.err = fmt.Errorf("dataflow: shuffle decode: varint overflows 64 bits")
	}
	r.off = len(r.b) + 1
	return 0
}

// has reports whether the next n bytes are in the body, and cuts the
// record when they are not.
func (r *BinReader) has(n uint64) bool {
	if r.cut() || n > uint64(len(r.b)-r.off) {
		r.off = len(r.b) + 1
		return false
	}
	return true
}

// take returns the next n bytes of the body, or nil when it cut.
func (r *BinReader) take(n uint64) []byte {
	if !r.has(n) {
		return nil
	}
	r.off += int(n)
	return r.b[r.off-int(n) : r.off]
}

// F64 reads one little-endian float64.
func (r *BinReader) F64() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// sliceLen decodes the nil-preserving length prefix: (0, false) for nil.
// A length is a claim by whoever wrote the file: the slice decoders take
// its bytes out of the frame's body before they allocate, so a torn or
// hostile one costs a cut record (an error), not an allocation of its size.
func (r *BinReader) sliceLen() (uint64, bool) {
	n := r.Uvarint()
	return n - 1, n != 0 && !r.cut()
}

// F64s reads a slice written by AppendF64s.
func (r *BinReader) F64s() []float64 {
	n, ok := r.sliceLen()
	if !ok || !r.has(n) { // n bytes in the body: 8n cannot overflow
		return nil
	}
	raw := r.take(8 * n)
	if raw == nil {
		return nil
	}
	s := make([]float64, n)
	f64le.Get(s, raw)
	return s
}

// I64s reads a slice written by AppendI64s. Each element is at least a
// byte, so a body that holds fewer bytes than the length cuts the record
// before the slice is made.
func (r *BinReader) I64s() []int64 {
	n, ok := r.sliceLen()
	if !ok || !r.has(n) {
		return nil
	}
	s := make([]int64, n)
	for i := range s {
		s[i] = r.Varint()
	}
	if r.cut() {
		return nil
	}
	return s
}

// ---------------------------------------------------------------------------
// Codec registry.

// shuffleCodec is the binary format of one concrete KV[K, V] shape: a
// record codec (enc, dec) or a frame codec (pack, unpack: the body of one
// frame of 1 to frameRecords records, and that body, claiming n of them,
// decoded into out, grown to n).
type shuffleCodec[K comparable, V any] struct {
	name   string
	enc    func(b []byte, kv KV[K, V]) []byte
	dec    func(r *BinReader) KV[K, V]
	pack   func(b []byte, recs []KV[K, V]) []byte
	unpack func(body []byte, n int, out []KV[K, V]) ([]KV[K, V], error)
}

// shuffleCodecs maps reflect.Type of *KV[K, V] to *shuffleCodec[K, V].
var shuffleCodecs sync.Map

func codecKey[K comparable, V any]() reflect.Type {
	return reflect.TypeOf((*KV[K, V])(nil))
}

// RegisterShuffleCodec installs a binary shuffle codec for elements of
// type KV[K, V]. enc appends one record to the buffer (using the
// Append* helpers and encoding/binary); dec reads one record back and
// must consume exactly what enc wrote, at least one byte. Registering a
// shape twice replaces the earlier codec; a shape without one cannot be
// shuffled. Packages register codecs for their own element types from
// init functions.
func RegisterShuffleCodec[K comparable, V any](
	name string,
	enc func(b []byte, kv KV[K, V]) []byte,
	dec func(r *BinReader) KV[K, V],
) {
	shuffleCodecs.Store(codecKey[K, V](), &shuffleCodec[K, V]{name: name, enc: enc, dec: dec})
}

// codecFor returns the registered codec for KV[K, V], or nil.
func codecFor[K comparable, V any]() *shuffleCodec[K, V] {
	if c, ok := shuffleCodecs.Load(codecKey[K, V]()); ok {
		return c.(*shuffleCodec[K, V])
	}
	return nil
}

// packPairs is the i64-i64 frame body, by frame of reference: the widths
// in bits of the key and value offsets, kw and vw, a byte each; the minimum
// key and value as zigzag varints; then record i as key - kmin in the low
// kw bits and value - vmin in the next vw of the word at bit i·(kw+vw),
// little-endian, and 8 bytes from the last record's first byte to the end.
// Each width is at least 1 and kmin + 2^kw - 1 fits an int64 (vmin's
// likewise). A frame whose widths would pass packedBits in all, or whose
// offsets could overflow, gives widths over 56 and its records as zigzag
// varint pairs instead.
func packPairs(b []byte, recs []KV[int64, int64]) []byte {
	kmin, kmax, vmin, vmax := recs[0].K, recs[0].K, recs[0].V, recs[0].V
	for _, kv := range recs {
		kmin, kmax, vmin, vmax = min(kmin, kv.K), max(kmax, kv.K), min(vmin, kv.V), max(vmax, kv.V)
	}
	kw, vw := offsetWidth(kmin, kmax), offsetWidth(vmin, vmax)
	if b = append(b, byte(kw), byte(vw)); kw+vw > packedBits {
		for _, kv := range recs {
			b = binary.AppendVarint(binary.AppendVarint(b, kv.K), kv.V)
		}
		return b
	}
	b = binary.AppendVarint(binary.AppendVarint(b, kmin), vmin)
	at, acc, nb := len(b), uint64(0), uint(0) // acc: the nb bits from byte at on
	b = append(b, make([]byte, uint(len(recs)-1)*(kw+vw)/8+8)...)
	for _, kv := range recs {
		acc |= (uint64(kv.K-kmin) | uint64(kv.V-vmin)<<kw) << nb
		binary.LittleEndian.PutUint64(b[at:], acc)
		nb += kw + vw
		at, acc, nb = at+int(nb>>3), acc>>(nb&^7), nb&7
	}
	return b
}

// offsetWidth is the bits of hi - lo, at least 1; 64 past packedBits, or
// when lo plus the widest offset of that many bits passes math.MaxInt64.
func offsetWidth(lo, hi int64) uint {
	if w := uint(max(bits.Len64(uint64(hi-lo)), 1)); w <= packedBits && lo <= math.MaxInt64-(1<<w-1) {
		return w
	}
	return 64
}

var errPairFrame = errors.New("dataflow: malformed i64-i64 frame")

// unpackPairs decodes a body packPairs wrote, of n records, into out.
// Nothing in the body is trusted: the widths, the minimums' headroom and
// the exact length are checked before the loop.
func unpackPairs(body []byte, n int, out []KV[int64, int64]) ([]KV[int64, int64], error) {
	if len(body) < 2 || body[0]-1 > 63 || body[1]-1 > 63 {
		return nil, errPairFrame
	}
	kw, vw, r, out := uint(body[0]), uint(body[1]), BinReader{b: body[2:]}, slices.Grow(out[:0], n)[:n]
	if kw+vw > packedBits {
		for i := range out {
			out[i] = KV[int64, int64]{K: r.Varint(), V: r.Varint()}
		}
		if r.off != len(r.b) {
			return nil, errPairFrame
		}
		return out, nil
	}
	kmin, vmin := r.Varint(), r.Varint()
	if p := r.b[min(r.off, len(r.b)):]; r.cut() || kmin > math.MaxInt64-(1<<kw-1) || vmin > math.MaxInt64-(1<<vw-1) ||
		uint(len(p)) != uint(n-1)*(kw+vw)/8+8 {
		return nil, errPairFrame
	}
	p, kmask, vmask := r.b[r.off:], uint64(1)<<kw-1, uint64(1)<<vw-1
	for i := range out {
		bit := uint(i) * (kw + vw)
		x := binary.LittleEndian.Uint64(p[bit>>3:]) >> (bit & 7)
		out[i] = KV[int64, int64]{K: kmin + int64(x&kmask), V: vmin + int64(x>>kw&vmask)}
	}
	return out, nil
}

// Built-in codecs for the shapes the algorithms shuffle hottest: int64
// keys carrying scalars, float vectors, adjacency fragments, and the unit
// value Distinct uses.
func init() {
	shuffleCodecs.Store(codecKey[int64, int64](), &shuffleCodec[int64, int64]{name: "i64-i64", pack: packPairs, unpack: unpackPairs})
	RegisterShuffleCodec("i64-f64",
		func(b []byte, kv KV[int64, float64]) []byte {
			b = binary.AppendVarint(b, kv.K)
			return AppendF64(b, kv.V)
		},
		func(r *BinReader) KV[int64, float64] {
			return KV[int64, float64]{K: r.Varint(), V: r.F64()}
		})
	RegisterShuffleCodec("i64-f64s",
		func(b []byte, kv KV[int64, []float64]) []byte {
			b = binary.AppendVarint(b, kv.K)
			return AppendF64s(b, kv.V)
		},
		func(r *BinReader) KV[int64, []float64] {
			return KV[int64, []float64]{K: r.Varint(), V: r.F64s()}
		})
	RegisterShuffleCodec("i64-i64s",
		func(b []byte, kv KV[int64, []int64]) []byte {
			b = binary.AppendVarint(b, kv.K)
			return AppendI64s(b, kv.V)
		},
		func(r *BinReader) KV[int64, []int64] {
			return KV[int64, []int64]{K: r.Varint(), V: r.I64s()}
		})
	RegisterShuffleCodec("i64-unit",
		func(b []byte, kv KV[int64, struct{}]) []byte {
			return binary.AppendVarint(b, kv.K)
		},
		func(r *BinReader) KV[int64, struct{}] {
			return KV[int64, struct{}]{K: r.Varint()}
		})
}

package dataflow

// Pluggable shuffle codecs. Every shuffle file starts with one format
// byte; the rest of the file is a stream of KV records in that format:
//
//	shuffleFmtGob: a single gob stream, one KV value per record. This is
//	  the universal fallback — any gob-encodable element type shuffles.
//	shuffleFmtBin: back-to-back binary records produced by a registered
//	  ShuffleCodec for the concrete KV[K, V] shape. The built-in codecs
//	  cover the shapes the graph algorithms actually shuffle (int64 keys
//	  with int64 / float64 / []float64 / []int64 / []byte / struct{}
//	  values) with the varint + little-endian machinery the PS wire
//	  codec uses; packages owning other hot element types (graphx edges,
//	  core adjacency fragments) register their own via
//	  RegisterShuffleCodec.
//
// Both formats stream: the map side appends records to a bounded chunk
// buffer that is flushed to the DFS as it fills, and the reduce side
// decodes through one chunk-sized window per task — no side ever holds a
// whole encoded bucket in memory, so the transient-memory charge per
// bucket is one chunk, not the bucket.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"psgraph/internal/f64le"
)

// Shuffle file format bytes.
const (
	shuffleFmtGob byte = 0x00
	shuffleFmtBin byte = 0x01
)

// shuffleChunk is the flush threshold of map-side bucket buffers and the
// reduce-side window size. It is also what a task is charged per open
// bucket or reduce-side window, replacing the whole-bucket transient
// charge of the fully-buffered gob shuffle.
const shuffleChunk = 64 << 10

// binaryShuffle selects the binary shuffle file format for shapes that
// have a registered codec. It is always on outside this package's tests,
// which store false to force every shuffle through the gob stream (live
// code: the format of unregistered shapes) as the equivalence reference.
// Readers dispatch on the file's format byte and accept both regardless.
// Not safe to flip while a job runs.
var binaryShuffle atomic.Bool

func init() { binaryShuffle.Store(true) }

// shuffleBufPool recycles map-side chunk buffers.
var shuffleBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, shuffleChunk+1024)
		return &b
	},
}

func getShuffleBuf() []byte {
	return (*shuffleBufPool.Get().(*[]byte))[:0]
}

func putShuffleBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	shuffleBufPool.Put(&b)
}

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

// AppendRaw appends a byte slice with a nil-preserving length prefix.
func AppendRaw(b []byte, s []byte) []byte {
	if s == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(s))+1)
	return append(b, s...)
}

// ---------------------------------------------------------------------------
// BinReader: the decode-side cursor handed to codec Read functions.

// BinReader reads binary shuffle records out of a byte window. A primitive
// that runs past the window's end returns a zero value and leaves the
// cursor past it, as does a malformed value, which also latches an error;
// either way every later read returns zero, so a codec decodes a whole
// record and its caller checks once whether it was all there:
// readShuffleFile decodes a record the window cut again after a refill.
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

// Uvarint reads one unsigned varint. One to three bytes, nearly every id a
// graph shuffles, take an if-chain behind one bound check; the rest, and
// the last bytes of the window, binary.Uvarint.
func (r *BinReader) Uvarint() uint64 {
	b, off := r.b, r.off
	if off+3 <= len(b) {
		if c0 := uint64(b[off]); c0 < 0x80 {
			r.off = off + 1
			return c0
		} else if c1 := uint64(b[off+1]); c1 < 0x80 {
			r.off = off + 2
			return c0&0x7f | c1<<7
		} else if c2 := uint64(b[off+2]); c2 < 0x80 {
			r.off = off + 3
			return c0&0x7f | (c1&0x7f)<<7 | c2<<14
		}
	}
	switch v, n := binary.Uvarint(b[min(off, len(b)):]); {
	case n > 0:
		r.off = off + n
		return v
	case n < 0:
		r.err = fmt.Errorf("dataflow: shuffle decode: varint overflows 64 bits")
	}
	r.off = len(b) + 1
	return 0
}

// has reports whether the next n bytes are in the window, and cuts the
// record when they are not.
func (r *BinReader) has(n uint64) bool {
	if r.cut() || n > uint64(len(r.b)-r.off) {
		r.off = len(r.b) + 1
		return false
	}
	return true
}

// take returns the next n bytes of the window, or nil when it cut.
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
// its bytes out of the window before they allocate, so a torn or hostile
// one costs a cut record (an error at the end of the file), not an
// allocation of its size.
func (r *BinReader) sliceLen() (uint64, bool) {
	n := r.Uvarint()
	return n - 1, n != 0 && !r.cut()
}

// F64s reads a slice written by AppendF64s.
func (r *BinReader) F64s() []float64 {
	n, ok := r.sliceLen()
	if !ok || !r.has(n) { // n bytes in the window: 8n cannot overflow
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
// byte, so a window that holds fewer bytes than the length cuts the record
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

// Raw reads a byte slice written by AppendRaw.
func (r *BinReader) Raw() []byte {
	n, ok := r.sliceLen()
	if !ok {
		return nil
	}
	if b := r.take(n); b != nil {
		return append([]byte{}, b...)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Codec registry.

// shuffleCodec is the binary fast path for one concrete KV[K, V] shape.
type shuffleCodec[K comparable, V any] struct {
	name string
	enc  func(b []byte, kv KV[K, V]) []byte
	dec  func(r *BinReader) KV[K, V]
}

// shuffleCodecs maps reflect.Type of *KV[K, V] to *shuffleCodec[K, V].
var shuffleCodecs sync.Map

func codecKey[K comparable, V any]() reflect.Type {
	return reflect.TypeOf((*KV[K, V])(nil))
}

// RegisterShuffleCodec installs a binary shuffle codec for elements of
// type KV[K, V]. enc appends one record to the buffer (using the
// Append* helpers and encoding/binary); dec reads one record back and
// must consume exactly what enc wrote. Registering a shape twice
// replaces the earlier codec; shapes without a codec shuffle through
// the gob stream. Packages register codecs for their own element types
// from init functions.
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

// Built-in codecs for the shapes the algorithms shuffle hottest: int64
// keys carrying scalars, float vectors, adjacency fragments, opaque
// bytes, and the unit value Distinct uses.
func init() {
	RegisterShuffleCodec("i64-i64",
		func(b []byte, kv KV[int64, int64]) []byte {
			b = binary.AppendVarint(b, kv.K)
			return binary.AppendVarint(b, kv.V)
		},
		func(r *BinReader) KV[int64, int64] {
			return KV[int64, int64]{K: r.Varint(), V: r.Varint()}
		})
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
	RegisterShuffleCodec("i64-bytes",
		func(b []byte, kv KV[int64, []byte]) []byte {
			b = binary.AppendVarint(b, kv.K)
			return AppendRaw(b, kv.V)
		},
		func(r *BinReader) KV[int64, []byte] {
			return KV[int64, []byte]{K: r.Varint(), V: r.Raw()}
		})
	RegisterShuffleCodec("i64-unit",
		func(b []byte, kv KV[int64, struct{}]) []byte {
			return binary.AppendVarint(b, kv.K)
		},
		func(r *BinReader) KV[int64, struct{}] {
			return KV[int64, struct{}]{K: r.Varint()}
		})
}

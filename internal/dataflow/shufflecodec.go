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
// decodes through a fixed-size read buffer — no side ever holds a whole
// encoded bucket in memory, so the transient-memory charge per bucket is
// one chunk, not the bucket.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
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
// reduce-side read-buffer size. It is also what a task is charged per
// open bucket/file, replacing the whole-bucket transient charge of the
// fully-buffered gob shuffle.
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

// BinReader reads binary shuffle records from a buffered stream. The
// first primitive that fails latches the error; subsequent reads return
// zero values, so a codec can decode a whole record and let the caller
// check Err once.
type BinReader struct {
	br      *bufio.Reader
	err     error
	scratch [8]byte
}

func newBinReader(br *bufio.Reader) *BinReader { return &BinReader{br: br} }

// Err returns the first error encountered (never io.EOF: a clean end of
// stream is reported by More).
func (r *BinReader) Err() error { return r.err }

func (r *BinReader) fail(err error) {
	if r.err == nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = fmt.Errorf("dataflow: shuffle decode: %w", err)
	}
}

// more reports whether another record follows. A clean EOF returns
// false; a latched error also returns false.
func (r *BinReader) more() bool {
	if r.err != nil {
		return false
	}
	if _, err := r.br.Peek(1); err != nil {
		if err != io.EOF {
			r.fail(err)
		}
		return false
	}
	return true
}

// Uvarint reads one unsigned varint.
func (r *BinReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		r.fail(err)
		return 0
	}
	return v
}

// Varint reads one zigzag varint.
func (r *BinReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.br)
	if err != nil {
		r.fail(err)
		return 0
	}
	return v
}

// F64 reads one little-endian float64.
func (r *BinReader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if _, err := io.ReadFull(r.br, r.scratch[:]); err != nil {
		r.fail(err)
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(r.scratch[:]))
}

// sliceLen decodes the nil-preserving length prefix: (0, false) for nil.
func (r *BinReader) sliceLen() (int, bool) {
	n := r.Uvarint()
	if n > math.MaxInt {
		r.fail(fmt.Errorf("slice of %d elements", n-1))
	}
	if r.err != nil || n == 0 {
		return 0, false
	}
	return int(n - 1), true
}

// A slice is decoded a chunk at a time and grown by what has arrived: a
// length prefix is a claim by whoever wrote the file, and a torn or hostile
// one must cost an error (Err), not an allocation of its size.

// F64s reads a slice written by AppendF64s.
func (r *BinReader) F64s() []float64 {
	n, ok := r.sliceLen()
	if !ok {
		return nil
	}
	s := []float64{}
	for len(s) < n {
		k := min(n-len(s), r.br.Size()/8)
		raw, err := r.br.Peek(8 * k)
		if err != nil {
			r.fail(err)
			return nil
		}
		s = slices.Grow(s, k)[:len(s)+k]
		f64le.Get(s[len(s)-k:], raw)
		r.br.Discard(8 * k)
	}
	return s
}

// I64s reads a slice written by AppendI64s.
func (r *BinReader) I64s() []int64 {
	n, ok := r.sliceLen()
	if !ok {
		return nil
	}
	s := make([]int64, 0, min(n, shuffleChunk/8))
	for len(s) < n && r.err == nil {
		s = append(s, r.Varint())
	}
	if r.err != nil {
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
	buf := bytes.NewBuffer([]byte{})
	if _, err := io.CopyN(buf, r.br, int64(n)); err != nil {
		r.fail(err)
		return nil
	}
	return buf.Bytes()
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

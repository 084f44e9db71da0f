package ps

// The PS wire format (DESIGN.md §6): one format for every message, data
// plane and control plane alike. A message is
//
//	[1B tag=tagBin][1B message id][fields...]
//
// Most messages are walked: appendValue writes a struct's fields in
// declaration order — bools as one byte, ints as zigzag varints, uints as
// varints, float64s as 8 little-endian bytes, strings length-prefixed,
// slices and maps nil-preserving (length 0 = nil, n+1 = n elements), id
// slices delta-coded, float slices and row batches as one bulk copy — and
// wreader.value reads it back. Hand-written code is left only where a
// message does something a walk cannot (enc/dec in codec.go, the row and
// neighbour frames). Encode buffers come from the frame pool (rpc.GetBuf);
// whoever holds one last puts it back (DESIGN.md §6.1).

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"unsafe"

	"psgraph/internal/f64le"
	"psgraph/internal/rpc"
)

// tagBin is the first byte of every message. 0x00 was the gob format and
// is now an unknown tag, like any other byte.
const tagBin byte = 0x01

// Message ids (second byte) of the frames with hand-written code.
const (
	msgEmbPullResp   byte = 6
	msgEmbPushReq    byte = 7
	msgNbrPullResp   byte = 8
	msgFuncReq       byte = 12
	msgServePullReq  byte = 15
	msgServePullResp byte = 17
)

// wireTypes is the id table: a walked type's message id is its position
// here + 1, and nil holds the id of a frame with hand-written code. It is
// append-only — a frame's id keeps meaning what it meant, and a checkpoint
// or a WAL record outlives the build that wrote it.
var wireTypes = [...]any{
	pullReq{}, vecPullResp{}, vecPushReq{}, mapPullResp{}, mapPushReq{}, nil, nil, nil, // 1–8
	nbrPushReq{}, matPullResp{}, matPushReq{}, nil, funcResp{}, replicateReq{}, nil, // 9–15
	serveHotPullReq{}, nil, partImage{}, // 16–18
	createPartReq{}, ckptReq{}, restoreReq{}, registerServerReq{}, createModelReq{}, getModelResp{}, // 19–24
	clockReq{}, modelNameReq{}, ckptModelsReq{}, ckptModelsResp{}, restoreModelsReq{}, // 25–29
	heartbeatReq{}, heartbeatResp{}, promoteReq{}, setBackupReq{}, seedBackupReq{}, // 30–34
	FailoverStats{}, ServerStats{}, int64(0), float64(0), // 35–38; int64 answers RecoveryCount
	migratePartReq{}, installPartReq{}, dropPartReq{}, partStatsResp{}, partOpReq{}, drainReq{}, // 39–44
	LoadReport{}, RebalanceResult{}, serveSeedReq{}, serveInstallReq{}, serveHotInstallReq{}, // 45–49
	serveHotStatsReq{}, serveHotStatsResp{}, ServeLayout{}, walRecord{}, // 50–53
}

// wireIDs is the id of every walked type.
var wireIDs = func() map[reflect.Type]byte {
	ids := make(map[reflect.Type]byte, len(wireTypes))
	for i, v := range wireTypes {
		if v != nil {
			ids[reflect.TypeOf(v)] = byte(i + 1)
		}
	}
	return ids
}()

// ---------------------------------------------------------------------------
// Append-style encoding primitives.

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendAddr encodes the (model, partition) address every data-plane
// request starts with; wreader.addr decodes it.
func appendAddr(b []byte, model string, part int) []byte {
	return binary.AppendVarint(appendStr(b, model), int64(part))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendI64s encodes an id slice, nil-ness preserved, as the zigzag varints
// of v[i]-v[i-1]: index streams are close to sorted, so most deltas fit one
// byte. Overflowing deltas wrap in two's complement and un-wrap on decode.
func appendI64s(b []byte, s []int64) []byte {
	if s == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(s))+1)
	var prev int64
	for _, v := range s {
		b = binary.AppendVarint(b, v-prev)
		prev = v
	}
	return b
}

// appendF64s encodes a float slice as a little-endian bulk copy,
// preserving nil-ness like appendI64s.
func appendF64s(b []byte, s []float64) []byte {
	if s == nil {
		return binary.AppendUvarint(b, 0)
	}
	return f64le.Append(binary.AppendUvarint(b, uint64(len(s))+1), s)
}

func appendBytes(b []byte, s []byte) []byte {
	if s == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(s))+1)
	return append(b, s...)
}

// appendRowBatch encodes a row batch: the ids delta-coded, the width,
// and the whole value block as one bulk copy (layout: DESIGN.md §6).
func appendRowBatch(b []byte, rb RowBatch) []byte {
	b = appendI64s(b, rb.IDs)
	b = binary.AppendUvarint(b, uint64(rb.Dim))
	return appendF64s(b, rb.Data)
}

// appendNbrBatch encodes a neighbour batch: the vertex count, every vertex's
// degree, and the neighbour array as one delta-coded block (DESIGN.md §6).
func appendNbrBatch(b []byte, nb NbrBatch) []byte {
	b = binary.AppendUvarint(b, uint64(nb.Len()))
	for i := 0; i < nb.Len(); i++ {
		b = binary.AppendUvarint(b, uint64(nb.Off[i+1]-nb.Off[i]))
	}
	return appendI64s(b, nb.Adj)
}

// ---------------------------------------------------------------------------
// The field walker.

var rowBatchType = reflect.TypeFor[RowBatch]()

// sliceOf is the slice v holds, read without boxing it: v.Interface
// would allocate a slice header per field.
func sliceOf[T any](v reflect.Value) []T {
	if v.IsNil() {
		return nil
	}
	return unsafe.Slice((*T)(v.UnsafePointer()), v.Len())
}

// appendValue writes v in the walker's layout (see the top of this file).
// A kind it has no layout for is a programmer error and panics.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		return appendBool(b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return appendStr(b, v.String())
	case reflect.Struct:
		if v.Type() == rowBatchType {
			return appendRowBatch(b, RowBatch{IDs: sliceOf[int64](v.Field(0)), Dim: int(v.Field(1).Int()), Data: sliceOf[float64](v.Field(2))})
		}
		for i := range v.NumField() {
			b = appendValue(b, v.Field(i))
		}
		return b
	case reflect.Slice:
		switch v.Type().Elem().Kind() {
		case reflect.Uint8:
			return appendBytes(b, v.Bytes())
		case reflect.Int64:
			return appendI64s(b, sliceOf[int64](v))
		case reflect.Float64:
			return appendF64s(b, sliceOf[float64](v))
		}
		if v.IsNil() {
			return append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(v.Len())+1)
		for i := range v.Len() {
			b = appendValue(b, v.Index(i))
		}
		return b
	case reflect.Map:
		if v.IsNil() {
			return append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(v.Len())+1)
		switch m := v.Interface().(type) { // the data plane's maps, walked without reflection
		case map[int64]float64:
			for k, x := range m {
				b = binary.LittleEndian.AppendUint64(binary.AppendVarint(b, k), math.Float64bits(x))
			}
		case map[int64][]int64:
			for k, ids := range m {
				b = appendI64s(binary.AppendVarint(b, k), ids)
			}
		default: // through two temporaries: MapIter.Key and Value allocate per entry
			k, x := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			for it := v.MapRange(); it.Next(); {
				k.SetIterKey(it)
				x.SetIterValue(it)
				b = appendValue(appendValue(b, k), x)
			}
		}
		return b
	}
	panic(fmt.Sprintf("ps: wire: no layout for %s", v.Type()))
}

// sizeValue bounds the encoded size of v: the capacity frame asks the pool
// for, so that a message is not copied as it outgrows its buffer.
func sizeValue(v reflect.Value) int {
	switch v.Kind() {
	case reflect.String:
		return 10 + v.Len()
	case reflect.Struct:
		n := 0
		for i := range v.NumField() {
			n += sizeValue(v.Field(i))
		}
		return n
	case reflect.Slice:
		switch v.Type().Elem().Kind() {
		case reflect.Uint8:
			return 10 + v.Len()
		case reflect.Int64:
			return 10 + 10*v.Len()
		case reflect.Float64:
			return 10 + 8*v.Len()
		}
		n := 10
		for i := range v.Len() {
			n += sizeValue(v.Index(i))
		}
		return n
	case reflect.Map:
		n := 10
		switch m := v.Interface().(type) {
		case map[int64]float64:
			return n + 18*len(m)
		case map[int64][]int64:
			for _, ids := range m {
				n += 20 + 10*len(ids)
			}
			return n
		}
		return n + 32*v.Len() // the control plane's maps: a guess, append grows past it
	}
	return 10 // a scalar
}

// ---------------------------------------------------------------------------
// Decoding.

// wreader is a cursor over a binary payload. The first primitive that
// runs off the end latches err; subsequent reads return zero values, so
// decoders can read a whole message and check err once.
type wreader struct {
	b   []byte
	off int
	err error
}

func (r *wreader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("ps: wire: truncated message (offset %d of %d)", r.off, len(r.b))
	}
}

func (r *wreader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *wreader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *wreader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.b) {
		r.fail()
		return false
	}
	v := r.b[r.off] != 0
	r.off++
	return v
}

// f64 reads one little-endian float64.
func (r *wreader) f64() float64 {
	raw := r.take(8)
	if raw == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw))
}

// take returns the next n raw bytes without copying.
func (r *wreader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off { // not r.off+n: a hostile length wraps it
		r.fail()
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *wreader) str() string {
	return string(r.take(int(r.uvarint())))
}

func (r *wreader) addr() (model string, part int) { return r.str(), int(r.varint()) }

// sliceLen decodes the nil-encoding length prefix: (0, false) for nil,
// (n, true) for n elements.
func (r *wreader) sliceLen() (int, bool) {
	n := r.uvarint()
	if n == 0 {
		return 0, false
	}
	// Every element takes at least one byte: reject a length the bytes
	// that remain cannot hold before allocating for it.
	if n-1 > uint64(len(r.b)-r.off) {
		r.fail()
		return 0, false
	}
	return int(n - 1), true
}

// elems is sliceLen for map entries that encode to at least size bytes
// each, and take many times that in memory: a map is not sized for more
// entries than the bytes that remain can hold.
func (r *wreader) elems(size int) (int, bool) {
	n, ok := r.sliceLen()
	if ok && n > (len(r.b)-r.off)/size {
		r.fail()
		return 0, false
	}
	return n, ok
}

// i64s decodes a delta-coded id slice (see appendI64s).
func (r *wreader) i64s() []int64 { return r.i64sInto(nil) }

// i64sInto is i64s decoding into dst's backing array when it is big enough
// (a nil dst always allocates, so i64s keeps empty ≠ nil). The cursor is
// local: on million-id pulls r.varint's per-element overhead is measurable.
// Deltas of one to three bytes, nearly all there are, take an if-chain
// behind one bound check; the rest take zigzag. Both are binary.Varint.
func (r *wreader) i64sInto(dst []int64) []int64 {
	n, ok := r.sliceLen()
	if !ok {
		return dst[:0]
	}
	if dst == nil || cap(dst) < n {
		dst = make([]int64, n)
	}
	s := dst[:n]
	b, off := r.b, r.off
	var prev int64
	for i := range s {
		ux, next := uint64(0), -1
		if off+3 <= len(b) {
			if c0 := uint64(b[off]); c0 < 0x80 {
				ux, next = c0, off+1
			} else if c1 := uint64(b[off+1]); c1 < 0x80 {
				ux, next = c0&0x7f|c1<<7, off+2
			} else if c2 := uint64(b[off+2]); c2 < 0x80 {
				ux, next = c0&0x7f|(c1&0x7f)<<7|c2<<14, off+3
			}
		}
		d := int64(ux>>1) ^ -int64(ux&1)
		if next < 0 { // a longer varint, or the last two bytes of b
			if d, next = zigzag(b, off); next < 0 {
				r.off = len(b)
				r.fail()
				return nil
			}
		}
		off = next
		prev += d
		s[i] = prev
	}
	r.off = off
	return s
}

// zigzag decodes the zigzag varint at b[off:] and returns the offset past
// it, or -1 when it is truncated or overflows: binary.Varint, open-coded so
// that it inlines.
func zigzag(b []byte, off int) (int64, int) {
	var ux uint64
	for shift := uint(0); off < len(b) && shift <= 63; shift += 7 {
		c := b[off]
		off++
		ux |= uint64(c&0x7f) << shift
		if c < 0x80 {
			if shift == 63 && c > 1 { // a tenth byte above 1 overflows
				break
			}
			return int64(ux>>1) ^ -int64(ux&1), off
		}
	}
	return 0, -1
}

func (r *wreader) f64s() []float64 { return r.f64sInto(nil) }

// f64sInto is f64s with i64sInto's reuse rule.
func (r *wreader) f64sInto(dst []float64) []float64 {
	n, ok := r.sliceLen()
	if !ok {
		return dst[:0]
	}
	raw := r.take(8 * n)
	if r.err != nil {
		return nil
	}
	if dst == nil || cap(dst) < n {
		dst = make([]float64, n)
	}
	f64le.Get(dst[:n], raw)
	return dst[:n]
}

// view returns a length-prefixed byte payload as a sub-slice of the wire
// buffer — valid only while the caller owns that buffer.
func (r *wreader) view() []byte {
	n, ok := r.sliceLen()
	if !ok {
		return nil
	}
	return r.take(n)
}

// bytes copies the payload out so the decoded message never aliases the
// (pooled, transport-owned) wire buffer.
func (r *wreader) bytes() []byte { return slices.Clone(r.view()) }

// rowFrame reads appendRowBatch's layout and leaves the values where they
// are: raw is the block's little-endian bytes, a view of the wire buffer
// (nil for a nil block). A block of other than len(ids)×dim values is an error.
func (r *wreader) rowFrame() (ids []int64, dim int, raw []byte) {
	ids = r.i64s()
	d := r.uvarint()
	if n, ok := r.sliceLen(); ok {
		raw = r.take(8 * n)
	}
	if r.err != nil {
		return nil, 0, nil
	}
	// Both factors are bounded before they multiply: the ids by the bytes
	// present (sliceLen), the width by the block it must divide.
	n, vals := uint64(len(ids)), uint64(len(raw)/8)
	if d > math.MaxInt32 || (n > 0 && d > vals) || n*d != vals {
		r.err = fmt.Errorf("ps: wire: row batch holds %d values for %d ids of width %d", vals, n, d)
		return nil, 0, nil
	}
	return ids, int(d), raw
}

// rowBatch is rowFrame with the values converted into a block of their
// own, whose allocation the bytes present therefore bound.
func (r *wreader) rowBatch() RowBatch {
	ids, dim, raw := r.rowFrame()
	rb := RowBatch{IDs: ids, Dim: dim}
	if raw != nil {
		rb.Data = make([]float64, len(raw)/8)
		f64le.Get(rb.Data, raw)
	}
	return rb
}

// nbrBatch decodes appendNbrBatch's layout; want >= 0 is the number of
// vertices the reply must answer for. Before anything is allocated the
// degrees are walked once: each, and their sum, must fit the neighbour
// count that follows them, which sliceLen bounds by the bytes present.
func (r *wreader) nbrBatch(want int) NbrBatch {
	n := r.uvarint()
	switch {
	case r.err != nil:
	case want >= 0 && n != uint64(want):
		r.err = fmt.Errorf("ps: wire: neighbour batch answers for %d vertices, want %d", n, want)
	case n > uint64(len(r.b)-r.off): // a degree takes at least one byte
		r.fail()
	}
	degrees := r.off
	var total uint64
	for i := uint64(0); i < n && r.err == nil; i++ {
		d := r.uvarint()
		if d > uint64(len(r.b)) {
			r.fail()
		}
		total += d
	}
	adj := r.off
	if cnt, _ := r.sliceLen(); r.err == nil && (cnt > math.MaxInt32 || total != uint64(cnt)) {
		r.err = fmt.Errorf("ps: wire: neighbour batch degrees sum to %d for %d neighbours", total, cnt)
	}
	if r.err != nil {
		return NbrBatch{}
	}
	var nb NbrBatch
	if n > 0 {
		nb.Off = make([]int32, n+1)
		r.off = degrees
		for i := range nb.Off[1:] {
			nb.Off[i+1] = nb.Off[i] + int32(r.uvarint())
		}
	}
	r.off = adj
	nb.Adj = r.i64s()
	return nb
}

// value reads appendValue's layout into v, which must be settable. What
// it allocates the bytes present bound: a slice of scalars is made for a
// length no larger than the bytes that remain, any other slice or map
// grows as its elements arrive — a length prefix alone sizes nothing.
func (r *wreader) value(v reflect.Value) {
	t := v.Type()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(r.bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(r.varint())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(r.uvarint())
	case reflect.Float64:
		v.SetFloat(r.f64())
	case reflect.String:
		v.SetString(r.str())
	case reflect.Struct:
		if t == rowBatchType {
			*(*RowBatch)(v.Addr().UnsafePointer()) = r.rowBatch()
			return
		}
		for i := 0; i < v.NumField() && r.err == nil; i++ {
			r.value(v.Field(i))
		}
	case reflect.Slice:
		switch p := v.Addr().UnsafePointer(); t.Elem().Kind() { // appendValue's choice
		case reflect.Uint8:
			*(*[]byte)(p) = r.bytes()
		case reflect.Int64:
			*(*[]int64)(p) = r.i64s()
		case reflect.Float64:
			*(*[]float64)(p) = r.f64s()
		default:
			n, ok := r.sliceLen()
			if v.SetZero(); ok {
				v.Set(reflect.MakeSlice(t, 0, 0))
			}
			for i := 0; i < n && r.err == nil; i++ {
				v.Grow(1)
				v.SetLen(i + 1)
				r.value(v.Index(i))
			}
		}
	case reflect.Map:
		switch p := v.Addr().Interface().(type) {
		case *map[int64]float64: // the data plane's maps, sized up front
			n, ok := r.elems(9)
			if *p = nil; ok {
				m := make(map[int64]float64, n)
				for ; n > 0 && r.err == nil; n-- {
					k := r.varint()
					m[k] = r.f64()
				}
				*p = m
			}
		case *map[int64][]int64:
			n, ok := r.elems(2)
			if *p = nil; ok {
				m := make(map[int64][]int64, n)
				for ; n > 0 && r.err == nil; n-- {
					k := r.varint()
					m[k] = r.i64s()
				}
				*p = m
			}
		default:
			n, ok := r.sliceLen()
			if v.SetZero(); ok {
				v.Set(reflect.MakeMap(t))
			}
			k, x := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			for ; n > 0 && r.err == nil; n-- {
				k.SetZero()
				x.SetZero()
				r.value(k)
				r.value(x)
				v.SetMapIndex(k, x)
			}
		}
	default:
		r.err = fmt.Errorf("ps: wire: no layout for %s", t)
	}
}

// frame starts a binary message of kind msg in a pooled buffer of capacity
// hint — an upper bound on the encoded size, so multi-megabyte payloads do
// not re-grow through doubling copies.
func frame(msg byte, hint int) []byte {
	return append(rpc.GetBuf(hint), tagBin, msg)
}

// frameDecoder is a decode target that reads its message off the frame
// instead of having it materialised: a reply checked against the request
// it answers as it is read (rowScatter, nbrReply), a pushed batch whose
// values stay in the frame (embPush). The cursor goes in and comes back by
// value: handed to an interface method by address it would move to the
// heap, one allocation on every decode of every message.
type frameDecoder interface {
	wireMsg() byte
	decode(r wreader) (wreader, error)
}

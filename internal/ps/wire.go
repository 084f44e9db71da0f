package ps

// Hand-rolled binary wire codec for the PS hot path (pull/push, psFunc and
// serve-read traffic; DESIGN.md §6): the data plane cannot afford gob's
// per-message encoder setup. Every hot message is
//
//	[1B tag=tagBin][1B message id][fields...]
//
// with varint ids/lengths and little-endian bulk copies for []float64
// payloads; cold control-plane messages keep gob behind tagGob, and both
// formats coexist on one connection. Slice and map fields encode nil-ness
// (length 0 = nil, n+1 = n elements): pullReq's nil Keys means "everything
// the partition holds". Encode buffers come from the frame pool
// (rpc.GetBuf); whoever holds one last puts it back (DESIGN.md §6.1).

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"psgraph/internal/f64le"
	"psgraph/internal/rpc"
)

// Wire format tags (first byte of every message).
const (
	tagGob byte = 0x00 // gob payload follows (control plane)
	tagBin byte = 0x01 // binary payload: [msg id][fields...]
)

// Binary message ids (second byte of tagBin messages).
const (
	msgPullReq byte = iota + 1
	msgVecPullResp
	msgVecPushReq
	msgMapPullResp
	msgMapPushReq
	msgEmbPullResp
	msgEmbPushReq
	msgNbrPullResp
	msgNbrPushReq
	msgMatPullResp
	msgMatPushReq
	msgFuncReq
	msgFuncResp
	msgReplicateReq
	msgServePullReq
	msgServeHotPullReq
	msgServePullResp
	msgPartImage
)

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

func appendMapF64(b []byte, m map[int64]float64) []byte {
	if m == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(m))+1)
	for k, v := range m {
		b = binary.AppendVarint(b, k)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
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

func appendMapI64s(b []byte, m map[int64][]int64) []byte {
	if m == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(m))+1)
	for k, v := range m {
		b = binary.AppendVarint(b, k)
		b = appendI64s(b, v)
	}
	return b
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

// take returns the next n raw bytes without copying.
func (r *wreader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
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

func (r *wreader) mapF64() map[int64]float64 {
	n, ok := r.sliceLen()
	if !ok {
		return nil
	}
	m := make(map[int64]float64, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.varint()
		raw := r.take(8)
		if r.err != nil {
			break
		}
		m[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
	}
	if r.err != nil {
		return nil
	}
	return m
}

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

func (r *wreader) mapI64s() map[int64][]int64 {
	n, ok := r.sliceLen()
	if !ok {
		return nil
	}
	m := make(map[int64][]int64, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.varint()
		m[k] = r.i64s()
	}
	if r.err != nil {
		return nil
	}
	return m
}

// ---------------------------------------------------------------------------
// Per-message encode/decode.

// mapI64sHint bounds the encoded size of a map[int64][]int64.
func mapI64sHint(m map[int64][]int64) int {
	n := 10
	for _, v := range m {
		n += 21 + 10*len(v)
	}
	return n
}

// frame starts a binary message of kind msg in a pooled buffer of capacity
// hint — an upper bound on the encoded size, so multi-megabyte payloads do
// not re-grow through doubling copies.
func frame(msg byte, hint int) []byte {
	return append(rpc.GetBuf(hint), tagBin, msg)
}

// encBinary encodes a hot data-plane message into a pooled buffer.
// Returns (nil, false) for types that stay on the gob control plane.
func encBinary(v any) ([]byte, bool) {
	var b []byte
	switch m := v.(type) {
	case pullReq:
		b = frame(msgPullReq, 32+len(m.Model)+10*len(m.Keys))
		b = appendAddr(b, m.Model, m.Part)
		b = appendI64s(b, m.Keys)
	case vecPullResp:
		b = frame(msgVecPullResp, 32+8*len(m.Values))
		b = appendF64s(b, m.Values)
		b = binary.AppendVarint(b, m.Lo)
	case vecPushReq:
		b = frame(msgVecPushReq, 48+len(m.Model)+10*len(m.Indices)+8*len(m.Values))
		b = appendAddr(b, m.Model, m.Part)
		b = appendI64s(b, m.Indices)
		b = appendF64s(b, m.Values)
		b = binary.AppendVarint(b, int64(m.Op))
	case mapPullResp:
		b = frame(msgMapPullResp, 16+18*len(m.M))
		b = appendMapF64(b, m.M)
	case mapPushReq:
		b = frame(msgMapPushReq, 32+len(m.Model)+18*len(m.M))
		b = appendAddr(b, m.Model, m.Part)
		b = appendMapF64(b, m.M)
		b = appendBool(b, m.Set)
	case nbrPullResp:
		b = frame(msgNbrPullResp, 32+5*len(m.Nbrs.Off)+10*len(m.Nbrs.Adj))
		b = appendNbrBatch(b, m.Nbrs)
	case nbrPushReq:
		b = frame(msgNbrPushReq, 32+len(m.Model)+mapI64sHint(m.Tables))
		b = appendAddr(b, m.Model, m.Part)
		b = appendMapI64s(b, m.Tables)
	case matPullResp:
		b = frame(msgMatPullResp, 48+8*len(m.Data))
		b = binary.AppendVarint(b, int64(m.Col0))
		b = binary.AppendVarint(b, int64(m.Col1))
		b = appendF64s(b, m.Data)
	case matPushReq:
		b = frame(msgMatPushReq, 48+len(m.Model)+8*len(m.Data))
		b = appendAddr(b, m.Model, m.Part)
		b = appendF64s(b, m.Data)
		b = appendBool(b, m.Grad)
		b = appendBool(b, m.Set)
	case funcReq:
		b = frame(msgFuncReq, 48+len(m.Model)+len(m.Name)+len(m.Arg))
		b = appendAddr(b, m.Model, m.Part)
		b = appendStr(b, m.Name)
		b = appendBytes(b, m.Arg)
	case funcResp:
		b = frame(msgFuncResp, 16+len(m.Out))
		b = appendBytes(b, m.Out)
	case replicateReq:
		b = frame(msgReplicateReq, 48+len(m.Method)+len(m.Body))
		b = appendStr(b, m.Method)
		b = binary.AppendUvarint(b, m.ClientID)
		b = binary.AppendUvarint(b, m.Seq)
		b = binary.AppendVarint(b, m.Epoch)
		b = appendBytes(b, m.Body)
	case servePullReq:
		n := 48 + len(m.Model)
		for _, p := range m.Parts {
			n += 20 + 10*len(p.IDs)
		}
		b = binary.AppendVarint(appendStr(frame(msgServePullReq, n), m.Model), m.SnapEpoch)
		b = binary.AppendUvarint(b, uint64(len(m.Parts)))
		for _, p := range m.Parts {
			b = appendI64s(binary.AppendVarint(b, int64(p.Part)), p.IDs)
		}
	case serveHotPullReq:
		b = frame(msgServeHotPullReq, 48+len(m.Model)+10*len(m.IDs))
		b = appendStr(b, m.Model)
		b = binary.AppendVarint(b, m.SnapEpoch)
		b = appendI64s(b, m.IDs)
	case partImage:
		b = frame(msgPartImage, partImageHint(m))
		b = appendPartImage(b, m)
	default:
		return nil, false
	}
	return b, true
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

// decBinary decodes a tagBin payload (tag byte already stripped) into v.
// The message id must match the target type, and the payload must be
// consumed exactly.
func decBinary(data []byte, v any) error {
	if len(data) == 0 {
		return fmt.Errorf("ps: wire: empty binary message")
	}
	id := data[0]
	r := wreader{b: data[1:]}
	want := byte(0)
	switch m := v.(type) {
	case *pullReq:
		want = msgPullReq
		if id == want {
			m.Model, m.Part = r.addr()
			m.Keys = r.i64s()
		}
	case *vecPullResp:
		want = msgVecPullResp
		if id == want {
			m.Values = r.f64s()
			m.Lo = r.varint()
		}
	case *vecPushReq:
		want = msgVecPushReq
		if id == want {
			m.Model, m.Part = r.addr()
			m.Indices = r.i64s()
			m.Values = r.f64s()
			m.Op = vecOp(r.varint())
		}
	case *mapPullResp:
		want = msgMapPullResp
		if id == want {
			m.M = r.mapF64()
		}
	case *mapPushReq:
		want = msgMapPushReq
		if id == want {
			m.Model, m.Part = r.addr()
			m.M = r.mapF64()
			m.Set = r.bool()
		}
	case *nbrPullResp:
		want = msgNbrPullResp
		if id == want {
			m.Nbrs = r.nbrBatch(-1)
		}
	case *nbrPushReq:
		want = msgNbrPushReq
		if id == want {
			m.Model, m.Part = r.addr()
			m.Tables = r.mapI64s()
		}
	case *matPullResp:
		want = msgMatPullResp
		if id == want {
			m.Col0 = int(r.varint())
			m.Col1 = int(r.varint())
			m.Data = r.f64s()
		}
	case *matPushReq:
		want = msgMatPushReq
		if id == want {
			m.Model, m.Part = r.addr()
			m.Data = r.f64s()
			m.Grad = r.bool()
			m.Set = r.bool()
		}
	case *funcReq:
		want = msgFuncReq
		if id == want {
			m.Model, m.Part = r.addr()
			m.Name = r.str()
			// Zero-copy: every handler runs to completion before its
			// caller recycles the request buffer (PSFunc's arg contract).
			m.Arg = r.view()
		}
	case *funcResp:
		want = msgFuncResp
		if id == want {
			m.Out = r.bytes()
		}
	case *replicateReq:
		want = msgReplicateReq
		if id == want {
			m.Method = r.str()
			m.ClientID = r.uvarint()
			m.Seq = r.uvarint()
			m.Epoch = r.varint()
			m.Body = r.bytes()
		}
	case *servePullReq:
		want = msgServePullReq
		if id == want {
			m.Model = r.str()
			m.SnapEpoch = r.varint()
			// Parts are appended as they are read, never made for the
			// count: a part is worth the bytes it took, whatever was promised.
			m.Parts = nil
			for n := r.uvarint(); n > 0 && r.err == nil; n-- {
				m.Parts = append(m.Parts, servePart{Part: int(r.varint()), IDs: r.i64s()})
			}
		}
	case *serveHotPullReq:
		want = msgServeHotPullReq
		if id == want {
			m.Model = r.str()
			m.SnapEpoch = r.varint()
			m.IDs = r.i64s()
		}
	case *partImage:
		want = msgPartImage
		if id == want {
			*m = r.partImage()
		}
	case frameDecoder:
		want = m.wireMsg()
		if id == want {
			var err error
			if r, err = m.decode(r); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("ps: wire: binary message id %d cannot decode into %T", id, v)
	}
	if id != want {
		return fmt.Errorf("ps: wire: message id %d does not match target %T (want %d)", id, v, want)
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("ps: wire: %d trailing bytes after %T", len(r.b)-r.off, v)
	}
	return nil
}

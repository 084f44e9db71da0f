package ps

// Exported helpers over the PR-1 binary wire machinery (wire.go) so
// psFunc implementations outside this package can encode their argument
// and result payloads with the same varint / little-endian primitives
// the data plane uses, instead of a codec per call. A psFunc arg is
// an opaque []byte on the wire (funcReq.Arg), so the format here is a
// private contract between the caller and its registered function —
// these helpers just make the fast encoding reusable.

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendArgStr appends a length-prefixed string.
func AppendArgStr(b []byte, s string) []byte { return appendStr(b, s) }

// AppendArgI64s appends an int64 slice as delta-coded varints,
// preserving nil-ness (see the wire-format comment in wire.go).
func AppendArgI64s(b []byte, s []int64) []byte { return appendI64s(b, s) }

// AppendArgF64s appends a float64 slice as a length-prefixed
// little-endian bulk copy, preserving nil-ness.
func AppendArgF64s(b []byte, s []float64) []byte { return appendF64s(b, s) }

// AppendArgF64sLen appends the length prefix of an n-element float
// slice; n AppendArgF64 calls complete the AppendArgF64s encoding.
func AppendArgF64sLen(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)+1) }

// AppendArgF64 appends one little-endian float64.
func AppendArgF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendArgI64 appends one varint.
func AppendArgI64(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// ArgReader decodes payloads built with the AppendArg helpers. The
// first failing read latches an error; check Err (or Close) once after
// reading every field.
type ArgReader struct {
	r wreader
}

// NewArgReader returns a reader over data.
func NewArgReader(data []byte) *ArgReader {
	return &ArgReader{r: wreader{b: data}}
}

// Str reads a string written by AppendArgStr.
func (a *ArgReader) Str() string { return a.r.str() }

// I64sInto reads a slice written by AppendArgI64s, decoding into dst's
// backing array when it fits; a nil dst always allocates, so an empty
// slice stays apart from a nil one.
func (a *ArgReader) I64sInto(dst []int64) []int64 { return a.r.i64sInto(dst) }

// F64sInto reads a slice written by AppendArgF64s with I64sInto's reuse
// rule.
func (a *ArgReader) F64sInto(dst []float64) []float64 { return a.r.f64sInto(dst) }

// F64 reads a value written by AppendArgF64.
func (a *ArgReader) F64() float64 { return a.r.f64() }

// I64 reads a value written by AppendArgI64.
func (a *ArgReader) I64() int64 { return a.r.varint() }

// Err returns the error the first failing read latched, or nil.
func (a *ArgReader) Err() error { return a.r.err }

// Close verifies the payload decoded cleanly and was consumed exactly.
func (a *ArgReader) Close() error {
	if a.r.err != nil {
		return a.r.err
	}
	if a.r.off != len(a.r.b) {
		return fmt.Errorf("ps: arg: %d trailing bytes", len(a.r.b)-a.r.off)
	}
	return nil
}

// Package f64le moves blocks of float64 between Go slices and their wire
// form, 8 little-endian bytes a value (DESIGN.md §6). It is the one place
// that knows a []float64 on a little-endian host already IS those bytes:
// there Put and Get are one memmove each (block_le.go), everywhere else the
// portable per-element loop below (block_any.go), chosen at compile time. The
// view is always of the float slice — Go allocates it 8-aligned — never of
// the byte side, which sits at whatever offset the fields before it left.
package f64le

import (
	"encoding/binary"
	"math"
	"slices"
)

// Put writes src at the start of dst, which must hold 8*len(src) bytes.
func Put(dst []byte, src []float64) { put(dst[:8*len(src)], src) }

// Get fills dst from the first 8*len(dst) bytes of src.
func Get(dst []float64, src []byte) { get(dst, src[:8*len(dst)]) }

// Append appends src's wire form to b.
func Append(b []byte, src []float64) []byte {
	n := len(b)
	b = slices.Grow(b, 8*len(src))[:n+8*len(src)]
	put(b[n:], src)
	return b
}

// putPortable and getPortable are the encoding spelled out: what a host of
// any byte order runs, and what the tests hold the memmove to.
func putPortable(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

func getPortable(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package f64le

import "unsafe"

// bytesOf views s as its bytes: on these hosts, its wire form.
func bytesOf(s []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 8*len(s))
}

func put(dst []byte, src []float64) { copy(dst, bytesOf(src)) }
func get(dst []float64, src []byte) { copy(bytesOf(dst), src) }

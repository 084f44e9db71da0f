//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package f64le

func put(dst []byte, src []float64) { putPortable(dst, src) }
func get(dst []float64, src []byte) { getPortable(dst, src) }

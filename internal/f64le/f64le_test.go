package f64le

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestMatchesPortableEncoding: whichever implementation this host compiled,
// Put, Get and Append agree with encoding/binary — and so does the portable
// pair a big-endian host runs — value by value, NaN payloads and signed
// zeros included, at every alignment of the byte side.
func TestMatchesPortableEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []float64{math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001),
		math.Copysign(0, -1), 0, 5e-324, math.Inf(1), math.Inf(-1), math.MaxFloat64}
	for len(vals) < 67 {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	var want []byte
	for _, v := range vals {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
	}
	for shift := 0; shift < 8; shift++ {
		for _, n := range []int{0, 1, 7, len(vals)} {
			buf := make([]byte, shift+8*n+3)
			Put(buf[shift:], vals[:n])
			if !bytes.Equal(buf[shift:shift+8*n], want[:8*n]) || !bytes.Equal(buf[shift+8*n:], make([]byte, 3)) {
				t.Fatalf("shift %d: Put of %d values wrote %x", shift, n, buf)
			}
			portable := make([]byte, 8*n)
			putPortable(portable, vals[:n])
			if !bytes.Equal(portable, want[:8*n]) {
				t.Fatalf("putPortable of %d values wrote %x", n, portable)
			}
			got, back := make([]float64, n), make([]float64, n)
			Get(got, buf[shift:])
			getPortable(back, buf[shift:])
			for i := range got {
				if u := math.Float64bits(vals[i]); math.Float64bits(got[i]) != u || math.Float64bits(back[i]) != u {
					t.Fatalf("shift %d: value %d read as %#x and %#x, want %#x", shift, i, math.Float64bits(got[i]), math.Float64bits(back[i]), u)
				}
			}
			if app := Append(buf[:shift:shift], vals[:n]); !bytes.Equal(app[shift:], want[:8*n]) {
				t.Fatalf("shift %d: Append of %d values gave %x", shift, n, app)
			}
		}
	}
}

// TestShortByteSidePanics: a byte side too short for the block is a bug in
// the caller and must not become a silent partial copy.
func TestShortByteSidePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Put": func() { Put(make([]byte, 15), make([]float64, 2)) },
		"Get": func() { Get(make([]float64, 2), make([]byte, 15)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s over a short byte side did not panic", name)
				}
			}()
			f()
		}()
	}
}

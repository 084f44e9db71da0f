package ps

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"
)

// refI64s reads an appendI64s block the slow way, one binary.Varint per
// delta: what i64sInto must accept, produce and consume.
func refI64s(b []byte) (ids []int64, used int, ok bool) {
	n, k := binary.Uvarint(b)
	if k <= 0 || (n > 0 && n-1 > uint64(len(b)-k)) {
		return nil, 0, false
	}
	var prev int64
	for i := uint64(1); i < n; i++ {
		d, m := binary.Varint(b[k:])
		if m <= 0 {
			return nil, 0, false
		}
		k += m
		prev += d
		ids = append(ids, prev)
	}
	return ids, k, true
}

// checkI64sDecode decodes b both ways, into no dst, a short one and a long
// one: the same verdict, values and consumed length, the dst's array when
// it has the room.
func checkI64sDecode(t *testing.T, b []byte) {
	t.Helper()
	want, used, ok := refI64s(b)
	for _, dst := range [][]int64{nil, make([]int64, 0, 2), make([]int64, 1, len(b)+1)} {
		r := wreader{b: b}
		got := r.i64sInto(dst)
		if (r.err == nil) != ok {
			t.Fatalf("%x: err = %v, binary.Varint accepts = %v", b, r.err, ok)
		}
		if !ok {
			continue
		}
		if r.off != used || !slices.Equal(got, want) {
			t.Fatalf("%x: %v in %d bytes, binary.Varint reads %v in %d", b, got, r.off, want, used)
		}
		if len(got) > 0 && cap(dst) >= len(got) && &got[0] != &dst[:1][0] {
			t.Fatalf("%x: a dst with room for %d ids was not reused", b, len(got))
		}
	}
}

// TestI64sDecodeMatchesVarint: the if-chain of i64sInto and the loop behind
// it against binary.Varint on deltas of every encoded length in every
// neighbourhood, non-canonical encodings, the tenth-byte overflow, and every
// block again with 0–3 bytes after it (the chain needs three bytes in hand)
// and with its last 1–3 bytes cut off.
func TestI64sDecodeMatchesVarint(t *testing.T) {
	var deltas [][]byte
	for n := 1; n <= binary.MaxVarintLen64; n++ {
		lo := uint64(1) << (7 * (n - 1)) // the smallest value n bytes are needed for
		for _, ux := range []uint64{lo, lo + 1, lo<<7 - 1, lo | 0x55} {
			if n == binary.MaxVarintLen64 {
				ux |= 1 << 63
			}
			if e := binary.AppendUvarint(nil, ux); len(e) == n {
				deltas = append(deltas, e)
			}
		}
	}
	deltas = append(deltas,
		[]byte{0x00},
		[]byte{0x80, 0x00},       // zero in two bytes
		[]byte{0x81, 0x80, 0x00}, // one in three
		[]byte{0xff, 0x80, 0x80, 0x00},
		append(bytes.Repeat([]byte{0x80}, 9), 0x00),                // zero in ten
		append(bytes.Repeat([]byte{0xff}, 9), 0x01),                // the largest: ten bytes, the last one 1
		append(bytes.Repeat([]byte{0xff}, 9), 0x02),                // overflows in the tenth byte
		append(bytes.Repeat([]byte{0x80}, 10), 0x00),               // eleven bytes
		bytes.Repeat([]byte{0xff}, 12),                             // never ends
		[]byte{0x80}, []byte{0xff, 0xff}, []byte{0x80, 0x80, 0x80}, // cut short
	)
	block := func(ds ...[]byte) []byte {
		b := binary.AppendUvarint(nil, uint64(len(ds))+1)
		for _, d := range ds {
			b = append(b, d...)
		}
		return b
	}
	var blocks [][]byte
	for _, d := range deltas {
		blocks = append(blocks, block(d))
		for _, e := range deltas {
			blocks = append(blocks, block(d, e), block(e, d, e))
		}
	}
	blocks = append(blocks, block(), []byte{0}, nil, block(deltas...),
		binary.AppendUvarint(nil, 1<<40), // a count the bytes cannot hold
		appendI64s(nil, []int64{3, 3, 3, 7, 1, -4, 1 << 40, -1 << 63, 1<<63 - 1, 0}))
	for _, b := range blocks {
		for pad := 0; pad <= 3; pad++ {
			checkI64sDecode(t, append(bytes.Clone(b), make([]byte, pad)...))
			checkI64sDecode(t, append(bytes.Clone(b), bytes.Repeat([]byte{0xff}, pad)...))
		}
		for cut := 1; cut <= 3 && cut <= len(b); cut++ {
			checkI64sDecode(t, b[:len(b)-cut])
		}
	}
}

// FuzzI64sDecode: arbitrary bytes as an id block, the fast path against the
// binary.Varint loop.
func FuzzI64sDecode(f *testing.F) {
	f.Add(appendI64s(nil, []int64{3, 3, 3, 7, 1}))
	f.Add(appendI64s(nil, []int64{9, -4, 1 << 40, 7, 300}))
	f.Add(append(binary.AppendUvarint(nil, 3), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x00))
	f.Add([]byte{4, 0x80, 0x80, 0x80})
	golden, _ := hex.DecodeString("06060000080b061219888080808040f1ffffffff3fca04") // TestLineArgWireGolden's U column, V behind it
	f.Add(golden)
	f.Fuzz(func(t *testing.T, data []byte) { checkI64sDecode(t, data) })
}

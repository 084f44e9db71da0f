package ps

import (
	"encoding/hex"
	"math"
	"testing"

	"psgraph/internal/rpc"
)

// The values a float block must carry bit for bit: quiet and signalling NaNs
// with payloads, both zeros, the smallest and the largest denormal, both
// infinities, and ordinary numbers.
var goldenBits = []uint64{
	0x7ff8000000000123, 0xfff0000000000001, 0x8000000000000000, 0x0000000000000000,
	0x0000000000000001, 0x000fffffffffffff, 0x7ff0000000000000, 0xfff0000000000000,
	0x3ff8000000000000, 0xc004000000000000, 0x3f9999999999999a, 0x7fefffffffffffff,
}

func goldenRows() RowBatch {
	b := RowBatch{IDs: []int64{300, -4, 1 << 40, 7}, Dim: 3, Data: make([]float64, len(goldenBits))}
	for i, u := range goldenBits {
		b.Data[i] = math.Float64frombits(u)
	}
	return b
}

// Frames encoded at 857c658, the commit before float blocks became one
// memmove: the wire format did not change, so these do not either.
const (
	goldenEmbPushReq   = "010701670005d804df04888080808040f1ffffffff3f030d230100000000f87f010000000000f0ff000000000000008000000000000000000100000000000000ffffffffffff0f00000000000000f07f000000000000f0ff000000000000f83f00000000000004c09a9999999999993fffffffffffffef7f0001"
	goldenEmbPullReply = "010605d804df04888080808040f1ffffffff3f030d230100000000f87f010000000000f0ff000000000000008000000000000000000100000000000000ffffffffffff0f00000000000000f07f000000000000f0ff000000000000f83f00000000000004c09a9999999999993fffffffffffffef7f"
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFloatBlockFramesGolden: an EmbPush request and an EmbPull reply are
// byte for byte what the parent wrote, and both decode bit-exactly wherever
// the frame lies in memory — the value block of a frame is at whatever
// offset the fields before it left, so all eight alignments are walked.
func TestFloatBlockFramesGolden(t *testing.T) {
	rows := goldenRows()
	meta := oneServerMeta(ModelMeta{Name: "g", Kind: Embedding, Dim: rows.Dim})
	req := pushFrame("g", 0, rows, rowWork{ids: rows.IDs}, 0, rows.Dim, false, true)
	if got := hex.EncodeToString(req); got != goldenEmbPushReq {
		t.Fatalf("EmbPush request\n got %s\nwant %s", got, goldenEmbPushReq)
	}
	for shift := 0; shift < 8; shift++ {
		eng, err := newEngine(meta, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		e := eng.(*embEngine)
		// A set: the engine copies the rows out of the request frame.
		shifted := append(make([]byte, shift, shift+len(req)), req...)[shift:]
		var m embPush
		if err := dec(shifted, &m); err != nil {
			t.Fatal(err)
		}
		if err := e.push(m); err != nil {
			t.Fatal(err)
		}
		reply, err := e.pull(pullReq{Keys: rows.IDs})
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(reply); got != goldenEmbPullReply {
			t.Fatalf("shift %d: EmbPull reply\n got %s\nwant %s", shift, got, goldenEmbPullReply)
		}
		// Scattered into columns [1, 4) of 5-wide rows, in reverse row order.
		shifted = append(make([]byte, shift, shift+len(reply)), reply...)[shift:]
		dst := make([]float64, len(rows.IDs)*5)
		sc := &rowScatter{msg: msgEmbPullResp, model: "g", work: rowWork{ids: rows.IDs, pos: []int32{3, 2, 1, 0}},
			dst: dst, col0: 1, width: rows.Dim, strd: 5}
		if err := dec(shifted, sc); err != nil {
			t.Fatal(err)
		}
		for j := range rows.IDs {
			if got := dst[(3-j)*5+1:][:rows.Dim]; !sameBits(got, rows.Row(j)) {
				t.Fatalf("shift %d: row %d scattered as %x, want %x", shift, j, got, rows.Row(j))
			}
		}
		var r embPullResp
		if err := dec(shifted, &r); err != nil || !sameBits(r.Rows.Data, rows.Data) {
			t.Fatalf("shift %d: decoded block %x (%v), want %x", shift, r.Rows.Data, err, rows.Data)
		}
	}
}

// BenchmarkF64Block: the two float-block moves of a row pull — a block of
// 4,096 rows of 16 (the GraphSage feature pull's shape) encoded into a reply
// frame, and the frame checked and scattered into the caller's block.
func BenchmarkF64Block(b *testing.B) {
	const n, w = 4096, 16
	rows := RowBatch{IDs: make([]int64, n), Dim: w, Data: make([]float64, n*w)}
	for i := range rows.IDs {
		rows.IDs[i] = int64(i)
	}
	for i := range rows.Data {
		rows.Data[i] = float64(i)
	}
	sc := &rowScatter{msg: msgEmbPullResp, work: rowWork{ids: rows.IDs}, dst: make([]float64, n*w), width: w, strd: w}
	b.SetBytes(2 * 8 * n * w)
	b.ReportAllocs()
	for b.Loop() {
		f := appendRowBatch(frame(msgEmbPullResp, 2+rowBatchLen(rows.IDs, w)), rows)
		if err := dec(f, sc); err != nil {
			b.Fatal(err)
		}
		rpc.PutBuf(f)
	}
}

package ps

import (
	"fmt"
	"testing"
)

func TestArgReaderRoundTrip(t *testing.T) {
	b := AppendArgStr(nil, "model/ctx")
	b = AppendArgI64s(b, []int64{5, 1, 9, -3})
	b = AppendArgI64s(b, nil)
	b = AppendArgF64s(b, []float64{0.5, -1.25})
	b = AppendArgF64s(b, []float64{})
	r := NewArgReader(b)
	if got := r.Str(); got != "model/ctx" {
		t.Fatalf("Str = %q", got)
	}
	if got := r.I64sInto(nil); fmt.Sprint(got) != "[5 1 9 -3]" {
		t.Fatalf("I64s = %v", got)
	}
	if got := r.I64sInto(nil); got != nil {
		t.Fatalf("nil I64s = %v", got)
	}
	if got := r.F64sInto(nil); fmt.Sprint(got) != "[0.5 -1.25]" {
		t.Fatalf("F64s = %v", got)
	}
	if got := r.F64sInto(nil); got == nil || len(got) != 0 {
		t.Fatalf("empty F64s = %v", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestArgReaderTrailingBytes(t *testing.T) {
	b := AppendArgStr(nil, "x")
	b = append(b, 0xFF)
	r := NewArgReader(b)
	_ = r.Str()
	if err := r.Close(); err == nil {
		t.Fatal("trailing byte not detected")
	}
}

func TestArgReaderTruncated(t *testing.T) {
	b := AppendArgF64s(nil, []float64{1, 2, 3})
	r := NewArgReader(b[:len(b)-2])
	_ = r.F64sInto(nil)
	if r.r.err == nil {
		t.Fatal("truncated payload not detected")
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close accepted truncated payload")
	}
}

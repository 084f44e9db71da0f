package dataflow

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"psgraph/internal/dfs"
)

func frameCtx() *Context {
	return NewContext(dfs.NewDefault(), Config{NumExecutors: 2})
}

func sampleFrame(ctx *Context) *DataFrame {
	rows := []Row{
		{int64(1), int64(2), 0.5},
		{int64(1), int64(3), 1.5},
		{int64(2), int64(3), 2.0},
		{int64(3), int64(1), 1.0},
	}
	return FromRows(ctx, []string{"src", "dst", "w"}, rows, 2)
}

func TestFrameFilterWithColumn(t *testing.T) {
	df := sampleFrame(frameCtx())
	heavy := df.Filter(func(r Row) bool { return r.Float64(2) >= 1.0 })
	if fmt.Sprint(heavy.Columns()) != "[src dst w]" {
		t.Fatalf("cols = %v", heavy.Columns())
	}
	// A derived column is a Map over the rows under a widened schema.
	doubled := FromRDD(append(heavy.Columns(), "double"), Map(heavy.RDD(), func(r Row) Row {
		return append(append(Row{}, r...), r.Float64(2)*2)
	}))
	rows, err := doubled.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Float64(3) != 2*r.Float64(2) {
			t.Fatalf("derived column wrong: %v", r)
		}
	}
}

func TestFrameCSVRoundTrip(t *testing.T) {
	fs := dfs.NewDefault()
	ctx := NewContext(fs, Config{NumExecutors: 2})
	fs.WriteFile("/in.csv", []byte("1\t2\n3\t4\n5\t6.5\n"))
	rows := Map(TextFile(ctx, "/in.csv", 2), func(line string) Row {
		a, b, _ := strings.Cut(line, "\t")
		ai, _ := strconv.ParseInt(a, 10, 64)
		bf, _ := strconv.ParseFloat(b, 64)
		return Row{ai, bf}
	})
	if err := FromRDD([]string{"a", "b"}, rows).Save("/out", "\t"); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, f := range fs.List("/out/") {
		data, _ := fs.ReadFile(f)
		lines = append(lines, strings.Fields(strings.ReplaceAll(string(data), "\t", ","))...)
	}
	sort.Strings(lines)
	if fmt.Sprint(lines) != "[1,2 3,4 5,6.5]" {
		t.Fatalf("saved rows = %v", lines)
	}
}

func TestFrameColIndexError(t *testing.T) {
	df := sampleFrame(frameCtx())
	if _, err := df.ColIndex("nope"); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestRowTypedAccessors(t *testing.T) {
	r := Row{int64(7), 2.5, "x"}
	if r.Int64(0) != 7 || r.Float64(1) != 2.5 || r.String(2) != "x" {
		t.Fatalf("accessors: %v %v %v", r.Int64(0), r.Float64(1), r.String(2))
	}
	if r.Float64(0) != 7.0 || r.Int64(1) != 2 {
		t.Fatal("cross-type coercion wrong")
	}
	if r.String(0) != "7" {
		t.Fatalf("string render = %q", r.String(0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad cast")
		}
	}()
	_ = r.Int64(2)
}

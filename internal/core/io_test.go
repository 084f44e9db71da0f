package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"psgraph/internal/dataflow"
	"psgraph/internal/dfs"
	"psgraph/internal/gen"
)

// parseEdge is the loader LoadEdges used to run per line — strings.Fields
// and strconv — kept as the reference scanEdge is fuzzed against.
func parseEdge(line string) (Edge, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Edge{}, fmt.Errorf("core: malformed edge line %q", line)
	}
	src, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Edge{}, fmt.Errorf("core: bad src in %q: %v", line, err)
	}
	dst, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Edge{}, fmt.Errorf("core: bad dst in %q: %v", line, err)
	}
	w := 1.0
	if len(fields) >= 3 {
		w, err = strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return Edge{}, fmt.Errorf("core: bad weight in %q: %v", line, err)
		}
	}
	return Edge{Src: src, Dst: dst, W: w}, nil
}

// checkEdgeScan holds scanEdge to the reference on one line: a blank line
// is skipped, anything else yields the same edge or is rejected by both.
// Lines with non-ASCII bytes are only required not to panic — the
// reference splits on Unicode spaces, the scanner on ASCII whitespace.
func checkEdgeScan(t *testing.T, line []byte) {
	t.Helper()
	// The scanner may load bytes past len(line) but within its capacity:
	// digits there must not change what it reads, nor a capacity that ends
	// with the line (the read window's last line).
	padded := append(append(make([]byte, 0, len(line)+16), line...), "1234567890123456"...)[:len(line)]
	got, ok, err := scanEdge(padded)
	for _, other := range [][]byte{line, slices.Clip(padded)} {
		got2, ok2, err2 := scanEdge(other)
		if same := got2 == got || got != got; !same || ok2 != ok || (err2 == nil) != (err == nil) { // got != got: a NaN weight
			t.Fatalf("%q: %v, %v, %v with digits past its end, %v, %v, %v with capacity %d", line, got, ok, err, got2, ok2, err2, cap(other))
		}
	}
	if err == nil && !ok && got != (Edge{}) {
		t.Fatalf("%q: skipped line produced %v", line, got)
	}
	for _, c := range line {
		if c >= 0x80 {
			return
		}
	}
	if len(strings.Fields(string(line))) == 0 {
		if ok || err != nil {
			t.Fatalf("%q: blank line gave %v, %v, %v", line, got, ok, err)
		}
		return
	}
	want, wantErr := parseEdge(string(line))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%q: scanEdge err %v, reference err %v", line, err, wantErr)
	}
	if err != nil {
		if ok || !strings.Contains(err.Error(), strconv.Quote(string(line))) {
			t.Fatalf("%q: rejection %v (ok=%v) does not quote the line", line, err, ok)
		}
		return
	}
	// NaN weights parse on both sides but compare unequal.
	if !ok || got.Src != want.Src || got.Dst != want.Dst || (got.W != want.W && (got.W == got.W || want.W == want.W)) {
		t.Fatalf("%q: scanEdge %v (ok=%v), reference %v", line, got, ok, want)
	}
}

var edgeScanSeeds = []string{
	"1\t2", "3\t4\t0.5", "5 6", "", " ", "\r", "7\t8\r", " \t9  10 \t 1e3 trailing junk\r",
	"+1 -2", "-0 +0", "1", "1\t", "a b", "1 b", "1 2 x", "1 2 0x1p-2", "1 2 NaN", "1 2 inf",
	"9223372036854775807 -9223372036854775808", "9223372036854775808 1", "-9223372036854775809 1",
	"99999999999999999999 1", "000000000000000000000000001 2", "1_000 2", "0x10 2", "1.0 2", "- 1", "+ 1",
	"1\v2\f3", "12345678901234567\t123456789012345678", "1 2\x00", "\x001 2",
	// The one-pass path and where it hands over: 1-, 18- and 19-digit ids,
	// signs, tabs and \r, a weight, trailing blanks, a blank line.
	"0 9", "123456789012345678 1", "1 999999999999999999", "1234567890123456789 2", "2 9223372036854775807",
	"+12\t-7", "-1 2", "1 +2", "3\t4\r", "\t5\t6\t\r", "7 8 0.25\r", "9\t10\t-1.5e-3", "1 2 ", " \t\r", "12a 3", "1 2a",
	// The two-lane path and where it hands over: 7-, 8- and 9-digit src, 8-
	// and 9-digit dst, a double tab, a leading blank, a \r after dst.
	"1234567\t7654321", "12345678\t9", "123456789\t1", "1\t12345678", "12345678 87654321", "1\t123456789",
	"3\t\t4", " 3\t4", "3 4\r", "3\v4", "0\t0", "99999999\t99999999",
}

func TestEdgeScanMatchesReference(t *testing.T) {
	for _, s := range edgeScanSeeds {
		checkEdgeScan(t, []byte(s))
	}
}

func FuzzEdgeScan(f *testing.F) {
	for _, s := range edgeScanSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if bytes.IndexByte(line, '\n') >= 0 {
			return // the split reader never hands over a newline
		}
		checkEdgeScan(t, line)
	})
}

// TestLoadEdgesSplitOwnership: whatever the partition count, LoadEdges
// yields every edge of the file exactly once and in file order — \r\n
// endings, blank lines, a missing final newline and split boundaries
// that fall on a line start included.
func TestLoadEdgesSplitOwnership(t *testing.T) {
	ctx := newTestContext(t)
	rng := rand.New(rand.NewSource(5))
	files := map[string]string{
		"aligned": strings.Repeat("12345 789\n", 9),                          // 90 bytes: parts 3 and 9 cut exactly after a newline
		"padded":  "1 2\n" + strings.Repeat(" ", 70_000) + "3 4 0.25\n\n5 6", // one line longer than the read buffer
	}
	for i := 0; i < 10; i++ {
		var b strings.Builder
		for l := rng.Intn(60); l > 0; l-- {
			switch rng.Intn(5) {
			case 0:
				b.WriteString("\r\n")
			case 1:
				b.WriteString("\n")
			default:
				fmt.Fprintf(&b, "%d\t%d%s\n", rng.Int63n(1e6), rng.Int63n(1e6), []string{"", "\r", "\t2.5"}[rng.Intn(3)])
			}
		}
		if rng.Intn(2) == 0 {
			b.WriteString("7 8") // no trailing newline
		}
		files[fmt.Sprintf("random-%d", i)] = b.String()
	}
	for name, content := range files {
		path := "/own/" + name
		if err := ctx.FS.WriteFile(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		var want []Edge
		for _, line := range strings.Split(content, "\n") {
			if len(strings.Fields(line)) == 0 {
				continue
			}
			e, err := parseEdge(line)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want = append(want, e)
		}
		for parts := 1; parts <= 9; parts++ {
			got, err := LoadEdges(ctx, path, parts).Collect()
			if err != nil {
				t.Fatalf("%s parts=%d: %v", name, parts, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s parts=%d: %d edges, want %d", name, parts, len(got), len(want))
			}
		}
	}
}

func BenchmarkLoadEdges(b *testing.B) {
	ctx, err := NewContext(Config{NumExecutors: 2, NumServers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Close()
	edges := gen.RMAT(gen.RMATConfig{Scale: 14, Edges: 200_000, Seed: 1})
	if err := gen.WriteEdgesText(ctx.FS, "/bench/edges.txt", edges, false); err != nil {
		b.Fatal(err)
	}
	size, err := ctx.FS.Size("/bench/edges.txt")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	for b.Loop() {
		n, err := LoadEdges(ctx, "/bench/edges.txt", 4).Count()
		if err != nil || n != int64(len(edges)) {
			b.Fatalf("loaded %d edges, %v", n, err)
		}
	}
}

// TestShuffleRecordCountIsExact: readPairs, the reader under both
// csrBlocks and neighborTables, copies the shuffle a frame at a time and
// fails with errRecordCount when it hands over fewer or more records than
// its map side counted. A frame that would pass the count is refused
// before any of it is copied.
func TestShuffleRecordCountIsExact(t *testing.T) {
	sc := dataflow.NewContext(dfs.NewDefault(), dataflow.Config{NumExecutors: 2})
	pairs := dataflow.Parallelize(sc, []idPair{{K: 1, V: 2}, {K: 3, V: 4}, {K: 5, V: 6}}, 2)
	for name, skew := range map[string]int{"fewer": -1, "exact": 0, "more": 1} {
		t.Run(name, func(t *testing.T) {
			read, err := dataflow.ShuffleReduce(pairs, 1, func(t *dataflow.Task, n int, frames func(func([]idPair) error) error) ([]idPair, error) {
				var got [][]idPair
				if err := frames(func(f []idPair) error { got = append(got, slices.Clone(f)); return nil }); err != nil {
					return nil, err
				}
				last := &got[len(got)-1]
				switch skew {
				case -1:
					*last = (*last)[:len(*last)-1] // the last record goes missing
				case 1:
					*last = append(*last, got[0][0]) // one arrives twice
				}
				in, span, _, err := readPairs(t, n, 16, func(consume func([]idPair) error) error {
					for _, f := range got {
						if err := consume(f); err != nil {
							return err
						}
					}
					return nil
				})
				if skew > 0 && in[n-1] != (idPair{}) {
					return nil, fmt.Errorf("the frame past the count was copied: %v", in)
				}
				return append(in, span), err
			}).Collect()
			switch {
			case skew == 0 && (err != nil || len(read) != 4 || read[3] != (idPair{K: 1, V: 6})):
				t.Fatalf("read %v (last: the span), error %v", read, err)
			case skew != 0 && !errors.Is(err, errRecordCount):
				t.Fatalf("error %v, want errRecordCount", err)
			}
		})
	}
}

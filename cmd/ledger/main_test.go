package main

import (
	"slices"
	"testing"
)

// TestLedgerReportsExactly runs both reports on testdata/mod, a module with
// one binary. The field no code sets and the allowlist line whose function
// is gone are reported; the field set only through a type alias and the
// method of a generic type, linked only as an instantiation, are not.
func TestLedgerReportsExactly(t *testing.T) {
	got, err := run("testdata/mod", "testdata/allow.txt", []string{"internal/ps"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"stale allowlist entry func internal/ps.Gone",
		"unlisted field ps.JobConfig.Depth (ps.go:10, set by no non-test code)",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ledger reported\n%q\nwant\n%q", got, want)
	}
}

// TestSymbolKey: linker symbols map back to the names their declarations
// have, through instantiations, pointer receivers, closures and a package
// path with dots in it.
func TestSymbolKey(t *testing.T) {
	for sym, want := range map[string]string{
		"psgraph/internal/dataflow.(*RDD[go.shape.[]int64]).Map.func1":                     "psgraph/internal/dataflow.RDD.Map",
		"psgraph/internal/dataflow.Filter[go.shape.struct { K int64; V []float64 }]":       "psgraph/internal/dataflow.Filter",
		"psgraph/internal/ps.(*Emb).pushBatch":                                             "psgraph/internal/ps.Emb.pushBatch",
		"psgraph/internal/ps.handle[go.shape.*uint8,go.shape.int].gowrap2":                 "psgraph/internal/ps.handle",
		"example.com/a.b/internal/x.T.M":                                                   "example.com/a.b/internal/x.T.M",
		"psgraph/internal/ps.(*Client).funcs":                                              "psgraph/internal/ps.Client.funcs",
		"psgraph/internal/dataflow.(*RDD[psgraph/internal/dataflow.KV[int64,int64]]).Name": "psgraph/internal/dataflow.RDD.Name",
	} {
		if got := symbolKey(sym); got != want {
			t.Errorf("symbolKey(%q) = %q, want %q", sym, got, want)
		}
	}
}

package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	fs := NewDefault()
	data := []byte("hello dfs")
	if err := fs.WriteFile("/a/b", data); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := fs.ReadFile("/a/b")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
}

func TestMultiBlockFile(t *testing.T) {
	fs := New(Config{BlockSize: 8, NumDataNodes: 3, Replication: 2})
	data := make([]byte, 1000)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	if err := fs.WriteFile("/big", data); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := fs.ReadFile("/big")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-block round trip mismatch")
	}
	if size, _ := fs.Size("/big"); size != 1000 {
		t.Fatalf("size = %d, want 1000", size)
	}
}

func TestRoundTripProperty(t *testing.T) {
	fs := New(Config{BlockSize: 16, NumDataNodes: 4, Replication: 2})
	i := 0
	f := func(data []byte) bool {
		i++
		path := fmt.Sprintf("/prop/%d", i)
		if err := fs.WriteFile(path, data); err != nil {
			return false
		}
		got, err := fs.ReadFile(path)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenMissing(t *testing.T) {
	fs := NewDefault()
	if _, err := fs.Open("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestOverwriteReplacesAndFreesBlocks(t *testing.T) {
	fs := New(Config{BlockSize: 4, NumDataNodes: 2, Replication: 1})
	fs.WriteFile("/f", []byte("oldcontent"))
	fs.WriteFile("/f", []byte("new"))
	got, err := fs.ReadFile("/f")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != "new" {
		t.Fatalf("got %q", got)
	}
	// All blocks of the old version must have been freed from datanodes.
	total := 0
	for _, n := range fs.nodes {
		n.mu.RLock()
		total += len(n.blocks)
		n.mu.RUnlock()
	}
	if total != 1 {
		t.Fatalf("datanodes hold %d blocks, want 1", total)
	}
}

func TestRename(t *testing.T) {
	fs := NewDefault()
	fs.WriteFile("/src", []byte("x"))
	if err := fs.Rename("/src", "/dst"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if fs.Exists("/src") {
		t.Fatal("/src still exists")
	}
	got, err := fs.ReadFile("/dst")
	if err != nil || string(got) != "x" {
		t.Fatalf("read dst: %q, %v", got, err)
	}
	if err := fs.Rename("/missing", "/y"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("rename missing: %v", err)
	}
}

func TestDeleteAndDeletePrefix(t *testing.T) {
	fs := NewDefault()
	fs.WriteFile("/d/a", []byte("1"))
	fs.WriteFile("/d/b", []byte("2"))
	fs.WriteFile("/e/c", []byte("3"))
	// A whole path is a prefix too: one file goes, its sibling stays.
	if n := fs.DeletePrefix("/d/a"); n != 1 {
		t.Fatalf("DeletePrefix of one file removed %d, want 1", n)
	}
	if fs.Exists("/d/a") {
		t.Fatal("deleted file exists")
	}
	if n := fs.DeletePrefix("/d/"); n != 1 {
		t.Fatalf("DeletePrefix removed %d, want 1", n)
	}
	if !fs.Exists("/e/c") {
		t.Fatal("unrelated file removed")
	}
	if n := fs.DeletePrefix("/d/"); n != 0 {
		t.Fatalf("second DeletePrefix removed %d, want 0", n)
	}
}

func TestList(t *testing.T) {
	fs := NewDefault()
	fs.WriteFile("/x/2", nil)
	fs.WriteFile("/x/1", nil)
	fs.WriteFile("/y/3", nil)
	got := fs.List("/x/")
	want := []string{"/x/1", "/x/2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
}

func TestReplicationSurvivesDataNodeFailure(t *testing.T) {
	fs := New(Config{BlockSize: 8, NumDataNodes: 3, Replication: 2})
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	fs.WriteFile("/r", data)
	// With replication 2 over 3 nodes, any single failure is survivable.
	for i := 0; i < 3; i++ {
		fs.KillDataNode(i)
		got, err := fs.ReadFile("/r")
		if err != nil {
			t.Fatalf("read with node %d dead: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("corrupt read with node %d dead", i)
		}
		fs.ReviveDataNode(i)
	}
}

func TestAllReplicasDead(t *testing.T) {
	fs := New(Config{BlockSize: 8, NumDataNodes: 2, Replication: 2})
	fs.WriteFile("/r", []byte("data"))
	fs.KillDataNode(0)
	fs.KillDataNode(1)
	if _, err := fs.ReadFile("/r"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	fs.ReviveDataNode(0)
	if _, err := fs.ReadFile("/r"); err != nil {
		t.Fatalf("read after revive: %v", err)
	}
}

func TestCountersTrackIO(t *testing.T) {
	fs := New(Config{BlockSize: 10, NumDataNodes: 2, Replication: 2})
	fs.WriteFile("/c", make([]byte, 25))
	// 25 bytes over 2 replicas.
	if w := fs.BytesWritten(); w != 50 {
		t.Fatalf("BytesWritten = %d, want 50", w)
	}
}

func TestStreamingWriter(t *testing.T) {
	fs := New(Config{BlockSize: 7, NumDataNodes: 2, Replication: 1})
	w := fs.Create("/s")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(w, "line %d\n", i)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r, err := fs.Open("/s")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	got, _ := io.ReadAll(r)
	want := ""
	for i := 0; i < 10; i++ {
		want += fmt.Sprintf("line %d\n", i)
	}
	if string(got) != want {
		t.Fatalf("got %q", got)
	}
}

func TestFileInvisibleUntilClose(t *testing.T) {
	fs := NewDefault()
	w := fs.Create("/pending")
	w.Write([]byte("x"))
	if fs.Exists("/pending") {
		t.Fatal("file visible before Close")
	}
	w.Close()
	if !fs.Exists("/pending") {
		t.Fatal("file missing after Close")
	}
}

func TestConcurrentWritersDistinctPaths(t *testing.T) {
	fs := New(Config{BlockSize: 64, NumDataNodes: 4, Replication: 2})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/conc/%d", i)
			data := bytes.Repeat([]byte{byte(i)}, 300)
			if err := fs.WriteFile(path, data); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			got, err := fs.ReadFile(path)
			if err != nil || !bytes.Equal(got, data) {
				t.Errorf("read %d mismatch: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if got := len(fs.List("/conc/")); got != 16 {
		t.Fatalf("List = %d files, want 16", got)
	}
}

func TestOpenRangeAcrossBlocks(t *testing.T) {
	fs := New(Config{BlockSize: 10, NumDataNodes: 2, Replication: 1})
	data := []byte("0123456789abcdefghijABCDEFGHIJ")
	fs.WriteFile("/r", data)
	cases := []struct {
		off, n int64
		want   string
	}{
		{0, 5, "01234"},
		{5, 10, "56789abcde"},  // straddles block boundary
		{10, 10, "abcdefghij"}, // exactly one block
		{25, 100, "FGHIJ"},     // length clipped to EOF
		{28, -1, "IJ"},         // negative length = to EOF
		{30, 5, ""},            // at EOF
	}
	for _, c := range cases {
		r, err := fs.OpenRange("/r", c.off, c.n)
		if err != nil {
			t.Fatalf("OpenRange(%d,%d): %v", c.off, c.n, err)
		}
		got, _ := io.ReadAll(r)
		r.Close()
		if string(got) != c.want {
			t.Fatalf("OpenRange(%d,%d) = %q, want %q", c.off, c.n, got, c.want)
		}
	}
}

func TestOpenRangeMissingFile(t *testing.T) {
	fs := NewDefault()
	if _, err := fs.OpenRange("/none", 0, 10); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestOpenRangeMatchesFullReadProperty(t *testing.T) {
	fs := New(Config{BlockSize: 7, NumDataNodes: 3, Replication: 2})
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 500)
	rng.Read(data)
	fs.WriteFile("/p", data)
	f := func(off16, n16 uint16) bool {
		off := int64(off16) % 520
		n := int64(n16) % 520
		r, err := fs.OpenRange("/p", off, n)
		if err != nil {
			return false
		}
		got, _ := io.ReadAll(r)
		r.Close()
		lo := min(off, int64(len(data)))
		hi := min(off+n, int64(len(data)))
		return bytes.Equal(got, data[lo:hi])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

package dfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDirModeRoundTrip(t *testing.T) {
	fs, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("ckpt/model/part-0", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("ckpt/model/part-0")
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if !fs.Exists("ckpt/model/part-0") {
		t.Fatal("Exists = false after write")
	}
	if n, err := fs.Size("ckpt/model/part-0"); err != nil || n != 5 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if _, err := fs.ReadFile("ckpt/model/part-9"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing file error = %v, want ErrNotExist", err)
	}
	if fs.BytesWritten() == 0 {
		t.Fatal("write counter not maintained")
	}
}

// TestDirModeCrossHandleVisibility is the property the multi-process
// deployment needs: a file published through one FS handle is visible
// through an independent handle on the same root, exactly as two
// processes sharing a checkpoint directory.
func TestDirModeCrossHandleVisibility(t *testing.T) {
	root := t.TempDir()
	a, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFileSummed("ckpt/m/0.ckpt", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadFileSummed("ckpt/m/0.ckpt")
	if err != nil || string(got) != "payload" {
		t.Fatalf("cross-handle summed read: %q, %v", got, err)
	}
}

// TestDirModeAtomicPublish verifies the Create contract: the file is
// invisible until Close, and a replaced file is swapped whole.
func TestDirModeAtomicPublish(t *testing.T) {
	fs, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := fs.Create("snap")
	if _, err := w.Write([]byte("new-content")); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("snap") {
		t.Fatal("file visible before Close")
	}
	if list := fs.List(""); len(list) != 0 {
		t.Fatalf("in-flight temp file leaked into List: %v", list)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("snap")
	if err != nil || string(got) != "new-content" {
		t.Fatalf("after publish: %q, %v", got, err)
	}
}

func TestDirModeRenameListDeletePrefix(t *testing.T) {
	fs, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"ckpt/m/0.tmp", "ckpt/m/1.tmp", "ckpt/other"} {
		if err := fs.WriteFile(p, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Rename("ckpt/m/0.tmp", "ckpt/m/0.ckpt"); err != nil {
		t.Fatal(err)
	}
	got := fs.List("ckpt/m/")
	want := []string{"ckpt/m/0.ckpt", "ckpt/m/1.tmp"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("List = %v, want %v", got, want)
	}
	if n := fs.DeletePrefix("ckpt/m/"); n != 2 {
		t.Fatalf("DeletePrefix removed %d, want 2", n)
	}
	if got := fs.List("ckpt/"); len(got) != 1 || got[0] != "ckpt/other" {
		t.Fatalf("List after DeletePrefix = %v", got)
	}
	if n := fs.DeletePrefix("ckpt/other"); n != 1 || fs.Exists("ckpt/other") {
		t.Fatalf("DeletePrefix of one file removed %d", n)
	}
	if n := fs.DeletePrefix("ckpt/other"); n != 0 {
		t.Fatalf("second DeletePrefix removed %d, want 0", n)
	}
}

func TestDirModeCorruptFileTripsChecksum(t *testing.T) {
	fs, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFileSummed("c", []byte("checkpoint-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := fs.CorruptFile("c", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFileSummed("c"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("summed read of corrupted file = %v, want ErrChecksum", err)
	}
}

func TestDirModeOpenRange(t *testing.T) {
	fs, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("r", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	r, err := fs.OpenRange("r", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil || string(got) != "3456" {
		t.Fatalf("range read = %q, %v", got, err)
	}
}

// TestDirModeRejectsEscape makes sure a path cannot climb out of the
// backing root.
func TestDirModeRejectsEscape(t *testing.T) {
	root := t.TempDir()
	outside := filepath.Join(filepath.Dir(root), "escapee")
	fs, err := NewDir(filepath.Join(root, "sub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("../../escapee", []byte("x")); err != nil {
		// Refusing outright is fine too.
		return
	}
	if _, err := os.Stat(outside); err == nil {
		t.Fatalf("path traversal escaped the root to %s", outside)
	}
}

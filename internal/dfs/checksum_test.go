package dfs

import (
	"bytes"
	"errors"
	"testing"
)

func TestSummedRoundTrip(t *testing.T) {
	fs := NewDefault()
	data := bytes.Repeat([]byte("psgraph checkpoint payload "), 1000)
	if err := fs.WriteFileSummed("/ck/a", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFileSummed("/ck/a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("payload mismatch: %d vs %d bytes", len(got), len(data))
	}
}

func TestSummedDetectsBitFlip(t *testing.T) {
	fs := NewDefault()
	if err := fs.WriteFileSummed("/ck/b", []byte("some model weights")); err != nil {
		t.Fatal(err)
	}
	if err := fs.CorruptFile("/ck/b", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFileSummed("/ck/b"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt read: want ErrChecksum, got %v", err)
	}
	// Plain ReadFile still serves the (corrupt) bytes — the checksum is
	// opt-in per caller, and checkpoints are the callers that opt in.
	if _, err := fs.ReadFile("/ck/b"); err != nil {
		t.Fatalf("plain read of corrupt file: %v", err)
	}
}

func TestSummedDetectsCorruptTrailer(t *testing.T) {
	fs := NewDefault()
	if err := fs.WriteFileSummed("/ck/c", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	sz, err := fs.Size("/ck/c")
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the CRC itself.
	if err := fs.CorruptFile("/ck/c", sz-6); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFileSummed("/ck/c"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt trailer: want ErrChecksum, got %v", err)
	}
}

func TestSummedRejectsUnsummedFile(t *testing.T) {
	fs := NewDefault()
	if err := fs.WriteFile("/plain", []byte("no trailer here")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFileSummed("/plain"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("unsummed file: want ErrChecksum, got %v", err)
	}
	if err := fs.WriteFile("/tiny", []byte("ab")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFileSummed("/tiny"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("short file: want ErrChecksum, got %v", err)
	}
}

func TestCorruptFileErrors(t *testing.T) {
	fs := NewDefault()
	if err := fs.CorruptFile("/absent", 0); !errors.Is(err, ErrNotExist) {
		t.Fatalf("corrupt missing file: %v", err)
	}
	if err := fs.WriteFile("/e", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.CorruptFile("/e", 0); err == nil {
		t.Fatal("corrupting an empty file succeeded")
	}
}

// TestCorruptFileSurvivesRename: corruption applies to the stored
// blocks, so a later Rename of the file still reads corrupt — matching
// a real torn write that travels with the inode.
func TestCorruptFileSurvivesRename(t *testing.T) {
	fs := NewDefault()
	if err := fs.WriteFileSummed("/old", []byte("payload payload")); err != nil {
		t.Fatal(err)
	}
	if err := fs.CorruptFile("/old", 1); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFileSummed("/new"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("renamed corrupt file: want ErrChecksum, got %v", err)
	}
}

// FuzzReadFileSummed feeds hostile bytes to the checksum trailer's reader
// (ROADMAP item 10): any file decodes to a payload or ErrChecksum, never a
// panic, and a payload it accepts, written again with WriteFileSummed, is
// the same file byte for byte.
func FuzzReadFileSummed(f *testing.F) {
	summed := func(payload []byte) []byte {
		fs := NewDefault()
		if err := fs.WriteFileSummed("/s", payload); err != nil {
			f.Fatal(err)
		}
		raw, err := fs.ReadFile("/s")
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	valid := summed([]byte("some model weights"))
	f.Add(valid)
	f.Add(summed(nil))
	f.Add(valid[:len(valid)-1])
	f.Add(append([]byte{0}, valid...))
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-6] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte("crc1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := NewDefault()
		if err := fs.WriteFile("/in", data); err != nil {
			t.Fatal(err)
		}
		payload, err := fs.ReadFileSummed("/in")
		if err != nil {
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("a %d-byte file failed with %v, not ErrChecksum", len(data), err)
			}
			return
		}
		if err := fs.WriteFileSummed("/out", payload); err != nil {
			t.Fatal(err)
		}
		again, err := fs.ReadFile("/out")
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("an accepted %d-byte file was written again as %d bytes (%v)", len(data), len(again), err)
		}
	})
}

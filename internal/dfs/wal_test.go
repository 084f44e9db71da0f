package dfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// walFixtures runs a subtest against both FS modes: the in-memory block
// store and a dir-backed root — the WAL must behave identically.
func walFixtures(t *testing.T, run func(t *testing.T, fs *FS)) {
	t.Run("memory", func(t *testing.T) { run(t, NewDefault()) })
	t.Run("dir", func(t *testing.T) {
		fs, err := NewDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		run(t, fs)
	})
}

func TestWALAppendReplay(t *testing.T) {
	walFixtures(t, func(t *testing.T, fs *FS) {
		const path = "/ps/master/wal"
		w, recs, err := fs.OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Fatalf("fresh WAL replayed %d records", len(recs))
		}
		want := [][]byte{[]byte("one"), []byte("two"), {}, bytes.Repeat([]byte{0xAB}, 1<<16)}
		for _, rec := range want {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, recs, err := fs.OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		if len(recs) != len(want) {
			t.Fatalf("replayed %d records, want %d", len(recs), len(want))
		}
		for i := range want {
			if !bytes.Equal(recs[i], want[i]) {
				t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
			}
		}
		// The reopened log keeps appending after the replayed history.
		if err := w2.Append([]byte("post")); err != nil {
			t.Fatal(err)
		}
		_, recs, err = reopenWAL(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(want)+1 || !bytes.Equal(recs[len(recs)-1], []byte("post")) {
			t.Fatalf("append after reopen lost: %d records", len(recs))
		}
	})
}

func reopenWAL(fs *FS, path string) (*WAL, [][]byte, error) {
	w, recs, err := fs.OpenWAL(path)
	if err == nil {
		w.Close()
	}
	return w, recs, err
}

// TestWALTornTailTruncated is the crash-mid-append contract: a kill -9
// while a frame is half-written leaves a partial record at the tail,
// and replay must truncate back to the last valid CRC frame instead of
// failing recovery — in every torn shape: a ragged header, a frame cut
// mid-payload, and a complete-length frame whose payload bits flipped.
func TestWALTornTailTruncated(t *testing.T) {
	tears := []struct {
		name string
		tear func(valid []byte) []byte
	}{
		{"short-header", func(v []byte) []byte { return append(v, 0x03, 0x00) }},
		{"cut-payload", func(v []byte) []byte {
			frame := walFrame(nil, []byte("torn-record"))
			return append(v, frame[:len(frame)-4]...)
		}},
		{"corrupt-crc", func(v []byte) []byte {
			frame := walFrame(nil, []byte("bit-flipped"))
			frame[len(frame)-1] ^= 0xFF
			return append(v, frame...)
		}},
		{"garbage-length", func(v []byte) []byte {
			var hdr [walHeader]byte
			binary.LittleEndian.PutUint32(hdr[:], 0xFFFFFFF0) // > maxWALRecord
			return append(v, hdr[:]...)
		}},
	}
	for _, tc := range tears {
		t.Run(tc.name, func(t *testing.T) {
			walFixtures(t, func(t *testing.T, fs *FS) {
				const path = "/ps/master/wal"
				w, _, err := fs.OpenWAL(path)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					if err := w.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				// Simulate the kill -9: append the torn bytes raw, bypassing
				// the WAL layer, exactly as a severed write would leave them.
				damage(t, fs, path, tc.tear)

				w2, recs, err := fs.OpenWAL(path)
				if err != nil {
					t.Fatalf("torn tail failed recovery: %v", err)
				}
				if len(recs) != 3 {
					t.Fatalf("replayed %d records, want the 3 intact ones", len(recs))
				}
				for i, rec := range recs {
					if want := fmt.Sprintf("record-%d", i); string(rec) != want {
						t.Fatalf("record %d = %q, want %q", i, rec, want)
					}
				}
				// The tail was truncated, so new appends frame cleanly.
				if err := w2.Append([]byte("after-tear")); err != nil {
					t.Fatal(err)
				}
				w2.Close()
				_, recs, err = reopenWAL(fs, path)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) != 4 || string(recs[3]) != "after-tear" {
					t.Fatalf("append after truncation lost: %d records", len(recs))
				}
			})
		})
	}
}

// damage rewrites the WAL's raw backing bytes through tear.
func damage(t *testing.T, fs *FS, path string, tear func([]byte) []byte) {
	t.Helper()
	if fs.dir != "" {
		p := filepath.Join(fs.dir, filepath.FromSlash(path))
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, tear(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(path, tear(data)); err != nil {
		t.Fatal(err)
	}
}

// FuzzWALParse feeds replay arbitrary log bytes: it never panics, the
// offset it stops at lies inside the data, the records it returns framed
// again are exactly the bytes before that offset, and parsing only those
// bytes gives the same records and offset.
func FuzzWALParse(f *testing.F) {
	valid := walFrame(walFrame(walFrame(nil, []byte("one")), nil), bytes.Repeat([]byte{0xAB}, 300))
	f.Add(valid)
	f.Add(append(valid, 0x03, 0x00))
	f.Add(append(slices.Clone(valid), walFrame(nil, []byte("torn"))[:9]...))
	corrupt := slices.Clone(valid)
	corrupt[len(corrupt)-1] ^= 0xFF
	f.Add(corrupt)
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFF0))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, off := walParse(data)
		if off < 0 || off > len(data) {
			t.Fatalf("offset %d outside the %d bytes", off, len(data))
		}
		var framed []byte
		for _, rec := range recs {
			framed = walFrame(framed, rec)
		}
		if !bytes.Equal(framed, data[:off]) {
			t.Fatalf("%d records framed again are not the %d bytes they were parsed from", len(recs), off)
		}
		again, off2 := walParse(data[:off])
		if off2 != off || len(again) != len(recs) {
			t.Fatalf("the valid prefix parses to %d records up to %d, the whole to %d up to %d", len(again), off2, len(recs), off)
		}
		for i := range recs {
			if !bytes.Equal(again[i], recs[i]) {
				t.Fatalf("record %d of the valid prefix differs", i)
			}
		}
	})
}

func TestWALRewriteCompacts(t *testing.T) {
	walFixtures(t, func(t *testing.T, fs *FS) {
		const path = "/ps/master/wal"
		w, _, err := fs.OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := w.Append([]byte(fmt.Sprintf("entry-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		before, err := fs.Size(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Rewrite([][]byte{[]byte("snapshot")}); err != nil {
			t.Fatal(err)
		}
		after, err := fs.Size(path)
		if err != nil {
			t.Fatal(err)
		}
		if after >= before {
			t.Fatalf("compaction grew the log: %d -> %d bytes", before, after)
		}
		// Appends after compaction land after the snapshot record.
		if err := w.Append([]byte("delta")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, recs, err := reopenWAL(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || string(recs[0]) != "snapshot" || string(recs[1]) != "delta" {
			t.Fatalf("replay after compaction = %q", recs)
		}
	})
}

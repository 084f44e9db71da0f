package dfs

// Append-only write-ahead log. The master journals every metadata
// transition here (internal/ps/masterwal.go) so a kill -9 of the master
// process loses no cluster state: the relaunched master replays the log
// before serving a single RPC.
//
// Every record is framed independently:
//
//	[u32 LE payload length][u32 LE CRC32-C of payload][payload]
//
// so a crash mid-append leaves at worst one torn frame at the tail.
// OpenWAL replays frames until the first short or CRC-failing one and
// TRUNCATES the file there — a torn tail is expected damage, not a
// reason to fail recovery (contrast ReadFileSummed, where a whole-file
// checksum mismatch is fatal because a checkpoint has no record
// boundary to fall back to). The CRC table is the same Castagnoli
// polynomial the checkpoint trailers use (checksum.go).
//
// Durability: in dir mode every Append writes through an O_APPEND
// handle and fsyncs before returning, so an acked journal entry
// survives the process. The in-memory FS has no crash story (it dies
// with the process); there the WAL just rewrites the backing file per
// append, which keeps unit tests on the same code path.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// walHeader is the per-record frame header: length + CRC32-C.
const walHeader = 8

// maxWALRecord rejects absurd lengths before allocating: a frame whose
// length field is garbage (torn header) must classify as tail damage,
// not drive a multi-GB allocation.
const maxWALRecord = 64 << 20

// WAL is an open write-ahead log. Safe for concurrent Append.
type WAL struct {
	fs   *FS
	path string

	mu  sync.Mutex
	f   *os.File // dir mode: O_APPEND write handle
	buf []byte   // memory mode: the full log contents
}

// OpenWAL replays the log at path and opens it for appending. It
// returns every intact record in order; a torn or corrupt tail frame —
// the footprint of a crash mid-append — is truncated away, never an
// error. Records are copies the caller owns.
func (fs *FS) OpenWAL(path string) (*WAL, [][]byte, error) {
	w := &WAL{fs: fs, path: path}
	if fs.dir == "" {
		var data []byte
		if fs.Exists(path) {
			d, err := fs.ReadFile(path)
			if err != nil {
				return nil, nil, fmt.Errorf("dfs: wal %s: %w", path, err)
			}
			data = d
		}
		recs, valid := walParse(data)
		w.buf = append([]byte(nil), data[:valid]...)
		if valid < len(data) {
			if err := fs.WriteFile(path, w.buf); err != nil {
				return nil, nil, fmt.Errorf("dfs: wal %s: truncate torn tail: %w", path, err)
			}
		}
		return w, recs, nil
	}
	p, err := fs.diskPath(path)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("dfs: wal %s: %w", path, err)
	}
	recs, valid := walParse(data)
	f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("dfs: wal %s: %w", path, err)
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("dfs: wal %s: truncate torn tail: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	w.f = f
	return w, recs, nil
}

// walParse scans frames from the front, returning the intact records
// and the byte offset where the first damaged (or missing) frame
// starts — the truncation point.
func walParse(data []byte) ([][]byte, int) {
	var recs [][]byte
	off := 0
	for {
		rest := data[off:]
		if len(rest) < walHeader {
			break
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n > maxWALRecord || uint64(len(rest)-walHeader) < uint64(n) {
			break
		}
		payload := rest[walHeader : walHeader+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			break
		}
		recs = append(recs, append([]byte(nil), payload...))
		off += walHeader + int(n)
	}
	return recs, off
}

// walFrame appends one framed record to buf.
func walFrame(buf, rec []byte) []byte {
	var hdr [walHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(rec)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(rec, castagnoli))
	return append(append(buf, hdr[:]...), rec...)
}

// Append durably appends one record: on a dir-backed FS it returns only
// after the frame is written AND fsynced, so a caller that saw Append
// succeed can rely on the record surviving a kill -9.
func (w *WAL) Append(rec []byte) error {
	frame := walFrame(make([]byte, 0, walHeader+len(rec)), rec)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		if _, err := w.f.Write(frame); err != nil {
			return fmt.Errorf("dfs: wal %s: append: %w", w.path, err)
		}
		w.fs.bytesWritten.Add(int64(len(frame)))
		return w.f.Sync()
	}
	w.buf = append(w.buf, frame...)
	return w.fs.WriteFile(w.path, w.buf)
}

// Rewrite atomically replaces the log's contents with recs — WAL
// compaction: after replay the owner collapses the history into a
// snapshot so the log does not grow without bound across restarts. The
// replacement rides the FS's atomic Create (temp + fsync + rename), so
// a crash mid-compaction leaves the OLD log intact, never a half
// -written one.
func (w *WAL) Rewrite(recs [][]byte) error {
	var buf []byte
	for _, rec := range recs {
		buf = walFrame(buf, rec)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		w.buf = buf
		return w.fs.WriteFile(w.path, w.buf)
	}
	wc := w.fs.Create(w.path)
	if _, err := wc.Write(buf); err != nil {
		wc.Close()
		return fmt.Errorf("dfs: wal %s: rewrite: %w", w.path, err)
	}
	if err := wc.Close(); err != nil {
		return fmt.Errorf("dfs: wal %s: rewrite: %w", w.path, err)
	}
	// The append handle still points at the pre-rename inode; reopen on
	// the freshly published file.
	p, err := w.fs.diskPath(w.path)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("dfs: wal %s: reopen after rewrite: %w", w.path, err)
	}
	w.f.Close()
	w.f = f
	return nil
}

// Close releases the append handle. Records already appended stay
// durable; the log can be reopened with OpenWAL.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

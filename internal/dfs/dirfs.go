package dfs

// Disk-backed mode. The in-memory block store cannot be shared across
// OS processes, but the multi-process deployment needs exactly that: a
// parameter server checkpoints into the DFS and a DIFFERENT process
// (the relaunched server, or a survivor adopting its partitions)
// restores from it. NewDir turns the same *FS API into a thin layer
// over a host directory, so every process pointed at the same root
// sees the same files. The HDFS simulation knobs (datanode kills,
// block replication) are inert in this mode — the host file system is
// the durability story — while Create keeps the atomic-publish
// contract (temp file + fsync + rename) the fenced checkpoint protocol
// depends on.

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// NewDir creates a file system backed by the host directory root,
// creating it if needed. Every FS handle (in any process) opened on
// the same root shares the same namespace.
func NewDir(root string) (*FS, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("dfs: resolve %s: %w", root, err)
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return nil, fmt.Errorf("dfs: create root %s: %w", abs, err)
	}
	fs := New(Config{})
	fs.dir = abs
	return fs, nil
}

// diskPath maps a DFS path onto the backing directory, refusing paths
// that would escape it.
func (fs *FS) diskPath(path string) (string, error) {
	// Cleaning the path as if rooted folds any ".." prefix into "/", so
	// the join below can never climb out of fs.dir.
	clean := filepath.Clean("/" + filepath.FromSlash(path))
	if clean == "/" || clean == string(filepath.Separator) {
		return "", fmt.Errorf("dfs: invalid path %q", path)
	}
	return filepath.Join(fs.dir, clean), nil
}

// dirWriter implements the atomic Create contract on disk: bytes go to
// a hidden temp file in the destination directory, and Close fsyncs
// and renames it into place — a reader (in this or any other process)
// sees the old content or the new, never a torn file, even if the
// writer process is killed mid-write.
type dirWriter struct {
	fs     *FS
	final  string
	f      *os.File
	err    error
	closed bool
}

func (fs *FS) dirCreate(path string) io.WriteCloser {
	w := &dirWriter{fs: fs}
	p, err := fs.diskPath(path)
	if err != nil {
		w.err = err
		return w
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		w.err = err
		return w
	}
	f, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		w.err = err
		return w
	}
	w.final, w.f = p, f
	return w
}

func (w *dirWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, errors.New("dfs: write after close")
	}
	n, err := w.f.Write(p)
	w.fs.bytesWritten.Add(int64(n))
	if err != nil {
		w.err = err
	}
	return n, err
}

func (w *dirWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return w.err
	}
	if w.err != nil {
		w.f.Close()
		os.Remove(w.f.Name())
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		os.Remove(w.f.Name())
		return err
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.f.Name())
		return err
	}
	return os.Rename(w.f.Name(), w.final)
}

func (fs *FS) dirOpen(path string) (io.ReadCloser, error) {
	p, err := fs.diskPath(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		return nil, err
	}
	return f, nil
}

func (fs *FS) dirOpenRange(path string, off, length int64) (io.ReadCloser, error) {
	p, err := fs.diskPath(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if off < 0 {
		off = 0
	}
	if off > size {
		off = size
	}
	if length < 0 || off+length > size {
		length = size - off
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return struct {
		io.Reader
		io.Closer
	}{io.LimitReader(f, length), f}, nil
}

func (fs *FS) dirExists(path string) bool {
	p, err := fs.diskPath(path)
	if err != nil {
		return false
	}
	st, err := os.Stat(p)
	return err == nil && !st.IsDir()
}

func (fs *FS) dirSize(path string) (int64, error) {
	p, err := fs.diskPath(path)
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(p)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return 0, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		return 0, err
	}
	return st.Size(), nil
}

func (fs *FS) dirRename(oldPath, newPath string) error {
	op, err := fs.diskPath(oldPath)
	if err != nil {
		return err
	}
	np, err := fs.diskPath(newPath)
	if err != nil {
		return err
	}
	if _, err := os.Stat(op); errors.Is(err, iofs.ErrNotExist) {
		return fmt.Errorf("%w: %s", ErrNotExist, oldPath)
	}
	if err := os.MkdirAll(filepath.Dir(np), 0o755); err != nil {
		return err
	}
	return os.Rename(op, np)
}

// dirWalk visits every regular file under the root (skipping in-flight
// temp files) and hands the callback its slash-separated DFS path and
// host path.
func (fs *FS) dirWalk(visit func(dfsPath, hostPath string)) {
	filepath.WalkDir(fs.dir, func(p string, d iofs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), ".tmp-") {
			return nil
		}
		rel, rerr := filepath.Rel(fs.dir, p)
		if rerr != nil {
			return nil
		}
		visit(filepath.ToSlash(rel), p)
		return nil
	})
}

func (fs *FS) dirDeletePrefix(prefix string) int {
	var doomed []string
	fs.dirWalk(func(dp, hp string) {
		if strings.HasPrefix(dp, prefix) {
			doomed = append(doomed, hp)
		}
	})
	n := 0
	for _, hp := range doomed {
		if os.Remove(hp) == nil {
			n++
		}
	}
	return n
}

func (fs *FS) dirList(prefix string) []string {
	var out []string
	fs.dirWalk(func(dp, _ string) {
		if strings.HasPrefix(dp, prefix) {
			out = append(out, dp)
		}
	})
	sort.Strings(out)
	return out
}

func (fs *FS) dirCorruptFile(path string, off int64) error {
	p, err := fs.diskPath(path)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(p, os.O_RDWR, 0)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		return fmt.Errorf("dfs: corrupt %s: empty file", path)
	}
	off %= st.Size()
	if off < 0 {
		off += st.Size()
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0xFF
	_, err = f.WriteAt(b[:], off)
	return err
}

// Package dfs implements a small distributed file system in the spirit of
// HDFS, used by PSGraph as the durable substrate for input datasets,
// shuffle spill files, and parameter-server checkpoints.
//
// Files are split into fixed-size blocks; each block is replicated across
// several datanodes. A namenode keeps the path → block mapping. Datanodes
// can be killed and revived to exercise the failure-recovery paths of the
// systems built on top (Table II of the paper).
//
// The implementation is in-memory: the experiments run on one machine, so
// "disk" is modeled as byte storage behind the same API shape as HDFS,
// with read/write byte counters so benchmarks can report IO volume.
package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Config controls the geometry of the file system.
type Config struct {
	// BlockSize is the maximum number of bytes per block. Defaults to 4 MiB.
	BlockSize int
	// Replication is the number of datanodes each block is stored on.
	// Defaults to 2 and is capped at NumDataNodes.
	Replication int
	// NumDataNodes is the number of datanodes. Defaults to 3.
	NumDataNodes int
}

func (c *Config) setDefaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = 4 << 20
	}
	if c.NumDataNodes <= 0 {
		c.NumDataNodes = 3
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.Replication > c.NumDataNodes {
		c.Replication = c.NumDataNodes
	}
}

// ErrNotExist reports that a path is absent.
var ErrNotExist = errors.New("dfs: file does not exist")

// ErrUnavailable reports that every replica of a needed block is on a dead
// datanode.
var ErrUnavailable = errors.New("dfs: block unavailable (all replicas dead)")

type fileMeta struct {
	blocks []int64
	size   int64
}

type datanode struct {
	mu     sync.RWMutex
	alive  bool
	blocks map[int64][]byte
}

// FS is the file system handle shared by all simulated cluster nodes.
// With dir set (NewDir) the same API is backed by a host directory
// instead, shareable across OS processes; see dirfs.go.
type FS struct {
	cfg Config
	dir string

	mu      sync.RWMutex
	files   map[string]*fileMeta
	blocks  map[int64][]int // blockID -> datanode indices holding a replica
	nextID  int64
	nextDN  int
	nodes   []*datanode
	killedW bool // writes to killed nodes silently skip (replica lost)

	bytesWritten atomic.Int64
}

// New creates a file system with the given configuration.
func New(cfg Config) *FS {
	cfg.setDefaults()
	fs := &FS{
		cfg:    cfg,
		files:  make(map[string]*fileMeta),
		blocks: make(map[int64][]int),
	}
	for i := 0; i < cfg.NumDataNodes; i++ {
		fs.nodes = append(fs.nodes, &datanode{alive: true, blocks: make(map[int64][]byte)})
	}
	return fs
}

// NewDefault creates a file system with default configuration.
func NewDefault() *FS { return New(Config{}) }

// BytesWritten returns the cumulative number of block bytes written
// (counting each replica).
func (fs *FS) BytesWritten() int64 { return fs.bytesWritten.Load() }

// KillDataNode marks datanode i dead. Its replicas become unreadable until
// Revive. Blocks whose every replica is dead fail reads with ErrUnavailable.
func (fs *FS) KillDataNode(i int) {
	fs.nodes[i].mu.Lock()
	fs.nodes[i].alive = false
	fs.nodes[i].mu.Unlock()
}

// ReviveDataNode brings datanode i back with its stored blocks intact.
func (fs *FS) ReviveDataNode(i int) {
	fs.nodes[i].mu.Lock()
	fs.nodes[i].alive = true
	fs.nodes[i].mu.Unlock()
}

// allocBlock stores data on Replication alive datanodes and returns the
// block id. The caller gives data up: it is stored as it is, not copied.
func (fs *FS) allocBlock(data []byte) int64 {
	fs.mu.Lock()
	id := fs.nextID
	fs.nextID++
	var replicas []int
	tried := 0
	for len(replicas) < fs.cfg.Replication && tried < len(fs.nodes) {
		dn := fs.nextDN % len(fs.nodes)
		fs.nextDN++
		tried++
		replicas = append(replicas, dn)
	}
	fs.blocks[id] = replicas
	fs.mu.Unlock()

	stored := data[:len(data):len(data)]
	for _, dn := range replicas {
		node := fs.nodes[dn]
		node.mu.Lock()
		if node.alive {
			node.blocks[id] = stored
			fs.bytesWritten.Add(int64(len(stored)))
		}
		node.mu.Unlock()
	}
	return id
}

// readBlock fetches a block from the first alive replica.
func (fs *FS) readBlock(id int64) ([]byte, error) {
	fs.mu.RLock()
	replicas := fs.blocks[id]
	fs.mu.RUnlock()
	for _, dn := range replicas {
		node := fs.nodes[dn]
		node.mu.RLock()
		data, ok := node.blocks[id]
		alive := node.alive
		node.mu.RUnlock()
		if ok && alive {
			return data, nil
		}
	}
	return nil, fmt.Errorf("%w: block %d", ErrUnavailable, id)
}

func (fs *FS) freeBlocks(ids []int64) {
	fs.mu.Lock()
	replicaSets := make([][]int, len(ids))
	for i, id := range ids {
		replicaSets[i] = fs.blocks[id]
		delete(fs.blocks, id)
	}
	fs.mu.Unlock()
	for i, id := range ids {
		for _, dn := range replicaSets[i] {
			node := fs.nodes[dn]
			node.mu.Lock()
			delete(node.blocks, id)
			node.mu.Unlock()
		}
	}
}

// Create returns a writer for path. The file becomes visible atomically
// when the writer is closed, replacing any previous file at the path.
func (fs *FS) Create(path string) io.WriteCloser {
	if fs.dir != "" {
		return fs.dirCreate(path)
	}
	return &fileWriter{fs: fs, path: path}
}

type fileWriter struct {
	fs     *FS
	path   string
	buf    bytes.Buffer
	blocks []int64
	size   int64
	closed bool
}

func (w *fileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("dfs: write after close")
	}
	w.buf.Write(p)
	w.size += int64(len(p))
	for w.buf.Len() >= w.fs.cfg.BlockSize {
		block := make([]byte, w.fs.cfg.BlockSize)
		io.ReadFull(&w.buf, block)
		w.blocks = append(w.blocks, w.fs.allocBlock(block))
	}
	return len(p), nil
}

func (w *fileWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.buf.Len() > 0 {
		w.blocks = append(w.blocks, w.fs.allocBlock(w.buf.Bytes()))
	}
	w.fs.mu.Lock()
	old := w.fs.files[w.path]
	w.fs.files[w.path] = &fileMeta{blocks: w.blocks, size: w.size}
	w.fs.mu.Unlock()
	if old != nil {
		w.fs.freeBlocks(old.blocks)
	}
	return nil
}

// Open returns a reader over the file at path.
func (fs *FS) Open(path string) (io.ReadCloser, error) {
	if fs.dir != "" {
		return fs.dirOpen(path)
	}
	fs.mu.RLock()
	meta, ok := fs.files[path]
	fs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	return &fileReader{fs: fs, blocks: meta.blocks}, nil
}

type fileReader struct {
	fs     *FS
	blocks []int64
	idx    int
	cur    []byte
	off    int
}

func (r *fileReader) Read(p []byte) (int, error) {
	for r.off >= len(r.cur) {
		if r.idx >= len(r.blocks) {
			return 0, io.EOF
		}
		block, err := r.fs.readBlock(r.blocks[r.idx])
		if err != nil {
			return 0, err
		}
		r.cur = block
		r.off = 0
		r.idx++
	}
	n := copy(p, r.cur[r.off:])
	r.off += n
	return n, nil
}

func (r *fileReader) Close() error { return nil }

// OpenRange returns a reader over bytes [off, off+length) of the file,
// reading only the blocks that overlap the range — the primitive behind
// dataflow input splits (one task per byte range, as in HDFS).
func (fs *FS) OpenRange(path string, off, length int64) (io.ReadCloser, error) {
	if fs.dir != "" {
		return fs.dirOpenRange(path, off, length)
	}
	fs.mu.RLock()
	meta, ok := fs.files[path]
	fs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if off < 0 {
		off = 0
	}
	if off > meta.size {
		off = meta.size
	}
	if length < 0 || off+length > meta.size {
		length = meta.size - off
	}
	bs := int64(fs.cfg.BlockSize)
	firstBlock := int(off / bs)
	r := &fileReader{fs: fs, blocks: meta.blocks, idx: firstBlock}
	return &rangeReader{r: r, skip: off - int64(firstBlock)*bs, remain: length}, nil
}

// rangeReader restricts a fileReader to a byte window.
type rangeReader struct {
	r      *fileReader
	skip   int64
	remain int64
}

func (rr *rangeReader) Read(p []byte) (int, error) {
	for rr.skip > 0 {
		buf := make([]byte, min(rr.skip, 64<<10))
		n, err := rr.r.Read(buf)
		rr.skip -= int64(n)
		if err != nil {
			return 0, err
		}
	}
	if rr.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > rr.remain {
		p = p[:rr.remain]
	}
	n, err := rr.r.Read(p)
	rr.remain -= int64(n)
	return n, err
}

func (rr *rangeReader) Close() error { return rr.r.Close() }

// WriteFile writes data to path in one call.
func (fs *FS) WriteFile(path string, data []byte) error {
	w := fs.Create(path)
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// ReadFile reads the whole file at path.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// Exists reports whether path is a file.
func (fs *FS) Exists(path string) bool {
	if fs.dir != "" {
		return fs.dirExists(path)
	}
	fs.mu.RLock()
	_, ok := fs.files[path]
	fs.mu.RUnlock()
	return ok
}

// Size returns the byte length of the file at path.
func (fs *FS) Size(path string) (int64, error) {
	if fs.dir != "" {
		return fs.dirSize(path)
	}
	fs.mu.RLock()
	meta, ok := fs.files[path]
	fs.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	return meta.size, nil
}

// Rename moves a file from old to new atomically.
func (fs *FS) Rename(oldPath, newPath string) error {
	if fs.dir != "" {
		return fs.dirRename(oldPath, newPath)
	}
	fs.mu.Lock()
	meta, ok := fs.files[oldPath]
	if !ok {
		fs.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotExist, oldPath)
	}
	replaced := fs.files[newPath]
	fs.files[newPath] = meta
	delete(fs.files, oldPath)
	fs.mu.Unlock()
	if replaced != nil {
		fs.freeBlocks(replaced.blocks)
	}
	return nil
}

// DeletePrefix removes every file whose path starts with prefix and
// returns the number removed.
func (fs *FS) DeletePrefix(prefix string) int {
	if fs.dir != "" {
		return fs.dirDeletePrefix(prefix)
	}
	fs.mu.Lock()
	var doomed []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			doomed = append(doomed, p)
		}
	}
	metas := make([]*fileMeta, len(doomed))
	for i, p := range doomed {
		metas[i] = fs.files[p]
		delete(fs.files, p)
	}
	fs.mu.Unlock()
	for _, m := range metas {
		fs.freeBlocks(m.blocks)
	}
	return len(doomed)
}

// List returns the sorted paths that start with prefix.
func (fs *FS) List(prefix string) []string {
	if fs.dir != "" {
		return fs.dirList(prefix)
	}
	fs.mu.RLock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	fs.mu.RUnlock()
	sort.Strings(out)
	return out
}

package dataflow

import (
	"bytes"
	"io"

	"psgraph/internal/dfs"
)

// readSplit calls fn with every line of the file at path that input
// split part (of parts) owns, in file order and without its newline.
// Byte-range splits follow Hadoop InputFormat semantics: a line belongs
// to the split holding its first byte. Readers of non-first splits open
// one byte early and discard one line — if start coincides with a line
// start, the discarded "line" is exactly the preceding newline, so
// nothing is lost; otherwise the partial line is dropped (its owner is
// the previous split, which reads lines as long as they *start* before
// its end).
//
// Lines are cut out of one read window, which doubles when a line does
// not fit in it. The slice handed to fn aliases the window and is valid
// only for the call; fn copies what it keeps.
func readSplit(fs *dfs.FS, path string, part, parts int, fn func(line []byte) error) error {
	size, err := fs.Size(path)
	if err != nil {
		return err
	}
	start := size * int64(part) / int64(parts)
	end := size * int64(part+1) / int64(parts)
	pos := max(start-1, 0) // file offset of buf[0]
	f, err := fs.OpenRange(path, pos, size-pos)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 1<<16)
	var n, off int // buf[off:n] is read and not yet cut
	skip, eof := start > 0, false
	for {
		i := bytes.IndexByte(buf[off:n], '\n')
		if i < 0 && !eof {
			if off == 0 && n == len(buf) {
				buf = append(buf, make([]byte, len(buf))...)
			}
			n = copy(buf, buf[off:n])
			pos, off = pos+int64(off), 0
			m, err := io.ReadFull(f, buf[n:])
			if eof = err == io.EOF || err == io.ErrUnexpectedEOF; err != nil && !eof {
				return err
			}
			n += m
			continue
		}
		if !skip && pos+int64(off) >= end {
			return nil
		}
		if i < 0 { // the file's last line, which has no '\n'
			if skip || off == n {
				return nil
			}
			return fn(buf[off:n])
		}
		line := buf[off : off+i]
		off += i + 1
		if skip {
			skip = false
		} else if err := fn(line); err != nil {
			return err
		}
	}
}

// ParseTextFile reads a DFS file as an RDD of parsed lines using
// byte-range input splits (see readSplit): each task reads and parses
// only its share of the file. parse sees every owned line as bytes that
// are valid only for the call and returns the element, false to drop the
// line, or an error that fails the job. A retried task re-reads its
// split from the DFS — the "executor reloads graph data from HDFS and
// continues" behavior of Sec. III-C.
func ParseTextFile[T any](ctx *Context, path string, parts int, parse func(line []byte) (T, bool, error)) *RDD[T] {
	if parts <= 0 {
		parts = ctx.cfg.DefaultParallelism
	}
	stream := func(t *Task, part int, emit func(T) error) error {
		return readSplit(ctx.FS, path, part, parts, func(line []byte) error {
			x, ok, err := parse(line)
			if err != nil || !ok {
				return err
			}
			return emit(x)
		})
	}
	return &RDD[T]{
		ctx:     ctx,
		parts:   parts,
		name:    "textFile(" + path + ")",
		stream:  stream,
		compute: func(t *Task, part int) ([]T, error) { return collectStream(t, part, stream) },
	}
}

// TextFile reads a DFS file as an RDD of lines, one string per line.
func TextFile(ctx *Context, path string, parts int) *RDD[string] {
	return ParseTextFile(ctx, path, parts, func(line []byte) (string, bool, error) {
		return string(line), true, nil
	})
}

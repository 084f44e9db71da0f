package dataflow

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"unsafe"
)

// KV is the element type of keyed datasets.
type KV[K comparable, V any] struct {
	K K
	V V
}

// Pair carries the two sides of a join result.
type Pair[V, W any] struct {
	A V
	B W
}

// shuffleSeed makes key hashing stable within a process.
var shuffleSeed = maphash.MakeSeed()

// partitioner returns the reduce partition of a key, picked once per
// shuffle. int64 keys take SplitMix64's finalizer, a fixed function, so a
// vertex lands in the same partition in every process; other key types
// hash with the per-process seed. The hash depends on the key type alone:
// the two sides of a join stay co-partitioned.
func partitioner[K comparable](parts int) func(K) int {
	if f, ok := any(func(k int64) int {
		x := uint64(k)
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		hi, _ := bits.Mul64(x^x>>31, uint64(parts))
		return int(hi)
	}).(func(K) int); ok {
		return f
	}
	return func(k K) int { return int(maphash.Comparable(shuffleSeed, k) % uint64(parts)) }
}

// shuffleDep is one shuffle boundary: its map side runs once (guarded),
// streaming per-(mapPart, reducePart) record files to the DFS; reduce
// tasks stream-decode the files addressed to their partition. counts[mp]
// is map task mp's records per reduce partition, set when its files are
// published: a retried task replaces the row, it never adds to it.
type shuffleDep struct {
	ctx         *Context
	id          int64
	mapParts    int
	reduceParts int
	counts      [][]int
	run         func() error
	once        sync.Once
	err         error
}

// records is the number of records addressed to reduce partition rp.
func (s *shuffleDep) records(rp int) int {
	n := 0
	for _, c := range s.counts {
		n += c[rp]
	}
	return n
}

func (s *shuffleDep) materialize() error {
	s.once.Do(func() { s.err = s.run() })
	return s.err
}

func shuffleDir(id int64) string { return fmt.Sprintf("/shuffle/%d/", id) }

func shufflePath(id int64, mapPart, reducePart int) string {
	return fmt.Sprintf("%s%05d-%05d", shuffleDir(id), mapPart, reducePart)
}

// bucketWriter streams a map task's records for one reduce partition to
// the DFS. A record codec encodes into the open frame and writes it at
// shuffleChunk bytes, or before a record that would carry it past that; a
// frame codec packs frameRecords staged records at once and writes frames
// in half chunks. The task is charged one chunk, not the whole bucket;
// reset keeps the buffers for the next file.
type bucketWriter[K comparable, V any] struct {
	file  io.WriteCloser
	n     int64 // bytes handed to the DFS
	buf   []byte
	at    int // the open frame's header, after the closed frames in buf
	recs  int // records in the open frame
	stage []KV[K, V]
	codec *shuffleCodec[K, V]
}

func newBucketWriter[K comparable, V any](ctx *Context, path string, codec *shuffleCodec[K, V]) *bucketWriter[K, V] {
	w := &bucketWriter[K, V]{buf: make([]byte, 0, shuffleChunk+1024), codec: codec}
	if codec.pack != nil {
		w.stage = make([]KV[K, V], 0, frameRecords)
	}
	w.reset(ctx.FS.Create(path))
	return w
}

func (w *bucketWriter[K, V]) reset(file io.WriteCloser) {
	w.file, w.n, w.buf, w.at, w.recs, w.stage = file, 0, w.buf[:frameHeader], 0, 0, w.stage[:0]
}

func (w *bucketWriter[K, V]) write(kv KV[K, V]) error {
	if w.stage != nil {
		if w.stage = append(w.stage, kv); len(w.stage) < frameRecords {
			return nil
		}
		return w.flush(false)
	}
	end := len(w.buf)
	if w.buf, w.recs = w.codec.enc(w.buf, kv), w.recs+1; len(w.buf) > shuffleChunk && w.recs > 1 {
		if err := w.cut(end, w.recs-1, true); err != nil { // kv opens the next frame
			return err
		}
	}
	if len(w.buf) < shuffleChunk {
		return nil
	}
	return w.flush(true)
}

// flush closes the open frame and writes buf if write is set or it holds
// half a chunk, which leaves room for a packed frame's worst case.
func (w *bucketWriter[K, V]) flush(write bool) error {
	if len(w.stage) > 0 {
		w.buf, w.recs, w.stage = w.codec.pack(w.buf, w.stage), len(w.stage), w.stage[:0]
	}
	return w.cut(len(w.buf), w.recs, write || len(w.buf) >= shuffleChunk/2)
}

// cut closes the open frame after its first n records, if any, which end
// at buf[end]: the bytes after them open the next frame, behind room for
// its header. With write set, the closed frames go to the DFS.
func (w *bucketWriter[K, V]) cut(end, n int, write bool) error {
	if size := end - w.at - frameHeader; n > 0 {
		if int64(size) > math.MaxUint32 {
			return fmt.Errorf("dataflow: a shuffle record of %d bytes", size)
		}
		binary.LittleEndian.PutUint32(w.buf[w.at:], uint32(size))
		binary.LittleEndian.PutUint32(w.buf[w.at+4:], uint32(n))
		w.buf = append(w.buf, make([]byte, frameHeader)...)
		copy(w.buf[end+frameHeader:], w.buf[end:])
		w.at, w.recs = end, w.recs-n
	}
	if !write {
		return nil
	}
	m, err := w.file.Write(w.buf[:w.at])
	w.n, w.buf, w.at = w.n+int64(m), w.buf[:copy(w.buf, w.buf[w.at:])], 0
	return err
}

// close flushes, publishes the file and returns the bytes written. A
// writer that is not closed publishes nothing: the DFS file only becomes
// visible on Close.
func (w *bucketWriter[K, V]) close() (int64, error) {
	if err := w.flush(true); err != nil {
		return w.n, err
	}
	return w.n, w.file.Close()
}

// writeShuffle creates the map side of a shuffle over parent, bucketing
// elements by key hash. Elements stream straight from the parent's fused
// evaluation path into per-bucket chunked encoders, so neither the
// parent's output nor any encoded bucket is ever held whole in memory.
// It returns the dep to attach to the reduce-side RDD. A shape with no
// registered codec cannot shuffle: it panics here, when the job is built,
// not when its map side runs.
func writeShuffle[K comparable, V any](parent *RDD[KV[K, V]], reduceParts int) *shuffleDep {
	codec := codecFor[K, V]()
	if codec == nil {
		panic(fmt.Sprintf("dataflow: no shuffle codec registered for %v", reflect.TypeFor[KV[K, V]]()))
	}
	ctx := parent.ctx
	dep := &shuffleDep{
		ctx:         ctx,
		id:          ctx.shuffleSeq.Add(1),
		mapParts:    parent.parts,
		reduceParts: reduceParts,
		counts:      make([][]int, parent.parts),
	}
	// The files live exactly as long as lineage can lead back to them:
	// every reduce-side RDD holds dep (and so does a task that is being
	// retried), so once dep is unreachable nothing can read them again
	// and they are deleted — Spark's ContextCleaner. The cleanup must not
	// reference dep itself.
	fs := ctx.FS
	runtime.AddCleanup(dep, func(dir string) { fs.DeletePrefix(dir) }, shuffleDir(dep.id))
	dep.run = func() error {
		if err := parent.prepare(); err != nil {
			return err
		}
		partOf := partitioner[K](reduceParts)
		// One set of bucket writers per executor slot for the life of the
		// shuffle (an executor runs one task at a time): a task takes its
		// slot's set, resets it and gives it back.
		sets := make([][]*bucketWriter[K, V], len(ctx.execs))
		return ctx.runTasks(parent.parts, func(t *Task, part int) error {
			// Each open bucket holds at most one chunk of pending
			// records — that chunk is the transient serialization memory.
			charge := int64(reduceParts) * shuffleChunk
			if err := t.Alloc(charge); err != nil {
				return err
			}
			defer t.Free(charge)
			buckets := sets[t.Executor()]
			defer func() { sets[t.Executor()] = buckets }()
			for rp := range reduceParts {
				if path := shufflePath(dep.id, part, rp); rp < len(buckets) {
					buckets[rp].reset(ctx.FS.Create(path))
				} else {
					buckets = append(buckets, newBucketWriter(ctx, path, codec))
				}
			}
			counts := make([]int, reduceParts)
			err := parent.streamPart(t, part, func(kv KV[K, V]) error {
				rp := partOf(kv.K)
				counts[rp]++
				return buckets[rp].write(kv)
			})
			if err != nil {
				return err
			}
			for _, b := range buckets {
				n, err := b.close()
				if err != nil {
					return err
				}
				ctx.shuffleBytes.Add(n)
			}
			dep.counts[part] = counts
			return nil
		})
	}
	return dep
}

// readShufflePart streams every map output addressed to reduce partition
// rp through one window, decoding it a frame at a time into consume. Only
// the window and its stage are charged to the task (the shuffle fetch
// buffer), not the file contents.
func readShufflePart[K comparable, V any](t *Task, dep *shuffleDep, rp int, consume func([]KV[K, V]) error) error {
	codec := codecFor[K, V]()
	if err := t.Alloc(shuffleChunk / 2); err != nil {
		return err
	}
	w := &shuffleWindow[K, V]{t: t, buf: make([]byte, shuffleChunk/2)}
	defer func() { t.Free(int64(len(w.buf)) + w.staged) }()
	for mp := 0; mp < dep.mapParts; mp++ {
		if err := readShuffleFile(dep, mp, rp, codec, w, consume); err != nil {
			return err
		}
	}
	return nil
}

// shuffleWindow is a reduce task's read buffer, half a chunk unless a
// longer frame grew it, and its stage of staged bytes: the last frame's
// records (a packed frame's take the other half chunk). r is a record
// codec's cursor over a frame's body.
type shuffleWindow[K comparable, V any] struct {
	t      *Task
	buf    []byte
	r      BinReader
	recs   []KV[K, V]
	staged int64
}

// read reads the next size bytes of f into the window. A window too short
// for them doubles, charged to the task, each time it fills: it grows to
// at most twice the bytes that actually arrived, whatever size claims.
func (w *shuffleWindow[K, V]) read(f io.Reader, size int) ([]byte, error) {
	for n := 0; ; {
		m, err := io.ReadFull(f, w.buf[n:min(size, len(w.buf))])
		if n += m; n == size || err != nil {
			return w.buf[:n], err
		}
		if err := w.t.Alloc(int64(n)); err != nil {
			return nil, err
		}
		w.buf = append(w.buf, make([]byte, n)...)
	}
}

// readShuffleFile decodes one file's frames.
func readShuffleFile[K comparable, V any](dep *shuffleDep, mp, rp int, codec *shuffleCodec[K, V], w *shuffleWindow[K, V], consume func([]KV[K, V]) error) error {
	f, err := dep.ctx.FS.Open(shufflePath(dep.id, mp, rp))
	if err != nil {
		return err
	}
	defer f.Close()
	for {
		h, err := w.read(f, frameHeader)
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = w.frame(codec, f, h, consume)
		}
		if err != nil {
			return fmt.Errorf("dataflow: shuffle %d file %d-%d: %w", dep.id, mp, rp, err)
		}
	}
}

// frame decodes the body header h announces into the stage and hands it
// to consume, the records a record codec read before a malformed one
// included. A header is a claim like any length: a frame of more than one
// record may not outrun a chunk, nor claim more records than it has bytes
// (or a packed frame holds), so only a one-record frame grows the window
// past one.
func (w *shuffleWindow[K, V]) frame(codec *shuffleCodec[K, V], f io.Reader, h []byte, consume func([]KV[K, V]) error) error {
	size, n := int(binary.LittleEndian.Uint32(h)), int(binary.LittleEndian.Uint32(h[4:]))
	if n == 0 || n > 1 && frameHeader+size > shuffleChunk || n > size && codec.dec != nil || n > frameRecords && codec.unpack != nil {
		return fmt.Errorf("a frame of %d bytes claims %d records", size, n)
	}
	body, err := w.read(f, size)
	if err != nil {
		return err
	}
	if codec.unpack != nil {
		w.recs, err = codec.unpack(body, n, w.recs)
	} else {
		for w.r, w.recs = (BinReader{b: body}), slices.Grow(w.recs[:0], n); n > 0; n-- {
			kv := codec.dec(&w.r)
			if w.r.cut() {
				break
			}
			w.recs = append(w.recs, kv)
		}
		if w.r.off != len(body) || n > 0 {
			err = fmt.Errorf("a frame's records do not fill its %d bytes: %v", size, w.r.Err())
		}
	}
	if grown := int64(cap(w.recs))*int64(unsafe.Sizeof(KV[K, V]{})) - w.staged; grown > 0 {
		if err := w.t.Alloc(grown); err != nil {
			return err
		}
		w.staged += grown
	}
	return cmp.Or(consume(w.recs), err)
}

// GroupByKey shuffles the dataset so that all values of a key land in one
// partition and groups them. The per-partition hash table is charged
// against the executor budget — this is the memory-hungry operation that
// blows up GraphX on large graphs.
func GroupByKey[K comparable, V any](r *RDD[KV[K, V]], parts int) *RDD[KV[K, []V]] {
	out := ShuffleReduce(r, parts, func(t *Task, _ int, frames func(func([]KV[K, V]) error) error) ([]KV[K, []V], error) {
		groups, tableBytes, err := groupAll(t, frames)
		if err != nil {
			return nil, err
		}
		return emit(t, entries(groups), tableBytes)
	})
	out.name = r.name + ".groupByKey"
	return out
}

// groupAll reads frames into a key → values table, charged to t as it
// grows (1.5x the raw data models map + slice overhead), and returns the
// charge with it.
func groupAll[K comparable, V any](t *Task, frames func(func([]KV[K, V]) error) error) (map[K][]V, int64, error) {
	groups := make(map[K][]V)
	var tableBytes int64
	var sizer sizeSampler[V]
	err := frames(func(f []KV[K, V]) error {
		grow := int64(0)
		for _, kv := range f {
			groups[kv.K] = append(groups[kv.K], kv.V)
			grow += sizer.estimate(kv.V)*3/2 + 8
		}
		tableBytes += grow
		return t.Alloc(grow)
	})
	return groups, tableBytes, err
}

// emit charges a reduce task's output partition, which coexists with the
// table it was built from, then releases the table's charge.
func emit[U any](t *Task, out []U, tableBytes int64) ([]U, error) {
	if err := t.Alloc(estimateBytes(out)); err != nil {
		return nil, err
	}
	t.Free(tableBytes)
	return out, nil
}

func entries[K comparable, V any](m map[K]V) []KV[K, V] {
	out := make([]KV[K, V], 0, len(m))
	for k, v := range m {
		out = append(out, KV[K, V]{K: k, V: v})
	}
	return out
}

// ReduceByKey shuffles with map-side combining and merges values with f.
func ReduceByKey[K comparable, V any](r *RDD[KV[K, V]], f func(a, b V) V, parts int) *RDD[KV[K, V]] {
	// Map-side combine before the shuffle.
	combined := MapPartitions(r, func(part int, in []KV[K, V]) ([]KV[K, V], error) {
		acc := make(map[K]V, len(in)/2+1)
		combine(acc, in, f, nil)
		return entries(acc), nil
	})
	combined.name = r.name + ".combine"
	out := ShuffleReduce(combined, parts, func(t *Task, _ int, frames func(func([]KV[K, V]) error) error) ([]KV[K, V], error) {
		acc := make(map[K]V)
		var tableBytes int64
		var sizer sizeSampler[V]
		err := frames(func(recs []KV[K, V]) error {
			grow := combine(acc, recs, f, &sizer)
			tableBytes += grow
			return t.Alloc(grow)
		})
		if err != nil {
			return nil, err
		}
		return emit(t, entries(acc), tableBytes)
	})
	out.name = r.name + ".reduceByKey"
	return out
}

// combine folds recs into acc with f and returns what the keys it added
// are charged, by sizer (nothing without one).
func combine[K comparable, V any](acc map[K]V, recs []KV[K, V], f func(a, b V) V, sizer *sizeSampler[V]) (grow int64) {
	for _, kv := range recs {
		if cur, ok := acc[kv.K]; ok {
			acc[kv.K] = f(cur, kv.V)
		} else if acc[kv.K] = kv.V; sizer != nil {
			grow += sizer.estimate(kv.V) + 16
		}
	}
	return grow
}

// Join computes the inner join of two keyed datasets. Both sides are
// shuffled; the reduce task builds a hash table of the left side and
// streams the right side through it. The build table plus the emitted
// pairs are charged to the executor — joining two large tables is
// exactly where GraphX runs out of memory (Sec. I).
func Join[K comparable, V, W any](a *RDD[KV[K, V]], b *RDD[KV[K, W]], parts int) *RDD[KV[K, Pair[V, W]]] {
	if parts <= 0 {
		parts = a.ctx.cfg.DefaultParallelism
	}
	depA := writeShuffle(a, parts)
	depB := writeShuffle(b, parts)
	return &RDD[KV[K, Pair[V, W]]]{
		ctx:      a.ctx,
		parts:    parts,
		parents:  []node{a, b},
		shuffles: []*shuffleDep{depA, depB},
		name:     a.name + ".join(" + b.name + ")",
		compute: func(t *Task, part int) ([]KV[K, Pair[V, W]], error) {
			build, tableBytes, err := groupAll(t, func(consume func([]KV[K, V]) error) error {
				return readShufflePart(t, depA, part, consume)
			})
			if err != nil {
				return nil, err
			}
			var out []KV[K, Pair[V, W]]
			err = readShufflePart(t, depB, part, func(f []KV[K, W]) error {
				for _, kv := range f {
					for _, v := range build[kv.K] {
						out = append(out, KV[K, Pair[V, W]]{K: kv.K, V: Pair[V, W]{A: v, B: kv.V}})
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			// Rows replicate the build-side values (e.g. whole adjacency
			// arrays), which is where join-based graph processing spends
			// its memory.
			return emit(t, out, tableBytes)
		},
	}
}

// ShuffleReduce hash-partitions a keyed dataset into parts partitions
// and builds each output partition with reduce. n is the exact number of
// records addressed to the partition, as its map tasks counted them;
// frames streams them into consume a decoded frame at a time, in a slice
// the next frame overwrites. reduce decides what to hold — flat columns, a
// table, a running aggregate — and charges it to t.
func ShuffleReduce[K comparable, V, U any](r *RDD[KV[K, V]], parts int,
	reduce func(t *Task, n int, frames func(consume func([]KV[K, V]) error) error) ([]U, error)) *RDD[U] {
	if parts <= 0 {
		parts = r.ctx.cfg.DefaultParallelism
	}
	dep := writeShuffle(r, parts)
	return &RDD[U]{
		ctx:      r.ctx,
		parts:    parts,
		parents:  []node{r},
		shuffles: []*shuffleDep{dep},
		name:     r.name + ".shuffleReduce",
		compute: func(t *Task, part int) ([]U, error) {
			return reduce(t, dep.records(part), func(consume func([]KV[K, V]) error) error {
				return readShufflePart(t, dep, part, consume)
			})
		},
	}
}

// Distinct removes duplicate elements (via a shuffle on the element).
func Distinct[T comparable](r *RDD[T], parts int) *RDD[T] {
	keyed := Map(r, func(x T) KV[T, struct{}] { return KV[T, struct{}]{K: x} })
	keyed.name = r.name + ".keyed"
	grouped := ReduceByKey(keyed, func(a, b struct{}) struct{} { return a }, parts)
	out := Map(grouped, func(kv KV[T, struct{}]) T { return kv.K })
	out.name = r.name + ".distinct"
	return out
}

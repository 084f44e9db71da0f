package dataflow

import (
	"fmt"
	"hash/maphash"
	"io"
	"math/bits"
	"reflect"
	"runtime"
	"sync"
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

// bucketWriter streams one reduce partition's records of a map task to
// the DFS. Records are encoded into a pooled chunk flushed at shuffleChunk
// bytes, so the task is charged one chunk of transient memory, not the
// whole encoded bucket.
type bucketWriter[K comparable, V any] struct {
	file  io.WriteCloser
	n     int64 // bytes handed to the DFS
	buf   []byte
	codec *shuffleCodec[K, V]
}

func newBucketWriter[K comparable, V any](ctx *Context, path string, codec *shuffleCodec[K, V]) *bucketWriter[K, V] {
	return &bucketWriter[K, V]{file: ctx.FS.Create(path), buf: getShuffleBuf(), codec: codec}
}

func (w *bucketWriter[K, V]) write(kv KV[K, V]) error {
	w.buf = w.codec.enc(w.buf, kv)
	if len(w.buf) >= shuffleChunk {
		return w.flush()
	}
	return nil
}

func (w *bucketWriter[K, V]) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	n, err := w.file.Write(w.buf)
	w.n += int64(n)
	w.buf = w.buf[:0]
	return err
}

// close flushes, publishes the file and returns the bytes written.
func (w *bucketWriter[K, V]) close() (int64, error) {
	if err := w.flush(); err != nil {
		return w.n, err
	}
	w.discard()
	return w.n, w.file.Close()
}

// discard releases the chunk buffer without publishing the file (error
// paths; the DFS file only becomes visible on Close).
func (w *bucketWriter[K, V]) discard() {
	if w.buf != nil {
		putShuffleBuf(w.buf)
		w.buf = nil
	}
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
		return ctx.runTasks(parent.parts, func(t *Task, part int) error {
			// Each open bucket holds at most one chunk of pending
			// records — that chunk is the transient serialization memory.
			charge := int64(reduceParts) * shuffleChunk
			if err := t.Alloc(charge); err != nil {
				return err
			}
			defer t.Free(charge)
			buckets := make([]*bucketWriter[K, V], reduceParts)
			defer func() {
				for _, b := range buckets {
					if b != nil {
						b.discard()
					}
				}
			}()
			for rp := range buckets {
				buckets[rp] = newBucketWriter(ctx, shufflePath(dep.id, part, rp), codec)
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
			var written int64
			for rp, b := range buckets {
				n, err := b.close()
				if err != nil {
					return err
				}
				buckets[rp] = nil
				written += n
			}
			dep.counts[part] = counts
			ctx.shuffleBytes.Add(written)
			return nil
		})
	}
	return dep
}

// readShufflePart streams every map output addressed to reduce partition
// rp through one window, decoding records one at a time into consume. Only
// the window is charged to the task (the shuffle fetch buffer), not the
// file contents: decoded records flow directly into the consumer's table.
func readShufflePart[K comparable, V any](t *Task, dep *shuffleDep, rp int, consume func(KV[K, V]) error) error {
	codec := codecFor[K, V]()
	if err := t.Alloc(shuffleChunk); err != nil {
		return err
	}
	w := &shuffleWindow{t: t, buf: make([]byte, shuffleChunk)}
	defer func() { t.Free(int64(len(w.buf))) }()
	for mp := 0; mp < dep.mapParts; mp++ {
		if err := readShuffleFile(dep, mp, rp, codec, w, consume); err != nil {
			return err
		}
	}
	return nil
}

// shuffleWindow is a reduce task's read buffer, shuffleChunk bytes unless
// a record longer than that grew it; r is the cursor over what it holds.
type shuffleWindow struct {
	t   *Task
	f   io.Reader
	eof bool
	buf []byte
	r   BinReader
}

// fill moves the undecoded tail r.b[from:] to the front of the window and
// reads the file in behind it. A tail that fills the window is one record
// longer than it: the window doubles, charged to the task, so it only ever
// grows to twice the bytes that actually arrived.
func (w *shuffleWindow) fill(from int) error {
	n := copy(w.buf, w.r.b[from:])
	if n == len(w.buf) {
		if err := w.t.Alloc(int64(n)); err != nil {
			return err
		}
		w.buf = append(w.buf, make([]byte, n)...)
	}
	m, err := io.ReadFull(w.f, w.buf[n:])
	if w.eof = err == io.EOF || err == io.ErrUnexpectedEOF; err != nil && !w.eof {
		return fmt.Errorf("dataflow: shuffle read: %w", err)
	}
	w.r = BinReader{b: w.buf[:n+m]}
	return nil
}

func readShuffleFile[K comparable, V any](dep *shuffleDep, mp, rp int, codec *shuffleCodec[K, V], w *shuffleWindow, consume func(KV[K, V]) error) error {
	f, err := dep.ctx.FS.Open(shufflePath(dep.id, mp, rp))
	if err != nil {
		return err
	}
	defer f.Close()
	w.f, w.r, w.eof = f, BinReader{}, false
	r := &w.r
	for {
		start := r.off
		if start < len(r.b) {
			kv := codec.dec(r)
			if !r.cut() {
				if err := consume(kv); err != nil {
					return err
				}
				continue
			}
			if r.err != nil || w.eof {
				return fmt.Errorf("dataflow: shuffle %d file %d-%d: %w", dep.id, mp, rp, r.Err())
			}
		} else if w.eof {
			return nil
		}
		if err := w.fill(start); err != nil {
			return err
		}
	}
}

// GroupByKey shuffles the dataset so that all values of a key land in one
// partition and groups them. The per-partition hash table is charged
// against the executor budget — this is the memory-hungry operation that
// blows up GraphX on large graphs.
func GroupByKey[K comparable, V any](r *RDD[KV[K, V]], parts int) *RDD[KV[K, []V]] {
	out := ShuffleReduce(r, parts, func(t *Task, _ int, records func(func(KV[K, V]) error) error) ([]KV[K, []V], error) {
		groups, tableBytes, err := groupAll(t, records)
		if err != nil {
			return nil, err
		}
		return emit(t, entries(groups), tableBytes)
	})
	out.name = r.name + ".groupByKey"
	return out
}

// groupAll reads records into a key → values table, charged to t as it
// grows (1.5x the raw data models map + slice overhead), and returns the
// charge with it.
func groupAll[K comparable, V any](t *Task, records func(func(KV[K, V]) error) error) (map[K][]V, int64, error) {
	groups := make(map[K][]V)
	var tableBytes int64
	var sizer sizeSampler[V]
	err := records(func(kv KV[K, V]) error {
		groups[kv.K] = append(groups[kv.K], kv.V)
		grow := sizer.estimate(kv.V)*3/2 + 8
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
		for _, kv := range in {
			if cur, ok := acc[kv.K]; ok {
				acc[kv.K] = f(cur, kv.V)
			} else {
				acc[kv.K] = kv.V
			}
		}
		return entries(acc), nil
	})
	combined.name = r.name + ".combine"
	out := ShuffleReduce(combined, parts, func(t *Task, _ int, records func(func(KV[K, V]) error) error) ([]KV[K, V], error) {
		acc := make(map[K]V)
		var tableBytes int64
		var sizer sizeSampler[V]
		err := records(func(kv KV[K, V]) error {
			if cur, ok := acc[kv.K]; ok {
				acc[kv.K] = f(cur, kv.V)
				return nil
			}
			acc[kv.K] = kv.V
			grow := sizer.estimate(kv.V) + 16
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
			build, tableBytes, err := groupAll(t, func(consume func(KV[K, V]) error) error {
				return readShufflePart(t, depA, part, consume)
			})
			if err != nil {
				return nil, err
			}
			var out []KV[K, Pair[V, W]]
			err = readShufflePart(t, depB, part, func(kv KV[K, W]) error {
				for _, v := range build[kv.K] {
					out = append(out, KV[K, Pair[V, W]]{K: kv.K, V: Pair[V, W]{A: v, B: kv.V}})
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
// records streams each of them into consume, decoded one at a time from
// the shuffle files. reduce decides what to hold — flat columns, a table,
// a running aggregate — and charges it to t.
func ShuffleReduce[K comparable, V, U any](r *RDD[KV[K, V]], parts int,
	reduce func(t *Task, n int, records func(consume func(KV[K, V]) error) error) ([]U, error)) *RDD[U] {
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
			return reduce(t, dep.records(part), func(consume func(KV[K, V]) error) error {
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

package dataflow

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// node is the untyped view of an RDD used for dependency preparation:
// before a stage runs, every upstream shuffle must be materialized.
type node interface {
	prepare() error
}

// fusionOn selects the fused narrow-stage evaluation path. It is always
// on outside this package's tests, which store false to force every
// narrow transformation through the materializing path (live code: cache
// points and shuffle reduce sides take it) as the golden reference for
// the fused one. Not safe to flip while a job runs.
var fusionOn atomic.Bool

func init() { fusionOn.Store(true) }

// RDD is a lazily evaluated, partitioned, immutable dataset. Narrow
// transformations (Map, Filter, FlatMap) compose compute closures without
// materializing data; wide transformations (GroupByKey, ReduceByKey, Join)
// insert a shuffle. Actions (Collect, Count, Foreach) trigger execution on
// the executor pool.
//
// Chains of narrow transformations evaluate through the fused stream
// path: one per-element pass over the source partition with no
// intermediate slices — the in-process analog of Spark's whole-stage
// pipelining. Fusion breaks exactly where semantics require a
// materialized partition: cache points (so Cache fills and is reused),
// shuffle boundaries on the reduce side, and MapPartitions inputs.
// Lineage is unchanged: a retried task simply re-runs the fused pass.
type RDD[T any] struct {
	ctx      *Context
	parts    int
	parents  []node
	shuffles []*shuffleDep
	compute  func(t *Task, part int) ([]T, error)
	// stream pushes partition part's elements into emit one at a time
	// without materializing the partition. Nil for RDDs that inherently
	// materialize (shuffle reduce sides); such RDDs stream from their
	// computed slice.
	stream func(t *Task, part int, emit func(T) error) error
	name   string

	cacheMu  sync.Mutex
	caching  bool
	cached   [][]T
	cachedSz []int64
}

// Context returns the RDD's execution context.
func (r *RDD[T]) Context() *Context { return r.ctx }

// NumPartitions returns the partition count.
func (r *RDD[T]) NumPartitions() int { return r.parts }

// Name returns the debug name of the RDD.
func (r *RDD[T]) Name() string { return r.name }

func (r *RDD[T]) prepare() error {
	for _, p := range r.parents {
		if err := p.prepare(); err != nil {
			return err
		}
	}
	for _, s := range r.shuffles {
		if err := s.materialize(); err != nil {
			return err
		}
	}
	return nil
}

// materialize computes partition part, honoring the cache.
func (r *RDD[T]) materialize(t *Task, part int) ([]T, error) {
	r.cacheMu.Lock()
	if r.cached != nil && r.cached[part] != nil {
		out := r.cached[part]
		r.cacheMu.Unlock()
		return out, nil
	}
	caching := r.caching
	r.cacheMu.Unlock()

	out, err := r.compute(t, part)
	if err != nil {
		return nil, err
	}
	if caching {
		if out == nil {
			out = []T{} // nil marks "not cached yet"; an empty partition is cached too
		}
		sz := estimateBytes(out)
		// Cached partitions live on the executor that computed them, like
		// Spark block storage.
		if err := r.ctx.persist(t.Executor(), sz); err != nil {
			return nil, err
		}
		r.cacheMu.Lock()
		if r.cached == nil {
			r.cached = make([][]T, r.parts)
			r.cachedSz = make([]int64, r.parts)
		}
		if r.cached[part] == nil {
			r.cached[part] = out
			r.cachedSz[part] = sz
		} else {
			r.ctx.unpersist(t.Executor(), sz) // lost the race; another task cached it
		}
		r.cacheMu.Unlock()
	}
	return out, nil
}

// streamPart pushes partition part's elements to emit, one at a time.
// This is the fused evaluation entry point: when the RDD has a stream
// path and is not involved with the cache, elements flow through the
// whole narrow chain without intermediate slices. Cached or caching
// RDDs fall back to materialize — a cache point is a fusion barrier, so
// the cached slice is filled (and reused) exactly as before fusion.
func (r *RDD[T]) streamPart(t *Task, part int, emit func(T) error) error {
	r.cacheMu.Lock()
	hit := r.cached != nil && r.cached[part] != nil
	caching := r.caching
	r.cacheMu.Unlock()
	if r.stream == nil || hit || caching || !fusionOn.Load() {
		in, err := r.materialize(t, part)
		if err != nil {
			return err
		}
		for _, x := range in {
			if err := emit(x); err != nil {
				return err
			}
		}
		return nil
	}
	return r.stream(t, part, emit)
}

// partSlice returns partition part as a slice for callers that need it
// whole (ForeachPartition, MapPartitions inputs, Collect). A cached or
// caching RDD hands out the cached slice itself — every task of every
// action sees the same backing array: read-only for the caller. A source
// (no parents) computes its one sized copy; the rest gather the fused path.
func (r *RDD[T]) partSlice(t *Task, part int) ([]T, error) {
	r.cacheMu.Lock()
	held := r.caching || (r.cached != nil && r.cached[part] != nil)
	r.cacheMu.Unlock()
	if held || r.stream == nil || len(r.parents) == 0 {
		return r.materialize(t, part)
	}
	return collectStream(t, part, r.streamPart)
}

// collectStream drains a stream function into a slice; it is the
// materializing fallback compute of fused RDDs.
func collectStream[T any](t *Task, part int, stream func(*Task, int, func(T) error) error) ([]T, error) {
	var out []T
	err := stream(t, part, func(x T) error {
		out = append(out, x)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Cache marks the RDD for in-memory persistence: each partition is kept on
// the executor that first computes it and charged against its budget.
func (r *RDD[T]) Cache() *RDD[T] {
	r.cacheMu.Lock()
	r.caching = true
	r.cacheMu.Unlock()
	return r
}

// Unpersist drops cached partitions and releases executor memory.
func (r *RDD[T]) Unpersist() {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	r.caching = false
	if r.cached == nil {
		return
	}
	var total int64
	for _, sz := range r.cachedSz {
		total += sz
	}
	// Memory accounting does not track which executor cached which
	// partition; release round-robin, which keeps pool totals exact.
	if len(r.ctx.execs) > 0 {
		per := total / int64(len(r.ctx.execs))
		for _, e := range r.ctx.execs {
			r.ctx.unpersist(e.id, per)
		}
	}
	r.cached = nil
	r.cachedSz = nil
}

// Parallelize distributes data across parts partitions.
func Parallelize[T any](ctx *Context, data []T, parts int) *RDD[T] {
	if parts <= 0 {
		parts = ctx.cfg.DefaultParallelism
	}
	n := len(data)
	return &RDD[T]{
		ctx:   ctx,
		parts: parts,
		name:  "parallelize",
		compute: func(t *Task, part int) ([]T, error) {
			lo := n * part / parts
			hi := n * (part + 1) / parts
			out := make([]T, hi-lo)
			copy(out, data[lo:hi])
			return out, nil
		},
		stream: func(t *Task, part int, emit func(T) error) error {
			lo := n * part / parts
			hi := n * (part + 1) / parts
			for _, x := range data[lo:hi] {
				if err := emit(x); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// Map applies f to every element.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	stream := func(t *Task, part int, emit func(U) error) error {
		return r.streamPart(t, part, func(x T) error {
			return emit(f(x))
		})
	}
	return &RDD[U]{
		ctx:     r.ctx,
		parts:   r.parts,
		parents: []node{r},
		name:    r.name + ".map",
		stream:  stream,
		compute: func(t *Task, part int) ([]U, error) { return collectStream(t, part, stream) },
	}
}

// Filter keeps the elements for which pred is true.
func Filter[T any](r *RDD[T], pred func(T) bool) *RDD[T] {
	stream := func(t *Task, part int, emit func(T) error) error {
		return r.streamPart(t, part, func(x T) error {
			if !pred(x) {
				return nil
			}
			return emit(x)
		})
	}
	return &RDD[T]{
		ctx:     r.ctx,
		parts:   r.parts,
		parents: []node{r},
		name:    r.name + ".filter",
		stream:  stream,
		compute: func(t *Task, part int) ([]T, error) { return collectStream(t, part, stream) },
	}
}

// FlatMap applies f to every element and concatenates the results.
func FlatMap[T, U any](r *RDD[T], f func(T) []U) *RDD[U] {
	stream := func(t *Task, part int, emit func(U) error) error {
		return r.streamPart(t, part, func(x T) error {
			for _, u := range f(x) {
				if err := emit(u); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return &RDD[U]{
		ctx:     r.ctx,
		parts:   r.parts,
		parents: []node{r},
		name:    r.name + ".flatMap",
		stream:  stream,
		compute: func(t *Task, part int) ([]U, error) { return collectStream(t, part, stream) },
	}
}

// MapPartitions transforms each partition as a whole. The index of the
// partition is passed to f. The input partition is necessarily
// materialized (f sees a slice): a cached parent's slice is passed as is,
// so f must treat in as read-only; other inputs are gathered through the
// fused path. The outputs stream onward element by element.
func MapPartitions[T, U any](r *RDD[T], f func(part int, in []T) ([]U, error)) *RDD[U] {
	stream := func(t *Task, part int, emit func(U) error) error {
		in, err := r.partSlice(t, part)
		if err != nil {
			return err
		}
		out, err := f(part, in)
		if err != nil {
			return err
		}
		for _, u := range out {
			if err := emit(u); err != nil {
				return err
			}
		}
		return nil
	}
	return &RDD[U]{
		ctx:     r.ctx,
		parts:   r.parts,
		parents: []node{r},
		name:    r.name + ".mapPartitions",
		stream:  stream,
		compute: func(t *Task, part int) ([]U, error) {
			in, err := r.partSlice(t, part)
			if err != nil {
				return nil, err
			}
			return f(part, in)
		},
	}
}

// Collect gathers all partitions into one sized slice (partition order).
func (r *RDD[T]) Collect() ([]T, error) {
	if err := r.prepare(); err != nil {
		return nil, err
	}
	results := make([][]T, r.parts)
	err := r.ctx.runTasks(r.parts, func(t *Task, part int) error {
		out, err := r.partSlice(t, part)
		if err != nil {
			return err
		}
		results[part] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(results...), nil
}

// Count returns the number of elements. The fused path counts without
// materializing the final partitions.
func (r *RDD[T]) Count() (int64, error) {
	if err := r.prepare(); err != nil {
		return 0, err
	}
	counts := make([]int64, r.parts)
	err := r.ctx.runTasks(r.parts, func(t *Task, part int) error {
		var n int64
		err := r.streamPart(t, part, func(T) error {
			n++
			return nil
		})
		if err != nil {
			return err
		}
		counts[part] = n
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// Foreach runs f over every element for its side effects, streaming
// elements through the fused path. f must be safe for concurrent use
// across partitions.
func (r *RDD[T]) Foreach(f func(T) error) error {
	if err := r.prepare(); err != nil {
		return err
	}
	return r.ctx.runTasks(r.parts, func(t *Task, part int) error {
		return r.streamPart(t, part, f)
	})
}

// ForeachPartition runs f once per partition for its side effects. This is
// the workhorse of PSGraph algorithms: each executor processes its graph
// partition and talks to the parameter server from inside f. On a cached
// RDD f receives the cached slice itself, iteration after iteration, so
// in is read-only: scratch belongs to the call, not to the partition.
func (r *RDD[T]) ForeachPartition(f func(part int, in []T) error) error {
	if err := r.prepare(); err != nil {
		return err
	}
	return r.ctx.runTasks(r.parts, func(t *Task, part int) error {
		in, err := r.partSlice(t, part)
		if err != nil {
			return err
		}
		return f(part, in)
	})
}

// Reduce combines all elements with f. Each executor folds its partition
// into one partial result as elements stream by; only the per-partition
// partials travel to the driver, which combines them in partition order.
// It returns an error if the RDD is empty.
func (r *RDD[T]) Reduce(f func(a, b T) T) (T, error) {
	var zero T
	if err := r.prepare(); err != nil {
		return zero, err
	}
	partials := make([]T, r.parts)
	nonEmpty := make([]bool, r.parts)
	err := r.ctx.runTasks(r.parts, func(t *Task, part int) error {
		var acc T
		has := false
		err := r.streamPart(t, part, func(x T) error {
			if !has {
				acc, has = x, true
			} else {
				acc = f(acc, x)
			}
			return nil
		})
		if err != nil {
			return err
		}
		// A retried task overwrites its own slot; distinct parts never
		// share one.
		partials[part], nonEmpty[part] = acc, has
		return nil
	})
	if err != nil {
		return zero, err
	}
	var acc T
	has := false
	for part, ok := range nonEmpty {
		if !ok {
			continue
		}
		if !has {
			acc, has = partials[part], true
		} else {
			acc = f(acc, partials[part])
		}
	}
	if !has {
		return zero, fmt.Errorf("dataflow: reduce of empty RDD")
	}
	return acc, nil
}

// Keys projects the keys of a keyed RDD.
func Keys[K comparable, V any](r *RDD[KV[K, V]]) *RDD[K] {
	return Map(r, func(kv KV[K, V]) K { return kv.K })
}

// Values projects the values of a keyed RDD.
func Values[K comparable, V any](r *RDD[KV[K, V]]) *RDD[V] {
	return Map(r, func(kv KV[K, V]) V { return kv.V })
}

// MapValues transforms values while keeping keys (and partitioning).
func MapValues[K comparable, V, W any](r *RDD[KV[K, V]], f func(V) W) *RDD[KV[K, W]] {
	return Map(r, func(kv KV[K, V]) KV[K, W] {
		return KV[K, W]{K: kv.K, V: f(kv.V)}
	})
}

// CountByKey returns the number of elements per key.
func CountByKey[K comparable, V any](r *RDD[KV[K, V]], parts int) *RDD[KV[K, int64]] {
	ones := MapValues(r, func(V) int64 { return 1 })
	return ReduceByKey(ones, func(a, b int64) int64 { return a + b }, parts)
}

// Package dataflow implements the Spark-like execution engine PSGraph runs
// on: lazily evaluated, partitioned, immutable datasets (RDDs) with narrow
// and wide (shuffle) transformations, executed by a pool of executors with
// per-executor memory budgets.
//
// The engine reproduces the properties of Spark that matter to the paper:
//
//   - wide operations (groupBy, reduceByKey, join) move all data through
//     shuffle files on the distributed file system, paying serialization
//     and IO costs proportional to the data;
//   - executors have bounded memory; shuffle hash tables, map-side combine
//     buffers and cached partitions are charged against the budget, and
//     exceeding it fails the job with ErrOOM — exactly how GraphX dies on
//     billion-scale graphs in Fig. 6;
//   - partitions are recomputed from lineage when a task is lost, and an
//     executor can be killed mid-job to exercise recovery (Table II).
package dataflow

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"psgraph/internal/dfs"
)

// Config configures an execution context.
type Config struct {
	// NumExecutors is the number of parallel executors. Defaults to 4.
	NumExecutors int
	// ExecutorMemBytes bounds the memory charged to each executor
	// (cached partitions + in-flight shuffle tables). 0 means unlimited.
	ExecutorMemBytes int64
	// DefaultParallelism is the default partition count. Defaults to
	// 2*NumExecutors.
	DefaultParallelism int
	// RestartDelay models the time to bring a replacement executor up
	// before retrying tasks lost to a killed executor.
	RestartDelay time.Duration
	// MaxTaskRetries bounds per-task retries after executor failures.
	// Defaults to 3.
	MaxTaskRetries int
	// MemBloatFactor scales every memory estimate charged to executors.
	// The accountant estimates footprints from serialized (gob) sizes;
	// JVM-based engines hold shuffle hash tables and join intermediates
	// as boxed object graphs whose heap footprint is a small multiple of
	// the serialized size. The GraphX baseline runs with a factor > 1 to
	// represent that overhead (see EXPERIMENTS.md). Defaults to 1.
	MemBloatFactor float64
}

// ErrOOM is returned when a task would exceed its executor's memory budget.
var ErrOOM = errors.New("dataflow: executor out of memory")

// errExecutorKilled aborts tasks running on a killed executor; the
// scheduler retries them elsewhere.
var errExecutorKilled = errors.New("dataflow: executor killed")

// executor is one worker with a memory budget. Transient memory is
// task-scoped; persistent memory holds cached partitions.
type executor struct {
	id int

	mu         sync.Mutex
	transient  int64
	persistent int64
	killed     bool
	generation int // bumped on restart
}

// Context owns the executor pool and the shuffle storage.
type Context struct {
	FS  *dfs.FS
	cfg Config

	execs []*executor

	taskSeq    atomic.Int64
	shuffleSeq atomic.Int64

	// Engine counters. These sit on hot paths (every bucket write bumps
	// shuffleBytes, every Alloc checks the peak), so they are atomics
	// rather than a shared mutex.
	shuffleBytes  atomic.Int64 // bytes written to shuffle files
	tasksRun      atomic.Int64
	tasksRetried  atomic.Int64
	peakExecBytes atomic.Int64
}

// NewContext creates an execution context backed by fs.
func NewContext(fs *dfs.FS, cfg Config) *Context {
	if cfg.NumExecutors <= 0 {
		cfg.NumExecutors = 4
	}
	if cfg.DefaultParallelism <= 0 {
		cfg.DefaultParallelism = 2 * cfg.NumExecutors
	}
	if cfg.MaxTaskRetries <= 0 {
		cfg.MaxTaskRetries = 3
	}
	if cfg.MemBloatFactor <= 0 {
		cfg.MemBloatFactor = 1
	}
	ctx := &Context{FS: fs, cfg: cfg}
	for i := 0; i < cfg.NumExecutors; i++ {
		ctx.execs = append(ctx.execs, &executor{id: i})
	}
	return ctx
}

// Stats reports cumulative engine statistics.
type Stats struct {
	ShuffleBytes  int64
	TasksRun      int64
	TasksRetried  int64
	PeakExecBytes int64
}

// Stats returns a snapshot of the engine counters.
func (c *Context) Stats() Stats {
	return Stats{
		ShuffleBytes:  c.shuffleBytes.Load(),
		TasksRun:      c.tasksRun.Load(),
		TasksRetried:  c.tasksRetried.Load(),
		PeakExecBytes: c.peakExecBytes.Load(),
	}
}

// KillExecutor simulates the loss of executor id: every task currently
// assigned to it fails and is retried on a restarted executor after
// RestartDelay. Cached partitions held by the executor are dropped (they
// recompute from lineage on next access).
func (c *Context) KillExecutor(id int) {
	e := c.execs[id]
	e.mu.Lock()
	e.killed = true
	e.mu.Unlock()
}

// reviveExecutor restarts a killed executor with empty memory.
func (c *Context) reviveExecutor(id int) {
	e := c.execs[id]
	e.mu.Lock()
	e.killed = false
	e.transient = 0
	e.persistent = 0
	e.generation++
	e.mu.Unlock()
}

// Task is the per-task handle passed to compute closures, mainly to charge
// memory against the executor budget.
type Task struct {
	ctx     *Context
	ex      *executor
	charged int64
	gen     int
}

// Executor returns the id of the executor running the task.
func (t *Task) Executor() int { return t.ex.id }

// Alloc charges n transient bytes against the executor budget (scaled by
// the context's MemBloatFactor). It fails with ErrOOM if the budget would
// be exceeded and errExecutorKilled if the executor died mid-task.
func (t *Task) Alloc(n int64) error {
	n = int64(float64(n) * t.ctx.cfg.MemBloatFactor)
	e := t.ex
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.killed || e.generation != t.gen {
		return errExecutorKilled
	}
	budget := t.ctx.cfg.ExecutorMemBytes
	if budget > 0 && e.transient+e.persistent+n > budget {
		return fmt.Errorf("%w: executor %d needs %d transient bytes over budget %d",
			ErrOOM, e.id, e.transient+e.persistent+n, budget)
	}
	e.transient += n
	t.charged += n
	t.ctx.notePeak(e.transient + e.persistent)
	return nil
}

// Free releases n transient bytes early (before task end).
func (t *Task) Free(n int64) {
	n = int64(float64(n) * t.ctx.cfg.MemBloatFactor)
	if n > t.charged {
		n = t.charged
	}
	t.charged -= n
	e := t.ex
	e.mu.Lock()
	e.transient -= n
	e.mu.Unlock()
}

func (t *Task) release() {
	e := t.ex
	e.mu.Lock()
	e.transient -= t.charged
	e.mu.Unlock()
	t.charged = 0
}

// persist moves n bytes from nowhere into the executor's persistent pool
// (cached partition storage). Fails with ErrOOM over budget.
func (c *Context) persist(execID int, n int64) error {
	n = int64(float64(n) * c.cfg.MemBloatFactor)
	e := c.execs[execID]
	e.mu.Lock()
	defer e.mu.Unlock()
	budget := c.cfg.ExecutorMemBytes
	if budget > 0 && e.transient+e.persistent+n > budget {
		return fmt.Errorf("%w: executor %d needs %d persistent bytes over budget %d",
			ErrOOM, e.id, e.transient+e.persistent+n, budget)
	}
	e.persistent += n
	c.notePeak(e.transient + e.persistent)
	return nil
}

func (c *Context) unpersist(execID int, n int64) {
	n = int64(float64(n) * c.cfg.MemBloatFactor)
	e := c.execs[execID]
	e.mu.Lock()
	e.persistent -= n
	if e.persistent < 0 {
		e.persistent = 0
	}
	e.mu.Unlock()
}

func (c *Context) notePeak(n int64) {
	for {
		cur := c.peakExecBytes.Load()
		if n <= cur || c.peakExecBytes.CompareAndSwap(cur, n) {
			return
		}
	}
}

// runTasks executes one task per index on the executor pool, retrying
// tasks lost to killed executors. The first non-recoverable error aborts
// the batch.
func (c *Context) runTasks(n int, run func(t *Task, i int) error) error {
	type item struct {
		idx     int
		retries int
	}
	work := make(chan item, n)
	for i := 0; i < n; i++ {
		work <- item{idx: i}
	}
	var pending atomic.Int64
	pending.Store(int64(n))

	var mu sync.Mutex
	var firstErr error
	abort := make(chan struct{})
	var abortOnce sync.Once
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		abortOnce.Do(func() { close(abort) })
	}
	done := make(chan struct{})

	var wg sync.WaitGroup
	for _, e := range c.execs {
		wg.Add(1)
		go func(e *executor) {
			defer wg.Done()
			for {
				select {
				case <-abort:
					return
				case <-done:
					return
				case it := <-work:
					e.mu.Lock()
					killed := e.killed
					gen := e.generation
					e.mu.Unlock()
					if killed {
						// This worker's executor is dead: bounce the task
						// back and restart the executor after the delay.
						go func() {
							time.Sleep(c.cfg.RestartDelay)
							c.reviveExecutor(e.id)
						}()
						work <- it
						time.Sleep(c.cfg.RestartDelay)
						continue
					}
					t := &Task{ctx: c, ex: e, gen: gen}
					err := run(t, it.idx)
					t.release()
					c.tasksRun.Add(1)
					if err == nil {
						// Double-check the executor survived the task: a
						// kill mid-task invalidates its results.
						e.mu.Lock()
						lost := e.killed || e.generation != gen
						e.mu.Unlock()
						if !lost {
							if pending.Add(-1) == 0 {
								close(done)
							}
							continue
						}
						err = errExecutorKilled
					}
					if errors.Is(err, errExecutorKilled) {
						if it.retries+1 > c.cfg.MaxTaskRetries {
							fail(fmt.Errorf("dataflow: task %d exceeded %d retries", it.idx, c.cfg.MaxTaskRetries))
							return
						}
						c.tasksRetried.Add(1)
						work <- item{idx: it.idx, retries: it.retries + 1}
						continue
					}
					fail(err)
					return
				}
			}
		}(e)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded from outside the program only: around the benchmark's
// own calls into exported functions (layer = the package called) and by the
// tracing transport in tracetransport.go (layers "rpc.client" and
// "rpc.server"). They stay in memory and are written out when the run ends.

// span is one timed interval. Times are nanoseconds since the recorder was
// created. A client and its server span share ID; Parent is the benchmark
// call (or actor loop) that was running when the call was made, 0 when the
// call was made by the system itself (master → server control calls).
type span struct {
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent,omitempty"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Group    string `json:"group,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	BytesOut int64  `json:"bytes_out,omitempty"`
	BytesIn  int64  `json:"bytes_in,omitempty"`
	Err      bool   `json:"err,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects spans. current is the benchmark call in progress; the
// transport reads it to parent the calls that call causes. Workloads with
// concurrent actors give each actor its own transport view instead.
type recorder struct {
	epoch   time.Time
	nextID  atomic.Uint64
	current atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// call times fn as a top-level span of the given layer and makes it the
// parent of every rpc the single-actor workloads issue meanwhile. A nil
// recorder (untraced run) just calls fn.
func (r *recorder) call(layer, name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	id := r.nextID.Add(1)
	prev := r.current.Swap(id)
	start := r.now()
	err := fn()
	r.add(span{ID: id, Layer: layer, Name: name, Start: start, End: r.now(), Err: err != nil})
	r.current.Store(prev)
	return err
}

// open starts a top-level span for a load generator that runs beside
// others (so it cannot be the recorder's current call) and returns its id
// and the function that ends it. A nil recorder returns a no-op.
func (r *recorder) open(layer, name string) (uint64, func(error)) {
	if r == nil {
		return 0, func(error) {}
	}
	id, start := r.nextID.Add(1), r.now()
	return id, func(err error) {
		r.add(span{ID: id, Layer: layer, Name: name, Start: start, End: r.now(), Err: err != nil})
	}
}

// mark returns the number of spans recorded so far; since(mark) returns a
// copy of the spans recorded after it.
func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) since(mark int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[mark:]...)
}

// covered returns how much of [lo, hi) the given spans cover, counting
// overlapping spans once.
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, children []span) int64 {
	return s.dur() - covered(s.Start, s.End, children)
}

func filter(spans []span, keep func(span) bool) []span {
	var out []span
	for _, s := range spans {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func clientSpans(spans []span) []span {
	return filter(spans, func(s span) bool { return s.Layer == "rpc.client" })
}

func serverSpans(spans []span) []span {
	return filter(spans, func(s span) bool { return s.Layer == "rpc.server" })
}

func topSpans(spans []span) []span {
	return filter(spans, func(s span) bool { return s.Layer != "rpc.client" && s.Layer != "rpc.server" })
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Host     hostInfo `json:"host"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Spans    []span   `json:"spans"`
}

func (r *recorder) write(path string, host hostInfo, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	err = json.NewEncoder(f).Encode(traceFile{Host: host, Workload: workload, Seed: seed, Spans: r.spans})
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

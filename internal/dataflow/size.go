package dataflow

import (
	"bytes"
	"encoding/gob"
)

// MemSizer is implemented by element types that know their own footprint
// — flat blocks whose size is len × width. The engine charges MemBytes
// for such elements instead of sampling them through gob.
type MemSizer interface {
	MemBytes() int64
}

// estimateBytes approximates the in-memory footprint of items by
// gob-encoding a small sample and extrapolating (elements that are
// MemSizers report exact bytes instead). It is used wherever the
// engine charges memory for materialized data (cached partitions, shuffle
// tables). Encoding cost stays negligible because at most sampleN elements
// are serialized regardless of slice length.
func estimateBytes[T any](items []T) int64 {
	const sampleN = 16
	n := len(items)
	if n == 0 {
		return 0
	}
	if _, ok := any(items[0]).(MemSizer); ok {
		var total int64
		for _, x := range items {
			total += any(x).(MemSizer).MemBytes()
		}
		return total
	}
	sample := items
	if n > sampleN {
		// Evenly spaced sample: consecutive rows can be badly unrepresentative
		// (e.g. a hub vertex's adjacency followed by leaves).
		sample = make([]T, sampleN)
		for i := 0; i < sampleN; i++ {
			sample[i] = items[i*n/sampleN]
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sample); err != nil {
		// Unencodable types fall back to a flat per-element estimate.
		return int64(n) * 32
	}
	return max(int64(buf.Len())/int64(len(sample)), 8) * int64(n)
}

// sizeSampler amortizes per-record footprint estimates on streaming
// shuffle consumers. Charging memory record by record would gob-encode
// every element; instead the first sampleN elements — and every
// resampleEvery-th record after them, so the mean tracks the stream
// rather than its (often unrepresentative) head — are measured
// individually and the rest are charged the running mean. One sampler is
// scoped to one task's table.
type sizeSampler[T any] struct {
	seen    int64
	sampled int64
	total   int64
	per     int64
}

func (s *sizeSampler[T]) estimate(x T) int64 {
	const (
		sampleN       = 16
		resampleEvery = 128
	)
	s.seen++
	if s.sampled < sampleN || s.seen%resampleEvery == 0 {
		s.sampled++
		s.total += estimateBytes([]T{x})
		// Charge an eighth over the sampled mean: the mean lags on
		// streams whose records grow, and OOM detection must err toward
		// charging what exact per-record accounting would have.
		s.per = s.total/s.sampled + s.total/s.sampled/8 + 1
	}
	return s.per
}

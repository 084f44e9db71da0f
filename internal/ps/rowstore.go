package ps

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// rowStore is the flat storage of one embedding shard: an id → ordinal
// table (idTable) over chunked row slabs (layout and rationale: DESIGN.md
// §7). Row ordinal o is width consecutive floats of chunk chunkOf(o);
// chunks double from slabMinRows to slabMaxRows rows and hold no pointers.
// Moments are parallel slabs, allocated chunk by chunk on the first gradient.
//
// ROWS NEVER MOVE once handed out: growing the table rehashes only
// keys/slot, and a new chunk is appended beside the old ones. The LINE
// kernels rely on this — they resolve a call's id columns to rows before
// they touch one (LockedRows.Rows), later lookups possibly materialising
// other rows of the same shard. Only keepOnly (partition split) rebuilds.
//
// Not safe for concurrent use (but for pulls); the owning embShard's lock
// guards it.
type rowStore struct {
	tab   idTable
	width int
	ids   []int64 // ordinal → id
	// pulls is each ordinal's sampled pull count (the hot-head signal,
	// pullSample): bumped under the shard's READ lock, grown with ids under
	// its write lock.
	pulls []atomic.Int64
	rows  [][]float64
	mom   [][]float64
	vel   [][]float64
}

const (
	slabMinRows  = 16
	slabDoubles  = 6 // chunks 0..5 hold 16..512 rows, every later one 1024
	slabMaxRows  = slabMinRows << slabDoubles
	slabCapStart = slabMaxRows - slabMinRows // first ordinal of chunk slabDoubles
)

func newRowStore(width int) rowStore {
	s := rowStore{width: width}
	s.tab.reset(0)
	return s
}

// chunkOf maps a row ordinal to its slab chunk and the row offset in it.
func chunkOf(ord uint32) (chunk int, off int) {
	if ord < slabCapStart {
		k := bits.Len32(ord/slabMinRows+1) - 1
		return k, int(ord - (slabMinRows<<k - slabMinRows))
	}
	r := ord - slabCapStart
	return slabDoubles + int(r/slabMaxRows), int(r % slabMaxRows)
}

func chunkRows(chunk int) int {
	return slabMinRows << min(chunk, slabDoubles)
}

func (s *rowStore) len() int { return len(s.ids) }

// pullSample is the pull counters' sampling rate (DESIGN.md §7): call k
// of an engine's keyed pulls counts the keys at request positions k, k +
// pullSample, k + 2·pullSample, … (k mod pullSample) and adds pullSample
// to each, so a count estimates a key's pulls in units of pullSample, and
// a fixed sequence of calls always gives the same counts.
const pullSample = 8

// samplePhase advances an engine's pull-call counter and returns the
// first request position this call counts.
func samplePhase(calls *atomic.Uint32) int { return int((calls.Add(1) - 1) % pullSample) }

// get returns the live row of id, or nil when it is not materialised. A
// counted read (a pull's sample) adds pullSample to the row's count.
func (s *rowStore) get(id int64, counted bool) []float64 {
	o := s.tab.slot[s.tab.probe(id)]
	if o == 0 {
		return nil
	}
	if counted {
		s.pulls[o-1].Add(pullSample)
	}
	return s.row(o - 1)
}

// put returns the ordinal of id, inserting it when absent. A new row is
// all zeros; added tells the caller to initialise it.
func (s *rowStore) put(id int64) (ord uint32, added bool) {
	if ord, added = s.tab.put(id, s.ids); !added {
		return ord, false
	}
	s.ids = append(s.ids, id)
	s.pulls = append(s.pulls, atomic.Int64{})
	if c, _ := chunkOf(ord); c == len(s.rows) {
		s.rows = append(s.rows, make([]float64, chunkRows(c)*s.width))
	}
	return ord, true
}

func (s *rowStore) at(slabs [][]float64, ord uint32) []float64 {
	c, off := chunkOf(ord)
	lo := off * s.width
	return slabs[c][lo : lo+s.width : lo+s.width]
}

// row returns the live row at ord.
func (s *rowStore) row(ord uint32) []float64 { return s.at(s.rows, ord) }

// moment returns row ord of the slabs *m (&s.mom or &s.vel, allocating
// its chunk on first touch; or &s.rows, whose chunk put allocated).
func (s *rowStore) moment(m *[][]float64, ord uint32) []float64 {
	c, _ := chunkOf(ord)
	for len(*m) <= c {
		*m = append(*m, nil)
	}
	if (*m)[c] == nil {
		(*m)[c] = make([]float64, len(s.rows[c]))
	}
	return s.at(*m, ord)
}

// momentIfSet returns row ord of the moment slabs m when it holds state:
// nil when its chunk was never allocated or every bit of the row is zero,
// which no later optimizer step can tell from a missing moment.
func (s *rowStore) momentIfSet(m [][]float64, ord uint32) []float64 {
	if c, _ := chunkOf(ord); c >= len(m) || m[c] == nil {
		return nil
	}
	row := s.at(m, ord)
	for _, v := range row {
		if math.Float64bits(v) != 0 {
			return row
		}
	}
	return nil
}

// keepOnly rebuilds the store with only the ids keep accepts, carrying
// their rows and moments over. Rows move: callers hold every lock that
// could have handed one out.
func (s *rowStore) keepOnly(keep func(id int64) bool) {
	ns := newRowStore(s.width)
	for o, id := range s.ids {
		if !keep(id) {
			continue
		}
		ord := uint32(o)
		nord, _ := ns.put(id)
		copy(ns.row(nord), s.row(ord))
		ns.pulls[nord].Store(s.pulls[ord].Load())
		if m := s.momentIfSet(s.mom, ord); m != nil {
			copy(ns.moment(&ns.mom, nord), m)
		}
		if v := s.momentIfSet(s.vel, ord); v != nil {
			copy(ns.moment(&ns.vel, nord), v)
		}
	}
	*s = ns
}

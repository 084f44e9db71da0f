package ps

import (
	"encoding/binary"
	"fmt"
	"math"
)

// RowBatch is the payload of every row-shaped message (embedding pull
// replies and pushes, serve reads, the hot-head install): n ids and one
// contiguous block of n×Dim values, row i = Data[i*Dim:(i+1)*Dim]. It
// travels the layers as it is — engines fill it, the codec writes it as
// one bulk copy, the client scatters replies into it — so a row costs a
// copy, never an allocation (layout and ownership rules: DESIGN.md §6,
// §11). A pulled batch lists the DISTINCT ids of the request in
// first-occurrence order.
type RowBatch struct {
	IDs  []int64
	Dim  int
	Data []float64
}

// Row returns row i as a view of Data, capped so that an append to it
// reallocates instead of writing into row i+1.
func (b RowBatch) Row(i int) []float64 {
	lo, hi := i*b.Dim, (i+1)*b.Dim
	return b.Data[lo:hi:hi]
}

// appendRow adds one row, copying it into Data.
func (b *RowBatch) appendRow(id int64, row []float64) {
	b.IDs = append(b.IDs, id)
	b.Data = append(b.Data, row...)
}

// isSubsequence reports whether sub lists some of the ids of, in of's
// order.
func isSubsequence(sub, of []int64) bool {
	j := 0
	for _, id := range sub {
		for j < len(of) && of[j] != id {
			j++
		}
		if j == len(of) {
			return false
		}
		j++
	}
	return true
}

// Map returns the batch as an id → row map. The rows are views of Data
// (see Row), not copies.
func (b RowBatch) Map() map[int64][]float64 {
	m := make(map[int64][]float64, len(b.IDs))
	for i, id := range b.IDs {
		m[id] = b.Row(i)
	}
	return m
}

// check reports a batch whose Data does not hold exactly Dim values per
// id. Batches decoded by the binary codec always pass; ones built by
// callers or decoded from gob need not.
func (b RowBatch) check() error {
	if b.Dim < 0 || len(b.Data) != len(b.IDs)*b.Dim {
		return fmt.Errorf("ps: row batch holds %d values for %d ids of width %d", len(b.Data), len(b.IDs), b.Dim)
	}
	return nil
}

// rowBatchOf lays a row map out as a batch of width dim; the map-shaped
// push methods are views over the flat path through it.
func rowBatchOf(m map[int64][]float64, dim int) (RowBatch, error) {
	b := RowBatch{IDs: make([]int64, 0, len(m)), Dim: dim, Data: make([]float64, 0, len(m)*dim)}
	for id, row := range m {
		if len(row) != dim {
			return RowBatch{}, fmt.Errorf("ps: row %d has width %d, want %d", id, len(row), dim)
		}
		b.IDs = append(b.IDs, id)
		b.Data = append(b.Data, row...)
	}
	return b, nil
}

// dedupIDs returns the distinct ids in first-occurrence order and, for
// every input position, the index of its id in that list. Runs of equal
// ids (LINE's U column) skip the table.
func dedupIDs(ids []int64) (uniq []int64, pos []int32) {
	uniq = make([]int64, 0, len(ids))
	pos = make([]int32, len(ids))
	at := make(map[int64]int32, len(ids))
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			pos[i] = pos[i-1]
			continue
		}
		p, ok := at[id]
		if !ok {
			p = int32(len(uniq))
			at[id] = p
			uniq = append(uniq, id)
		}
		pos[i] = p
	}
	return uniq, pos
}

// rowWork is the routed work of a row pull: distinct ids and, for each,
// the row of the caller's output block it fills (nil before the first
// split: id j fills row j).
type rowWork struct {
	ids []int64
	pos []int32
}

func (w rowWork) row(j int) int {
	if w.pos == nil {
		return j
	}
	return int(w.pos[j])
}

// add appends id, bound for row of the output block; a list's first id
// sizes it for n.
func (w *rowWork) add(id int64, row, n int) {
	if w.ids == nil {
		w.ids, w.pos = make([]int64, 0, n), make([]int32, 0, n)
	}
	w.ids = append(w.ids, id)
	w.pos = append(w.pos, int32(row))
}

// splitRows buckets the work by owning partition slot.
func splitRows(meta *ModelMeta, w rowWork) []rowWork {
	by := make([]rowWork, len(meta.Parts))
	est := len(w.ids)/len(by) + 1
	for j, id := range w.ids {
		by[meta.PartitionFor(id)].add(id, w.row(j), est)
	}
	return by
}

// eachRowPart calls pull, one partition after another, for every part of
// w's full-width rows a layout holds: all of w and a column range per
// partition of a column layout, else each owner's bucket of w whole.
func eachRowPart(meta *ModelMeta, w rowWork, dim int, pull func(p Partition, w rowWork, col0, col1 int) error) error {
	if meta.Kind == ColumnEmbedding {
		for _, p := range meta.Parts {
			if err := pull(p, w, p.Col0, p.Col1); err != nil {
				return err
			}
		}
		return nil
	}
	for slot, b := range splitRows(meta, w) {
		if len(b.ids) == 0 {
			continue
		}
		if err := pull(meta.Parts[slot], b, 0, dim); err != nil {
			return err
		}
	}
	return nil
}

// rowScatter is the client-side decode target of a row-batch reply
// (embPullResp, servePullResp). Instead of materialising the batch it
// checks the reply against the request — the ids asked for, in order,
// width columns each — and converts the wire bytes straight into the
// caller's output block: row work.row(j), columns [col0, col0+width) of
// rows strd wide. Partitions of one pull fill disjoint rows (hash) or
// disjoint columns (column layout) of the same block, so they scatter
// concurrently without a lock. A reply that does not match is an error
// naming the model and partition; the rows it was to fill may hold
// garbage by then, and the failing pull returns none of them.
type rowScatter struct {
	msg   byte // expected message id
	model string
	part  int
	work  rowWork
	dst   []float64
	col0  int
	width int
	strd  int

	// partial admits a reply that skips requested ids (ServeHotPull, which
	// addresses no partition: absent means "not in the head"); absent
	// lists the request indices it skipped.
	partial bool
	absent  []int
}

func (s *rowScatter) errf(format string, args ...any) error {
	from := fmt.Sprintf("%s/%d", s.model, s.part)
	if s.partial {
		from = "the hot head of " + s.model
	}
	return fmt.Errorf("ps: %s answered a row pull with %s", from, fmt.Sprintf(format, args...))
}

// decode consumes one row batch (appendRowBatch's layout) from r.
func (s *rowScatter) decode(r *wreader) error {
	ids, got := s.work.ids, r.i64s()
	dim := r.uvarint()
	nData, _ := r.sliceLen()
	raw := r.take(8 * nData)
	if r.err != nil {
		return r.err
	}
	if s.col0 < 0 || s.width < 0 || s.col0+s.width > s.strd {
		return s.errf("columns [%d,%d) of %d-wide rows in its layout", s.col0, s.col0+s.width, s.strd)
	}
	if dim != uint64(s.width) || nData != len(got)*s.width {
		return s.errf("%d values in rows of width %d for %d ids, want width %d", nData, dim, len(got), s.width)
	}
	s.absent = s.absent[:0]
	j := 0
	for k, id := range got {
		for ; s.partial && j < len(ids) && ids[j] != id; j++ {
			s.absent = append(s.absent, j)
		}
		if j == len(ids) || ids[j] != id {
			return s.errf("row %d, which was not requested there", id)
		}
		lo := s.work.row(j)*s.strd + s.col0
		out, in := s.dst[lo:lo+s.width], raw[8*k*s.width:]
		for c := range out {
			out[c] = math.Float64frombits(binary.LittleEndian.Uint64(in[8*c:]))
		}
		j++
	}
	if j < len(ids) && !s.partial {
		return s.errf("%d of %d requested rows (first missing: %d)", len(got), len(ids), ids[j])
	}
	for ; j < len(ids); j++ {
		s.absent = append(s.absent, j)
	}
	return nil
}

package ps

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"psgraph/internal/f64le"
)

// RowBatch is the payload of every row-shaped message (embedding pull
// replies and pushes, serve reads, the hot-head install): n ids and one
// contiguous block of n×Dim values, row i = Data[i*Dim:(i+1)*Dim]. It
// travels the layers as it is — pushes and images encode it as one bulk
// copy, engines write pull replies in its layout straight from the slabs,
// the client scatters them into its block — so a row costs a copy, never
// an allocation (layout and ownership: DESIGN.md §6, §6.1, §11). A batch
// PullBatch returns lists the request's DISTINCT ids in first-occurrence order.
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
// id. Batches decoded off the wire always pass; ones built by callers
// need not.
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

// pullBuf is the memory a deduplicated row pull works in: rows.IDs, the
// distinct ids in first-occurrence order; pos, for every input position the
// index of its id in that list; the table that found it; and rows.Data, the
// output block. A prefetch borrows one from its handle (DESIGN.md §11);
// everything else uses it once.
type pullBuf struct {
	rows RowBatch
	pos  []int32
	tab  idTable
}

// dedup fills rows.IDs and pos for ids. Runs of equal ids (LINE's U column)
// skip the table, which the first call sizes for its ids.
func (b *pullBuf) dedup(ids []int64) {
	if b.tab.slot == nil {
		b.tab.reset(len(ids))
	} else {
		clear(b.tab.slot)
	}
	b.rows.IDs, b.pos = slices.Grow(b.rows.IDs[:0], len(ids)), slices.Grow(b.pos[:0], len(ids))[:len(ids)]
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			b.pos[i] = b.pos[i-1]
			continue
		}
		p, added := b.tab.put(id, b.rows.IDs)
		if added {
			b.rows.IDs = append(b.rows.IDs, id)
		}
		b.pos[i] = int32(p)
	}
}

// dedupIDs is dedup in memory of its own, for a pull that keeps its lists.
func dedupIDs(ids []int64) (uniq []int64, pos []int32) {
	var b pullBuf
	b.dedup(ids)
	return b.rows.IDs, b.pos
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

// splitRows buckets the work by owning partition slot: a counting pass
// sizes the buckets, which are windows of one ids and one pos array.
func splitRows(meta *ModelMeta, w rowWork) []rowWork {
	n, by := len(w.ids), make([]rowWork, len(meta.Parts))
	ids, buf := make([]int64, n), make([]int32, 2*n+len(by))
	slot, pos, count := buf[:n], buf[n:2*n], buf[2*n:]
	for j, id := range w.ids {
		s := meta.PartitionFor(id)
		slot[j] = int32(s)
		count[s]++
	}
	at := 0
	for s := range by {
		end := at + int(count[s])
		by[s] = rowWork{ids: ids[at:at:end], pos: pos[at:at:end]}
		at = end
	}
	for j, id := range w.ids {
		b := &by[slot[j]]
		b.ids, b.pos = append(b.ids, id), append(b.pos, int32(w.row(j)))
	}
	return by
}

// uvarintLen and varintLen are the number of bytes binary.AppendUvarint
// and binary.AppendVarint write for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
func varintLen(x int64) int   { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// rowBatchLen is the encoded size of a batch of w-wide rows for ids
// (appendRowBatch's layout).
func rowBatchLen(ids []int64, w int) int {
	vals := len(ids) * w
	n := uvarintLen(uint64(len(ids))+1) + uvarintLen(uint64(w)) + uvarintLen(uint64(vals)+1) + 8*vals
	var prev int64
	for _, id := range ids {
		n += varintLen(id - prev)
		prev = id
	}
	return n
}

// rowBlock writes such a batch behind b, which has room for it, up to its
// value block and extends b over the block, which is not cleared: the
// caller writes every row j at off+8*j*w (DESIGN.md §6).
func rowBlock(b []byte, ids []int64, w int) (_ []byte, off int) {
	b = binary.AppendUvarint(appendI64s(b, ids), uint64(w))
	b = binary.AppendUvarint(b, uint64(len(ids)*w)+1)
	return b[:len(b)+8*len(ids)*w], len(b)
}

// pushFrame writes the EmbPush request that carries rows w of b, columns
// [col0, col1) of each, to one partition: a pooled frame of exactly the
// request's size — address, appendRowBatch's layout, the two flags — with
// the values converted from the caller's batch straight into it.
func pushFrame(model string, part int, b RowBatch, w rowWork, col0, col1 int, grad, set bool) encoded {
	width := col1 - col0
	n := 2 + uvarintLen(uint64(len(model))) + len(model) + varintLen(int64(part)) + rowBatchLen(w.ids, width) + 2
	f, off := rowBlock(appendAddr(frame(msgEmbPushReq, n), model, part), w.ids, width)
	for j := range w.ids {
		f64le.Put(f[off+8*j*width:], b.Row(w.row(j))[col0:col1])
	}
	return appendBool(appendBool(f, grad), set)
}

// embPush is an EmbPush request as the server reads it: address, ids and
// flags decoded (grad: step the optimizer; set: overwrite; else add), the
// values left in the request frame, which outlives the handler (DESIGN.md
// §6.1) — raw is their little-endian bytes, row j at 8*j*dim.
type embPush struct {
	model     string
	part, dim int
	ids       []int64
	raw       []byte
	grad, set bool
}

func (m embPush) addr() (string, int) { return m.model, m.part }
func (m *embPush) wireMsg() byte      { return msgEmbPushReq }

func (m *embPush) decode(r wreader) (wreader, error) {
	m.model, m.part = r.addr()
	m.ids, m.dim, m.raw = r.rowFrame()
	m.grad, m.set = r.bool(), r.bool()
	if r.err != nil {
		return r, fmt.Errorf("ps: push into %s/%d: %w", m.model, m.part, r.err)
	}
	return r, nil
}

// embPullResp is an EmbPull reply taken whole, as a batch. Only a pull of
// everything a partition holds (nil Keys) takes it: its ids are known from
// the reply alone. A keyed pull is scattered instead (rowScatter).
type embPullResp struct{ Rows RowBatch }

func (m *embPullResp) wireMsg() byte { return msgEmbPullResp }

func (m *embPullResp) decode(r wreader) (wreader, error) { m.Rows = r.rowBatch(); return r, nil }

// rowScatter is the client-side decode target of one row batch of a reply
// (EmbPull, ServePull, ServeHotPull). It never materialises the batch: check
// compares it with the request — the ids asked for, in order, width columns
// each — and scatter converts the wire bytes straight into the caller's
// block: row work.row(j), columns [col0, col0+width) of rows strd wide.
// Partitions of one pull fill disjoint rows (hash) or columns (column
// layout), so they scatter without a lock. A batch that does not match is
// an error naming the model and partition, raised before a row is written.
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

	raw []byte // a checked batch's value bytes, until scatter
}

func (s *rowScatter) wireMsg() byte { return s.msg }

func (s *rowScatter) errf(format string, args ...any) error {
	from := fmt.Sprintf("%s/%d", s.model, s.part)
	if s.partial {
		from = "the hot head of " + s.model
	}
	return fmt.Errorf("ps: %s answered a row pull with %s", from, fmt.Sprintf(format, args...))
}

func (s *rowScatter) decode(r wreader) (wreader, error) {
	r, err := s.check(r)
	if err == nil {
		s.scatter()
	}
	return r, err
}

// check reads one batch (appendRowBatch's layout) off r: the ids are
// compared as their varints are read, then the width and the value count.
func (s *rowScatter) check(r wreader) (wreader, error) {
	if s.col0 < 0 || s.width < 0 || s.col0+s.width > s.strd {
		return r, s.errf("columns [%d,%d) of %d-wide rows in its layout", s.col0, s.col0+s.width, s.strd)
	}
	ids := s.work.ids
	n, _ := r.sliceLen()
	s.absent = s.absent[:0]
	j, off := 0, r.off
	var id int64
	for k := 0; k < n; k++ {
		var d int64
		if d, off = zigzag(r.b, off); off < 0 {
			r.off = len(r.b)
			r.fail()
			break
		}
		id += d
		for ; s.partial && j < len(ids) && ids[j] != id; j++ {
			s.absent = append(s.absent, j)
		}
		if j == len(ids) || ids[j] != id {
			return r, s.errf("row %d, which was not requested there", id)
		}
		j++
	}
	if r.err != nil {
		return r, s.errf("a batch cut short: %v", r.err)
	}
	if j < len(ids) && !s.partial {
		return r, s.errf("%d of %d requested rows (first missing: %d)", n, len(ids), ids[j])
	}
	for ; j < len(ids); j++ {
		s.absent = append(s.absent, j)
	}
	r.off = off
	dim := r.uvarint()
	nData, _ := r.sliceLen()
	s.raw = r.take(8 * nData)
	if r.err != nil {
		return r, s.errf("a batch cut short: %v", r.err)
	}
	if dim != uint64(s.width) || nData != n*s.width {
		return r, s.errf("%d values in rows of width %d for %d ids, want width %d", nData, dim, n, s.width)
	}
	return r, nil
}

// scatter converts a checked batch's values into the output block.
func (s *rowScatter) scatter() {
	raw, skip := s.raw, s.absent
	for j := range s.work.ids {
		if len(skip) > 0 && skip[0] == j {
			skip = skip[1:]
			continue
		}
		lo := s.work.row(j)*s.strd + s.col0
		f64le.Get(s.dst[lo:lo+s.width], raw)
		raw = raw[8*s.width:]
	}
}

// serveReply is the decode target of a ServePull reply: one batch per part
// asked for, back to back in request order. Nothing is written until every
// batch has matched its part and the frame ends where the last one does, so
// a reply a part short or long, or with parts swapped, leaves the block as
// it was.
type serveReply struct{ parts []rowScatter }

func (s *serveReply) wireMsg() byte { return msgServePullResp }

func (s *serveReply) decode(r wreader) (wreader, error) {
	for i := range s.parts {
		var err error
		if r, err = s.parts[i].check(r); err != nil {
			return r, err
		}
	}
	if extra := len(r.b) - r.off; extra != 0 {
		return r, s.parts[len(s.parts)-1].errf("%d bytes behind the last requested batch", extra)
	}
	for i := range s.parts {
		s.parts[i].scatter()
	}
	return r, nil
}

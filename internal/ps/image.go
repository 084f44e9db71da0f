package ps

import (
	"encoding/binary"
	"fmt"
	"math"
)

// partImage is the one form in which a partition's state leaves an
// engine and becomes another: engine.export produces it, engine.merge
// consumes it, and between the two it travels as a tagBin message
// (msgPartImage) — to a DFS checkpoint file, to a migration destination
// or backup inside an installPartReq, to a serving endpoint inside a
// serveInstallReq. A checkpoint is the export of the whole route span; a
// restore, a replica seed and a serve install are newEngine + merge
// (engineFromImage). Only the fields of the image's Kind are set (field
// table: DESIGN.md §7).
//
// An image owns its memory: export copies out of the engine under the
// engine's locks, so the image is one consistent cut that later pushes
// cannot reach, and merge copies in, so one image may be merged twice.
type partImage struct {
	Kind Kind
	// Step is the optimizer step counter (embedding kinds, DenseMatrix).
	Step int64

	// DenseVector: Dense holds indices [Lo, Hi). DenseMatrix: Dense is
	// the partition's columns of every row, row-major, and DenseMom /
	// DenseVel its moments — empty until the first gradient.
	Lo, Hi                    int64
	Dense, DenseMom, DenseVel []float64

	M map[int64]float64 // SparseVector

	// Embedding kinds: the materialised rows in shard order, and the
	// moments of those among them that hold optimizer state, in the same
	// order (so Mom.IDs and Vel.IDs are subsequences of Rows.IDs).
	Rows, Mom, Vel RowBatch

	// Neighbor: the adjacency map while building, the CSR arrays (ids
	// ascending) once Sealed.
	Sealed                 bool
	Nbr                    map[int64][]int64
	CsrIDs, CsrOff, CsrAdj []int64
}

// exportAll is the image of everything e holds — every route key is in
// [0, MaxInt64) — which is what a checkpoint, a replica seed and a
// snapshot publication ship.
func exportAll(e engine) partImage { return e.export(0, math.MaxInt64) }

// mergeImage decodes an encoded image and merges it into e. Bytes that
// are not a msgPartImage message — a gob-era checkpoint included — are
// rejected as such before anything is decoded.
func mergeImage(e engine, data []byte) error {
	if len(data) < 2 || data[0] != tagBin || data[1] != msgPartImage {
		return fmt.Errorf("ps: not a partition image (%d bytes)", len(data))
	}
	var img partImage
	if err := decBinary(data[1:], &img); err != nil {
		return fmt.Errorf("ps: not a partition image: %w", err)
	}
	return e.merge(img)
}

// engineFromImage stands up partition part of meta from an encoded
// image: the engine's shape comes from the layout, its state from the
// image, and merge rejects an image that does not fit the shape.
func engineFromImage(meta ModelMeta, part int, data []byte) (engine, error) {
	e, err := newEngine(meta, part)
	if err != nil {
		return nil, err
	}
	return e, mergeImage(e, data)
}

// badImage reports the field of an image that does not fit this engine.
func (b *engineBase) badImage(field, format string, args ...any) error {
	return fmt.Errorf("ps: image does not fit %s/%d: %s: %s", b.meta.Name, b.idx, field, fmt.Sprintf(format, args...))
}

// checkKind rejects an image of another kind than the engine's.
func (b *engineBase) checkKind(img partImage) error {
	if img.Kind != b.meta.Kind {
		return b.badImage("Kind", "%v, engine holds %v", img.Kind, b.meta.Kind)
	}
	return nil
}

// partImageHint bounds the encoded size of an image.
func partImageHint(m partImage) int {
	return 64 + 8*(len(m.Dense)+len(m.DenseMom)+len(m.DenseVel)) + 18*len(m.M) +
		rowBatchLen(m.Rows.IDs, m.Rows.Dim) + rowBatchLen(m.Mom.IDs, m.Mom.Dim) + rowBatchLen(m.Vel.IDs, m.Vel.Dim) +
		mapI64sHint(m.Nbr) + 10*(len(m.CsrIDs)+len(m.CsrOff)+len(m.CsrAdj))
}

// appendPartImage writes every field in declaration order; the fields of
// other kinds are empty and cost a byte each.
func appendPartImage(b []byte, m partImage) []byte {
	b = binary.AppendUvarint(b, uint64(m.Kind))
	b = binary.AppendVarint(b, m.Step)
	b = binary.AppendVarint(b, m.Lo)
	b = binary.AppendVarint(b, m.Hi)
	b = appendF64s(b, m.Dense)
	b = appendF64s(b, m.DenseMom)
	b = appendF64s(b, m.DenseVel)
	b = appendMapF64(b, m.M)
	b = appendRowBatch(b, m.Rows)
	b = appendRowBatch(b, m.Mom)
	b = appendRowBatch(b, m.Vel)
	b = appendBool(b, m.Sealed)
	b = appendMapI64s(b, m.Nbr)
	b = appendI64s(b, m.CsrIDs)
	b = appendI64s(b, m.CsrOff)
	return appendI64s(b, m.CsrAdj)
}

// partImage reads appendPartImage's layout (calls in a composite literal
// run in source order).
func (r *wreader) partImage() partImage {
	return partImage{
		Kind: Kind(r.uvarint()), Step: r.varint(), Lo: r.varint(), Hi: r.varint(),
		Dense: r.f64s(), DenseMom: r.f64s(), DenseVel: r.f64s(),
		M:    r.mapF64(),
		Rows: r.rowBatch(), Mom: r.rowBatch(), Vel: r.rowBatch(),
		Sealed: r.bool(), Nbr: r.mapI64s(),
		CsrIDs: r.i64s(), CsrOff: r.i64s(), CsrAdj: r.i64s(),
	}
}

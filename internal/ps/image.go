package ps

import (
	"fmt"
	"math"
)

// partImage is the one form in which a partition's state leaves an
// engine and becomes another: engine.export produces it, engine.merge
// consumes it, and between the two it travels as a walked message — a
// DFS checkpoint file, and a field of the installPartReq a migration
// destination or backup receives and of the serveInstallReq a serving
// endpoint receives. A checkpoint is the export of the whole route span; a
// restore, a replica seed and a serve install are newEngine + merge
// (engineFromImage). Only the fields of the image's Kind are set (field
// table: DESIGN.md §7).
//
// An image owns its memory: export copies out of the engine under the
// engine's locks, so the image is one consistent cut that later pushes
// cannot reach, and merge copies in, so one image may be merged twice.
type partImage struct {
	Kind Kind
	// Step is the optimizer step counter (embedding kinds).
	Step int64

	// DenseVector: Dense holds indices [Lo, Hi).
	Lo, Hi int64
	Dense  []float64

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

// engineFromImage stands up partition part of meta from an image: the
// engine's shape comes from the layout and embShards (newEngine), its state
// from the image, and merge rejects an image that does not fit the shape.
func engineFromImage(meta ModelMeta, part int, img partImage, embShards int) (engine, error) {
	e, err := newEngine(meta, part, embShards)
	if err != nil {
		return nil, err
	}
	return e, e.merge(img)
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

package ps

import (
	"errors"
	"fmt"
	"strings"

	"psgraph/internal/dfs"
)

// ErrCorruptCheckpoint reports that a checkpoint file exists but failed
// its CRC, is not a partition image (one written before the image format
// included), or holds an image that does not fit the partition it is
// restored into — distinct from "no checkpoint", which restores an empty
// partition, and grounds for falling back to the previous checkpoint
// generation.
var ErrCorruptCheckpoint = errors.New("ps: corrupt checkpoint")

// corruptCheckpointMsg is matched against RemoteError text client-side
// (errors.Is does not survive the wire).
const corruptCheckpointMsg = "corrupt checkpoint"

// isCorruptCheckpointErr classifies an error — local or remote — as a
// checkpoint integrity failure.
func isCorruptCheckpointErr(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrCorruptCheckpoint) || strings.Contains(err.Error(), corruptCheckpointMsg)
}

// CheckpointPath returns the DFS path of a partition checkpoint.
func CheckpointPath(model string, part int) string {
	return fmt.Sprintf("/ps/ckpt/%s/part-%05d", model, part)
}

// checkpointTmpPath returns the staging path of a partition checkpoint.
// Prepared snapshots land here and become visible only on rename.
func checkpointTmpPath(model string, part int) string {
	return CheckpointPath(model, part) + ".tmp"
}

// CheckpointPrevPath returns the previous-generation path of a partition
// checkpoint: publishing rotates the old latest file here, so one
// corrupted latest generation still leaves a consistent fallback.
func CheckpointPrevPath(model string, part int) string {
	return CheckpointPath(model, part) + ".prev"
}

// publishCheckpoint promotes a prepared staging file to the live
// checkpoint path, rotating the previous latest file to the .prev
// generation first. Both the server's standalone checkpoint and the
// master's fenced publish loop go through this, so the two-generation
// invariant holds everywhere.
func publishCheckpoint(fs *dfs.FS, model string, part int) error {
	final := CheckpointPath(model, part)
	if fs.Exists(final) {
		if err := fs.Rename(final, CheckpointPrevPath(model, part)); err != nil {
			return err
		}
	}
	return fs.Rename(checkpointTmpPath(model, part), final)
}

// checkpoint snapshots one partition to the DFS. The write lands in a
// temporary file first and is renamed so a crash mid-write never corrupts
// the previous checkpoint.
func (s *Server) checkpoint(req ckptReq) error {
	if err := s.ckptPrepare(req); err != nil {
		return err
	}
	return publishCheckpoint(s.fs, req.Model, req.Part)
}

// ckptPrepare writes the image of one whole partition to its staging path
// without publishing it. The master's fenced multi-model checkpoint
// prepares every partition of every model first and renames them all
// afterwards, so a server failing mid-checkpoint can never leave a
// half-new, half-old checkpoint set behind. Snapshots carry a CRC32-C
// trailer; restore rejects torn or bit-flipped files instead of loading
// garbage weights.
func (s *Server) ckptPrepare(req ckptReq) error {
	e, err := s.store.get(req.Model, req.Part)
	if err != nil {
		return err
	}
	return s.fs.WriteFileSummed(checkpointTmpPath(req.Model, req.Part), enc(exportAll(e)))
}

// restore loads one partition from its checkpoint, or recreates it empty
// when no checkpoint exists yet (failure before the first checkpoint).
// With req.Prev it loads the previous generation instead — and a missing
// .prev file is then an error, not an empty partition, because the
// fallback must never silently zero a model that had real state.
func (s *Server) restore(req restoreReq) error {
	path := CheckpointPath(req.Meta.Name, req.Part)
	if req.Prev {
		path = CheckpointPrevPath(req.Meta.Name, req.Part)
		if !s.fs.Exists(path) {
			return fmt.Errorf("ps: no previous checkpoint generation at %s", path)
		}
	} else if !s.fs.Exists(path) {
		return s.createPart(createPartReq{Meta: req.Meta, Part: req.Part})
	}
	data, err := s.fs.ReadFileSummed(path)
	if err != nil {
		if errors.Is(err, dfs.ErrChecksum) {
			return fmt.Errorf("%w: %s: %v", ErrCorruptCheckpoint, path, err)
		}
		return err
	}
	// Bytes that are not a partition image — a gob-era (0x00) checkpoint
	// included — are rejected as such, not read by a second path.
	var img partImage
	if err := dec(data, &img); err != nil {
		return fmt.Errorf("%w: %s: not a partition image: %v", ErrCorruptCheckpoint, path, err)
	}
	e, err := engineFromImage(req.Meta, req.Part, img, 0)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorruptCheckpoint, path, err)
	}
	s.store.put(e)
	return nil
}

package ps

// Master-side snapshot publication (DESIGN.md §13). Under recMu — never
// beside a recovery, checkpoint, split or move — PublishSnapshot captures
// the partition table, has every primary seed R endpoints with a write-gated
// cut at the next snapshot epoch, mines the hot head, assembles its rows from
// the fresh snapshots, replicates them to every endpoint, and only then
// swaps in the new ServeLayout.

import (
	"fmt"
	"slices"
)

// ServeOptions tunes the serving tier.
type ServeOptions struct {
	// Replicas is how many endpoints serve each partition's snapshot
	// (clamped to the live server count; default 2).
	Replicas int
	// HotKeys is the size of the replicated hot head (0 = default 64,
	// negative = disable hot-key replication).
	HotKeys int
}

const defaultServeReplicas = 2
const defaultServeHotKeys = 64

// ServeLayout is a published serving generation: the partition table the
// snapshots were cut under (data and layout are one consistent pair),
// where each partition's snapshot replicas live, and the replicated hot
// head.
type ServeLayout struct {
	Model     string
	SnapEpoch int64
	// Meta is the model layout at publication. Serve routing uses it —
	// not the mutable-path layout — so a later split does not strand
	// readers: their pulls keep resolving against this table until a
	// republish moves them forward.
	Meta      ModelMeta
	Replicas  map[int][]string // partition Index -> serving endpoints
	HotIDs    []int64
	Endpoints []string // every serving endpoint; each holds the hot head
}

// serveManifestPath is where a model's current serve layout is recorded
// on the DFS (observability + post-restart inspection).
func serveManifestPath(model string) string {
	return fmt.Sprintf("/ps/serve/%s/layout", model)
}

// servable reports whether a model kind has a serving path.
func servable(k Kind) bool {
	switch k {
	case Embedding, ColumnEmbedding, DenseVector:
		return true
	default:
		return false
	}
}

// serveWidth is the width of the full rows a servable model's reads
// return: Dim, or 1 for a DenseVector, whose ids are indices.
func serveWidth(meta ModelMeta) int {
	if meta.Kind == DenseVector {
		return 1
	}
	return meta.Dim
}

// SetServeOptions replaces the serving-tier options.
func (m *Master) SetServeOptions(o ServeOptions) {
	m.mu.Lock()
	m.serveOpts = o
	m.mu.Unlock()
}

// GetServeLayout returns the model's current serving generation.
func (m *Master) GetServeLayout(model string) (ServeLayout, error) {
	m.mu.Lock()
	sl, ok := m.serveLayouts[model]
	m.mu.Unlock()
	if !ok {
		return ServeLayout{}, fmt.Errorf("%s published for model %q", noServeSnapMsg, model)
	}
	return sl, nil
}

// PublishSnapshot publishes a new serving generation of model.
func (m *Master) PublishSnapshot(model string) (ServeLayout, error) {
	m.recMu.Lock()
	defer m.recMu.Unlock()
	m.mu.Lock()
	meta, ok := m.models[model]
	meta.Epoch = m.epoch
	servers := m.liveRingLocked()
	opts := m.serveOpts
	snapEpoch := m.serveLayouts[model].SnapEpoch + 1
	m.mu.Unlock()
	if !ok {
		return ServeLayout{}, fmt.Errorf("ps: model %q does not exist", model)
	}
	if !servable(meta.Kind) {
		return ServeLayout{}, fmt.Errorf("ps: model %q (%s) is not servable", model, meta.Kind)
	}
	if len(servers) == 0 {
		return ServeLayout{}, fmt.Errorf("ps: no live servers to serve %q", model)
	}
	r := opts.Replicas
	if r <= 0 {
		r = defaultServeReplicas
	}
	if r > len(servers) {
		r = len(servers)
	}
	replicas := make(map[int][]string, len(meta.Parts))
	var endpoints []string
	for _, p := range meta.Parts {
		base := max(slices.Index(servers, p.Server), 0) // 0 if the primary is somehow off-ring
		targets := make([]string, r)
		for j := range targets {
			targets[j] = servers[(base+j)%len(servers)]
		}
		replicas[p.Index] = targets
		endpoints = append(endpoints, targets...)
		req := serveSeedReq{Meta: meta, Part: p.Index, SnapEpoch: snapEpoch, Targets: targets}
		if _, err := m.callWithRetry(p.Server, "ServeSeed", enc(req)); err != nil {
			return ServeLayout{}, fmt.Errorf("ps: publish %s/%d: %w", model, p.Index, err)
		}
	}
	slices.Sort(endpoints)
	endpoints = slices.Compact(endpoints)
	sl := ServeLayout{
		Model:     model,
		SnapEpoch: snapEpoch,
		Meta:      meta,
		Replicas:  replicas,
		Endpoints: endpoints,
	}
	if hotIDs := m.mineHot(model, servers, opts.HotKeys); len(hotIDs) > 0 {
		rows, err := m.assembleHotRows(&sl, hotIDs)
		if err != nil {
			// Degrade to an unreplicated head rather than failing the
			// publication: the per-partition snapshots are already live.
			mtrace("publish %s: hot-row assembly failed: %v", model, err)
		} else {
			sl.HotIDs = hotIDs
			inst := enc(serveHotInstallReq{Model: model, SnapEpoch: snapEpoch, Rows: rows})
			for _, ep := range endpoints {
				if _, err := m.callWithRetry(ep, "ServeHotInstall", inst); err != nil {
					mtrace("publish %s: hot install on %s: %v", model, ep, err)
				}
			}
		}
	}
	m.mu.Lock()
	if m.serveLayouts == nil {
		m.serveLayouts = make(map[string]ServeLayout)
	}
	m.serveLayouts[model] = sl
	m.journalServeLocked(sl)
	fs := m.fs
	m.mu.Unlock()
	if fs != nil {
		if err := fs.WriteFileSummed(serveManifestPath(model), enc(sl)); err != nil {
			mtrace("publish %s: serve manifest: %v", model, err)
		}
	}
	mtrace("published serve snapshot %s@%d (%d parts x %d replicas, %d hot)",
		model, snapEpoch, len(meta.Parts), r, len(sl.HotIDs))
	return sl, nil
}

// mineHot merges the pull-frequency heads of the model's primaries
// (engine counters, the training-side signal) and of the current serving
// endpoints (serve-traffic signal) into the top-k hot id set.
func (m *Master) mineHot(model string, servers []string, k int) []int64 {
	if k < 0 {
		return nil
	}
	if k == 0 {
		k = defaultServeHotKeys
	}
	var hot []HotKey
	for _, s := range servers {
		var train partStatsResp
		if body, err := m.tr.Call(s, "PartStats", nil); err == nil && dec(body, &train) == nil {
			for _, st := range train.Parts {
				if st.Model == model && !st.Replica {
					hot = append(hot, st.Hot...)
				}
			}
		}
		var served serveHotStatsResp
		if body, err := m.tr.Call(s, "ServeHotStats", enc(serveHotStatsReq{Model: model})); err == nil && dec(body, &served) == nil {
			hot = append(hot, served.Hot...)
		}
	}
	top := topHot(hot, k)
	ids := make([]int64, len(top))
	for i, hk := range top {
		ids[i] = hk.ID
	}
	slices.Sort(ids)
	return ids
}

// assembleHotRows reads the hot ids' full rows back from the freshly
// seeded snapshot replicas (never from the mutable primaries — the hot
// head must be the same generation as the snapshots it fronts) into one
// batch, the way a serve client reads them: one frame per endpoint.
func (m *Master) assembleHotRows(sl *ServeLayout, ids []int64) (RowBatch, error) {
	dim := serveWidth(sl.Meta)
	out := RowBatch{IDs: ids, Dim: dim, Data: make([]float64, len(ids)*dim)}
	err := pullServeParts(sl, rowWork{ids: ids}, out.Data, 0, func(addr, method string, req, reply any) error {
		body, err := m.tr.Call(addr, method, enc(req))
		if err != nil {
			return err
		}
		return dec(body, reply)
	})
	if err != nil {
		err = fmt.Errorf("ps: hot assembly of %s: %w", sl.Model, err)
	}
	return out, err
}

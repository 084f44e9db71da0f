package ps

// Master-side snapshot publication (serving tier, serve.go).
//
// PublishSnapshot turns the current state of an embedding/vector model
// into an immutable serving generation: under recMu — so a publication
// can never interleave with a recovery, a checkpoint, or an elastic
// split/move — the master captures the partition table, asks every
// partition's primary to seed R endpoints with a write-gated consistent
// cut tagged with the next per-model snapshot epoch, mines the pull
// hot head from the engine counters and live serve traffic, assembles
// the hot rows from the freshly installed snapshots, replicates them to
// every serving endpoint, and only then swaps in the new ServeLayout.
// Readers resolve that layout through GetServeLayout; a layout whose
// SnapEpoch moved invalidates their row caches (serveclient.go).

import (
	"fmt"
	"sort"
)

// ServeOptions tunes the serving tier.
type ServeOptions struct {
	// Replicas is how many endpoints serve each partition's snapshot
	// (clamped to the live server count; default 2).
	Replicas int
	// HotKeys is the size of the replicated hot head (0 = default 64,
	// negative = disable hot-key replication).
	HotKeys int
	// PublishOnCheckpoint republishes every servable model's snapshot
	// whenever the master checkpoints it, so serving freshness rides the
	// existing checkpoint cadence.
	PublishOnCheckpoint bool
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

// PublishSnapshot publishes a new serving generation of model.
func (m *Master) PublishSnapshot(model string) (ServeLayout, error) {
	m.recMu.Lock()
	defer m.recMu.Unlock()
	return m.publishSnapshotLocked(model)
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

// publishSnapshotLocked does the publication; callers hold recMu.
func (m *Master) publishSnapshotLocked(model string) (ServeLayout, error) {
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
	pos := make(map[string]int, len(servers))
	for i, s := range servers {
		pos[s] = i
	}
	replicas := make(map[int][]string, len(meta.Parts))
	endpointSet := make(map[string]bool)
	for _, p := range meta.Parts {
		base := pos[p.Server] // 0 if the primary is somehow off-ring
		targets := make([]string, 0, r)
		for j := 0; j < r; j++ {
			t := servers[(base+j)%len(servers)]
			targets = append(targets, t)
			endpointSet[t] = true
		}
		replicas[p.Index] = targets
		req := serveSeedReq{Meta: meta, Part: p.Index, SnapEpoch: snapEpoch, Targets: targets}
		if _, err := m.callWithRetry(p.Server, "ServeSeed", enc(req)); err != nil {
			return ServeLayout{}, fmt.Errorf("ps: publish %s/%d: %w", model, p.Index, err)
		}
	}
	endpoints := make([]string, 0, len(endpointSet))
	for e := range endpointSet {
		endpoints = append(endpoints, e)
	}
	sort.Strings(endpoints)
	sl := ServeLayout{
		Model:     model,
		SnapEpoch: snapEpoch,
		Meta:      meta,
		Replicas:  replicas,
		Endpoints: endpoints,
	}
	if hotIDs := m.mineHot(model, servers, opts.HotKeys); len(hotIDs) > 0 {
		rows, err := m.assembleHotRows(meta, replicas, snapEpoch, hotIDs)
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
	counts := make(map[int64]int64)
	for _, s := range servers {
		if body, err := m.tr.Call(s, "PartStats", nil); err == nil {
			var resp partStatsResp
			if dec(body, &resp) == nil {
				for _, st := range resp.Parts {
					if st.Model != model || st.Replica {
						continue
					}
					for _, hk := range st.Hot {
						counts[hk.ID] += hk.Count
					}
				}
			}
		}
		if body, err := m.tr.Call(s, "ServeHotStats", enc(serveHotStatsReq{Model: model})); err == nil {
			var resp serveHotStatsResp
			if dec(body, &resp) == nil {
				for _, hk := range resp.Hot {
					counts[hk.ID] += hk.Count
				}
			}
		}
	}
	top := topHot(hotKeys(counts), k)
	ids := make([]int64, len(top))
	for i, hk := range top {
		ids[i] = hk.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// assembleHotRows reads the hot ids' full rows back from the freshly
// seeded snapshot replicas (never from the mutable primaries — the hot
// head must be the same generation as the snapshots it fronts) into one
// batch; column partitions each fill their columns of every row.
func (m *Master) assembleHotRows(meta ModelMeta, replicas map[int][]string, snapEpoch int64, ids []int64) (RowBatch, error) {
	dim := serveWidth(meta)
	out := RowBatch{IDs: ids, Dim: dim, Data: make([]float64, len(ids)*dim)}
	err := eachRowPart(&meta, rowWork{ids: ids}, dim, func(p Partition, w rowWork, col0, col1 int) error {
		var lastErr error
		for _, ep := range replicas[p.Index] {
			body, err := m.tr.Call(ep, "ServePull", enc(servePullReq{
				Model: meta.Name, Part: p.Index, SnapEpoch: snapEpoch, IDs: w.ids,
			}))
			if err == nil {
				err = dec(body, &rowScatter{msg: msgServePullResp, model: meta.Name, part: p.Index,
					work: w, dst: out.Data, col0: col0, width: col1 - col0, strd: dim})
			}
			if err == nil {
				return nil
			}
			lastErr = err
		}
		return fmt.Errorf("ps: hot assembly %s/%d: %w", meta.Name, p.Index, lastErr)
	})
	return out, err
}

// maybeAutoPublishLocked republishes every servable checkpointed model
// when PublishOnCheckpoint is set. Callers hold recMu. Best-effort: a
// failed publication leaves the previous serving generation in place.
func (m *Master) maybeAutoPublishLocked(metas []ModelMeta) {
	m.mu.Lock()
	on := m.serveOpts.PublishOnCheckpoint
	m.mu.Unlock()
	if !on {
		return
	}
	for _, meta := range metas {
		if !servable(meta.Kind) {
			continue
		}
		if _, err := m.publishSnapshotLocked(meta.Name); err != nil {
			mtrace("auto-publish %s: %v", meta.Name, err)
		}
	}
}

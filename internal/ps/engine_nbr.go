package ps

import (
	"fmt"
	"sort"
	"sync"
)

// nbrState is the lifecycle of a Neighbor partition. Sec. III-A lists
// CSR among the PS data structures: tables are built as an adjacency
// map while executors push fragments, then sealed into compact,
// read-only CSR for the traversal phase of CN/triangle/GraphSage.
type nbrState int

const (
	// nbrBuilding accepts pushes into the adjacency map.
	nbrBuilding nbrState = iota
	// nbrSealed serves lookups from CSR; pushes are rejected.
	nbrSealed
)

// nbrEngine stores one Neighbor partition as an explicit
// build-map → sealed-CSR state machine.
type nbrEngine struct {
	engineBase
	mu    sync.RWMutex
	state nbrState
	nbr   map[int64][]int64 // nbrBuilding only
	// CSR form (nbrSealed): one sorted id array, offsets, and a single
	// flat adjacency array. Compact and cache-friendly for the
	// read-only phase.
	csrIDs []int64
	csrOff []int64
	csrAdj []int64
}

func newNbrEngine(base engineBase) *nbrEngine {
	return &nbrEngine{engineBase: base, nbr: make(map[int64][]int64)}
}

func restoreNbrEngine(base engineBase, snap ckptSnapshot) *nbrEngine {
	e := &nbrEngine{
		engineBase: base,
		nbr:        snap.Nbr,
		csrIDs:     snap.CsrIDs, csrOff: snap.CsrOff, csrAdj: snap.CsrAdj,
	}
	if e.csrIDs != nil {
		e.state = nbrSealed
		e.nbr = nil
	} else if e.nbr == nil {
		// Gob decodes empty maps as nil; normalize the build form.
		e.nbr = make(map[int64][]int64)
	}
	return e
}

func (e *nbrEngine) pull(req pullReq) (nbrPullResp, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, id := range req.Keys {
		if err := e.checkKey(id); err != nil {
			return nbrPullResp{}, err
		}
	}
	out := make(map[int64][]int64, len(req.Keys))
	if e.state == nbrSealed {
		for _, id := range req.Keys {
			if ns := e.csrLookup(id); ns != nil {
				cp := make([]int64, len(ns))
				copy(cp, ns)
				out[id] = cp
			}
		}
		return nbrPullResp{Tables: out}, nil
	}
	for _, id := range req.Keys {
		if ns, ok := e.nbr[id]; ok {
			cp := make([]int64, len(ns))
			copy(cp, ns)
			out[id] = cp
		}
	}
	return nbrPullResp{Tables: out}, nil
}

func (e *nbrEngine) push(req nbrPushReq) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == nbrSealed {
		return fmt.Errorf("ps: model %q partition %d is sealed (CSR); pushes are rejected", req.Model, req.Part)
	}
	for id := range req.Tables {
		if err := e.checkKey(id); err != nil {
			return err
		}
	}
	for id, ns := range req.Tables {
		e.nbr[id] = append(e.nbr[id], ns...)
	}
	return nil
}

// csrLookup returns the adjacency of id from the CSR form, or nil.
// Callers hold e.mu.
func (e *nbrEngine) csrLookup(id int64) []int64 {
	n := len(e.csrIDs)
	i := sort.Search(n, func(i int) bool { return e.csrIDs[i] >= id })
	if i >= n || e.csrIDs[i] != id {
		return nil
	}
	return e.csrAdj[e.csrOff[i]:e.csrOff[i+1]]
}

// lockMap acquires the write lock and exposes the build-form adjacency
// map for psFuncs (PartView.NbrLock); nil once sealed.
func (e *nbrEngine) lockMap() (m map[int64][]int64, unlock func()) {
	e.mu.Lock()
	return e.nbr, e.mu.Unlock
}

// seal transitions nbrBuilding → nbrSealed, converting the adjacency
// map into CSR (sorted, deduplicated) and dropping it. Idempotent.
// Returns the vertex count.
func (e *nbrEngine) seal() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == nbrSealed {
		return int64(len(e.csrIDs))
	}
	ids := make([]int64, 0, len(e.nbr))
	var total int
	for id, ns := range e.nbr {
		ids = append(ids, id)
		total += len(ns)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.csrIDs = ids
	e.csrOff = make([]int64, len(ids)+1)
	e.csrAdj = make([]int64, 0, total)
	for i, id := range ids {
		ns := e.nbr[id]
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
		var prev int64 = -1 << 62
		for _, x := range ns {
			if x != prev {
				e.csrAdj = append(e.csrAdj, x)
				prev = x
			}
		}
		e.csrOff[i+1] = int64(len(e.csrAdj))
	}
	e.nbr = nil
	e.state = nbrSealed
	return int64(len(ids))
}

func (e *nbrEngine) checkpointData() []byte {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return enc(ckptSnapshot{
		Kind: e.meta.Kind, Nbr: e.nbr,
		CsrIDs: e.csrIDs, CsrOff: e.csrOff, CsrAdj: e.csrAdj,
	})
}

// adjacencyLocked returns the partition's adjacency as a map regardless
// of lifecycle state, filtered to [lo, hi). Callers hold e.mu.
func (e *nbrEngine) adjacencyLocked(lo, hi int64) map[int64][]int64 {
	out := make(map[int64][]int64)
	if e.state == nbrSealed {
		for i, id := range e.csrIDs {
			if e.inExport(id, lo, hi) {
				adj := e.csrAdj[e.csrOff[i]:e.csrOff[i+1]]
				cp := make([]int64, len(adj))
				copy(cp, adj)
				out[id] = cp
			}
		}
		return out
	}
	for id, ns := range e.nbr {
		if e.inExport(id, lo, hi) {
			cp := make([]int64, len(ns))
			copy(cp, ns)
			out[id] = cp
		}
	}
	return out
}

// sealMapLocked converts an adjacency map into sorted, deduplicated CSR
// form and installs it. Callers hold e.mu.
func (e *nbrEngine) sealMapLocked(nbr map[int64][]int64) {
	ids := make([]int64, 0, len(nbr))
	var total int
	for id, ns := range nbr {
		ids = append(ids, id)
		total += len(ns)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.csrIDs = ids
	e.csrOff = make([]int64, len(ids)+1)
	e.csrAdj = make([]int64, 0, total)
	for i, id := range ids {
		ns := nbr[id]
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
		var prev int64 = -1 << 62
		for _, x := range ns {
			if x != prev {
				e.csrAdj = append(e.csrAdj, x)
				prev = x
			}
		}
		e.csrOff[i+1] = int64(len(e.csrAdj))
	}
	e.nbr = nil
	e.state = nbrSealed
}

// exportRange snapshots the adjacency of the ids routed into [lo, hi),
// preserving the lifecycle state: a sealed source exports CSR (the
// destination arrives sealed too), a building source exports the map.
func (e *nbrEngine) exportRange(lo, hi int64) ([]byte, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	sub := e.adjacencyLocked(lo, hi)
	snap := ckptSnapshot{Kind: e.meta.Kind}
	if e.state == nbrSealed {
		// Re-seal the filtered subset into CSR via a scratch engine state
		// so restore/import sees the sealed form.
		tmp := &nbrEngine{engineBase: e.engineBase}
		tmp.sealMapLocked(sub)
		snap.CsrIDs, snap.CsrOff, snap.CsrAdj = tmp.csrIDs, tmp.csrOff, tmp.csrAdj
	} else {
		snap.Nbr = sub
	}
	return enc(snap), nil
}

// importRange merges an exported adjacency set. Merging into a sealed
// engine rebuilds the CSR arrays (migrations are rare; traversals are
// not), staying sealed; merging into a building engine appends.
func (e *nbrEngine) importRange(snap ckptSnapshot) error {
	in := make(map[int64][]int64)
	for id, ns := range snap.Nbr {
		in[id] = ns
	}
	for i, id := range snap.CsrIDs {
		in[id] = snap.CsrAdj[snap.CsrOff[i]:snap.CsrOff[i+1]]
	}
	sealed := snap.CsrIDs != nil
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == nbrSealed || (sealed && len(e.nbr) == 0) {
		merged := e.adjacencyLocked(-1<<62, 1<<62)
		for id, ns := range in {
			merged[id] = append(merged[id], ns...)
		}
		e.sealMapLocked(merged)
		return nil
	}
	for id, ns := range in {
		e.nbr[id] = append(e.nbr[id], ns...)
	}
	return nil
}

// splitAt drops the ids handed off to the new upper-half partition,
// rebuilding the CSR form when sealed.
func (e *nbrEngine) splitAt(mid int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == nbrSealed {
		kept := e.adjacencyLocked(-1<<62, mid)
		e.sealMapLocked(kept)
	} else {
		for id := range e.nbr {
			if !e.keepOnSplit(id, mid) {
				delete(e.nbr, id)
			}
		}
	}
	e.narrowTo(mid)
	return nil
}

func (e *nbrEngine) sizeBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var b int64
	for _, ns := range e.nbr {
		b += 8 + int64(len(ns))*8
	}
	b += int64(len(e.csrIDs))*8 + int64(len(e.csrOff))*8 + int64(len(e.csrAdj))*8
	return b
}

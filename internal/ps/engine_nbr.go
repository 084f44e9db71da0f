package ps

import (
	"fmt"
	"math"
	"slices"
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

// pull answers the request's keys, in request order, as one CSR batch:
// two allocations however many keys, segments copied out of the CSR array
// (or the building-state map). An id the partition does not hold is a
// zero-length segment.
func (e *nbrEngine) pull(req pullReq) (nbrPullResp, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, id := range req.Keys {
		if err := e.checkKey(id); err != nil {
			return nbrPullResp{}, err
		}
	}
	// The first pass sizes the reply and parks each key's CSR slot (-1:
	// absent) in the offset it will own; the second replaces the slot with
	// the offset as it copies the segment, so every key is searched once.
	off := make([]int32, len(req.Keys)+1)
	total := 0
	for i, id := range req.Keys {
		slot := -1
		if e.state != nbrSealed {
			total += len(e.nbr[id])
		} else if j, ok := slices.BinarySearch(e.csrIDs, id); ok {
			slot = j
			total += int(e.csrOff[j+1] - e.csrOff[j])
		}
		off[i+1] = int32(slot)
	}
	if total > math.MaxInt32 || len(e.csrIDs) > math.MaxInt32 {
		return nbrPullResp{}, fmt.Errorf("ps: model %q partition %d: a pull of %d neighbours does not fit one batch", req.Model, req.Part, total)
	}
	adj := make([]int64, 0, total)
	for i, id := range req.Keys {
		if e.state != nbrSealed {
			adj = append(adj, e.nbr[id]...)
		} else if j := off[i+1]; j >= 0 {
			adj = append(adj, e.csrAdj[e.csrOff[j]:e.csrOff[j+1]]...)
		}
		off[i+1] = int32(len(adj))
	}
	return nbrPullResp{Nbrs: NbrBatch{Off: off, Adj: adj}}, nil
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

// seal transitions nbrBuilding → nbrSealed, converting the adjacency
// map into CSR (sorted, deduplicated) and dropping it. Idempotent.
// Returns the vertex count.
func (e *nbrEngine) seal() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == nbrSealed {
		return int64(len(e.csrIDs))
	}
	e.sealMapLocked(e.nbr)
	return int64(len(e.csrIDs))
}

// csrKeepLocked returns the CSR arrays of the ids keep accepts, filtered
// in order — ids stay ascending, adjacency sorted and deduplicated — into
// fresh memory. Callers hold e.mu on a sealed engine.
func (e *nbrEngine) csrKeepLocked(keep func(id int64) bool) (ids, off, adj []int64) {
	ids, off = []int64{}, []int64{0}
	for i, id := range e.csrIDs {
		if keep(id) {
			ids = append(ids, id)
			adj = append(adj, e.csrAdj[e.csrOff[i]:e.csrOff[i+1]]...)
			off = append(off, int64(len(adj)))
		}
	}
	return ids, off, adj
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

// export copies out the adjacency of the ids routed into [lo, hi),
// preserving the lifecycle state: a sealed source exports CSR (the
// destination arrives sealed too), a building source exports the map.
func (e *nbrEngine) export(lo, hi int64) partImage {
	e.mu.RLock()
	defer e.mu.RUnlock()
	img := partImage{Kind: e.meta.Kind, Sealed: e.state == nbrSealed}
	if img.Sealed {
		img.CsrIDs, img.CsrOff, img.CsrAdj = e.csrKeepLocked(func(id int64) bool { return e.inExport(id, lo, hi) })
		return img
	}
	img.Nbr = make(map[int64][]int64)
	for id, ns := range e.nbr {
		if e.inExport(id, lo, hi) {
			img.Nbr[id] = slices.Clone(ns)
		}
	}
	return img
}

// merge adds an image's adjacency. Merging into a sealed engine, or a
// sealed image into an empty one, rebuilds the CSR arrays (migrations
// are rare; traversals are not) and ends sealed; merging into a building
// engine appends.
func (e *nbrEngine) merge(img partImage) error {
	if err := e.checkKind(img); err != nil {
		return err
	}
	in := img.Nbr
	if img.Sealed {
		if len(img.CsrOff) != len(img.CsrIDs)+1 || img.CsrOff[0] != 0 {
			return e.badImage("CsrOff", "%d offsets for %d ids", len(img.CsrOff), len(img.CsrIDs))
		}
		in = make(map[int64][]int64, len(img.CsrIDs))
		for i, id := range img.CsrIDs {
			lo, hi := img.CsrOff[i], img.CsrOff[i+1]
			if lo > hi || hi > int64(len(img.CsrAdj)) {
				return e.badImage("CsrOff", "offsets [%d,%d) of id %d not monotone within %d neighbours", lo, hi, id, len(img.CsrAdj))
			}
			in[id] = img.CsrAdj[lo:hi]
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == nbrSealed || (img.Sealed && len(e.nbr) == 0) {
		merged := make(map[int64][]int64, len(e.csrIDs)+len(in))
		for i, id := range e.csrIDs {
			merged[id] = slices.Clone(e.csrAdj[e.csrOff[i]:e.csrOff[i+1]])
		}
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

// splitAt drops the ids handed off to the new upper-half partition.
func (e *nbrEngine) splitAt(mid int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == nbrSealed {
		e.csrIDs, e.csrOff, e.csrAdj = e.csrKeepLocked(func(id int64) bool { return e.keepOnSplit(id, mid) })
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

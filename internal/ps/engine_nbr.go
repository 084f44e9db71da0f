package ps

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
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
	// Sealed (DESIGN.md §7): idx maps ids[o-1] to o, an absent id to 0; o's
	// neighbours are deg[o+1]-deg[o] deltas in seg[segOff[o]:segOff[o+1]],
	// restarting at the segment. deg and segOff start 0, 0: o = 0 is empty.
	ids    []int64
	idx    idTable
	deg    []int64
	segOff []int64
	seg    []byte
}

func newNbrEngine(base engineBase) *nbrEngine {
	return &nbrEngine{engineBase: base, nbr: make(map[int64][]int64)}
}

// pull answers the request's keys, in request order, as one neighbour
// batch frame; an id the partition does not hold is an empty segment. A
// sealed partition resolves each key with one probe, then writes the
// degrees and copies the segments into a frame sized for exactly that.
func (e *nbrEngine) pull(req pullReq) (encoded, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, id := range req.Keys {
		if err := e.checkKey(id); err != nil {
			return nil, err
		}
	}
	if e.state != nbrSealed {
		nb := NbrBatch{Off: make([]int32, len(req.Keys)+1), Adj: []int64{}}
		for i, id := range req.Keys {
			nb.Adj = append(nb.Adj, e.nbr[id]...)
			nb.Off[i+1] = int32(len(nb.Adj))
		}
		if len(nb.Adj) <= math.MaxInt32 {
			return enc(nbrPullResp{Nbrs: nb}), nil
		}
		return nil, fmt.Errorf("ps: model %q partition %d: a pull of %d neighbours does not fit one batch", req.Model, req.Part, len(nb.Adj))
	}
	slots := make([]uint32, len(req.Keys))
	total, size := 0, 2+uvarintLen(uint64(len(slots)))
	for i, id := range req.Keys {
		o := e.idx.slot[e.idx.probe(id)]
		d := e.deg[o+1] - e.deg[o]
		slots[i], total = o, total+int(d)
		size += uvarintLen(uint64(d)) + int(e.segOff[o+1]-e.segOff[o])
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("ps: model %q partition %d: a pull of %d neighbours does not fit one batch", req.Model, req.Part, total)
	}
	b := binary.AppendUvarint(frame(msgNbrPullResp, size+uvarintLen(uint64(total)+1)), uint64(len(slots)))
	for _, o := range slots {
		b = binary.AppendUvarint(b, uint64(e.deg[o+1]-e.deg[o]))
	}
	b = binary.AppendUvarint(b, uint64(total)+1)
	for _, o := range slots {
		b = append(b, e.seg[e.segOff[o]:e.segOff[o+1]]...)
	}
	return b, nil
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
	if e.state != nbrSealed {
		e.sealMapLocked(e.nbr)
	}
	return int64(len(e.ids))
}

// adjLocked decodes the sealed adjacency of the ids keep accepts (e.mu held).
func (e *nbrEngine) adjLocked(keep func(id int64) bool) map[int64][]int64 {
	adj := make(map[int64][]int64)
	for k, id := range e.ids {
		if keep(id) {
			adj[id] = make([]int64, e.deg[k+2]-e.deg[k+1])
			deltas(e.seg, int(e.segOff[k+1]), adj[id])
		}
	}
	return adj
}

// sealMapLocked installs an adjacency map in the sealed form, ids ascending
// and lists sorted and deduplicated (e.mu held).
func (e *nbrEngine) sealMapLocked(nbr map[int64][]int64) {
	e.ids = slices.Sorted(maps.Keys(nbr))
	e.deg, e.segOff, e.seg = make([]int64, 2, len(e.ids)+2), make([]int64, 2, len(e.ids)+2), nil
	e.idx.reset(len(e.ids))
	for k, id := range e.ids {
		ns := nbr[id]
		slices.Sort(ns)
		ns = slices.Compact(ns)
		e.seg = appendDeltas(e.seg, ns)
		e.deg = append(e.deg, e.deg[k+1]+int64(len(ns)))
		e.segOff = append(e.segOff, int64(len(e.seg)))
		e.idx.put(id, e.ids[:k])
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
		adj := e.adjLocked(func(id int64) bool { return e.inExport(id, lo, hi) })
		img.CsrIDs, img.CsrOff = slices.Sorted(maps.Keys(adj)), []int64{0}
		for _, id := range img.CsrIDs {
			img.CsrAdj = append(img.CsrAdj, adj[id]...)
			img.CsrOff = append(img.CsrOff, int64(len(img.CsrAdj)))
		}
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
// sealed image into an empty one, rebuilds the sealed form (migrations
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
		merged := e.adjLocked(func(int64) bool { return true })
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
		e.sealMapLocked(e.adjLocked(func(id int64) bool { return e.keepOnSplit(id, mid) }))
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
	b += int64(len(e.ids)+len(e.deg)+len(e.segOff)+len(e.idx.keys))*8 + int64(len(e.idx.slot))*4 + int64(len(e.seg))
	return b
}

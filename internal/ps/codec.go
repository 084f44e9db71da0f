// Package ps implements PSGraph's distributed parameter server: a master
// that allocates and monitors model partitions, a set of servers that hold
// them in memory, and a client ("PS agent" in the paper) embedded in every
// executor.
//
// The parameter server supports the data structures of the paper
// (dense/sparse vectors, embeddings, dense matrices, neighbor tables),
// hash/range/column partitioning, pull/push/add operators, user-defined
// server-side functions (psFunc), BSP/ASP synchronization, periodic
// checkpoints to the distributed file system and heartbeat-driven failure
// recovery.
package ps

import (
	"encoding/binary"
	"fmt"
	"reflect"
)

// enc encodes v for the wire (wire.go) into a pooled buffer; release it
// with rpc.PutBuf once the bytes have left the process. A frame its sender
// wrote (encoded) passes through. Three messages keep hand-written code;
// every other type is walked, and one with no id in wireIDs is a
// programmer error and panics.
func enc(v any) []byte {
	var b []byte
	switch m := v.(type) {
	case encoded:
		return m
	case funcReq:
		b = frame(msgFuncReq, 48+len(m.Model)+len(m.Name)+len(m.Arg))
		b = appendAddr(b, m.Model, m.Part)
		b = appendStr(b, m.Name)
		b = appendBytes(b, m.Arg)
	case servePullReq:
		n := 48 + len(m.Model)
		for _, p := range m.Parts {
			n += 20 + 10*len(p.IDs)
		}
		b = binary.AppendVarint(appendStr(frame(msgServePullReq, n), m.Model), m.SnapEpoch)
		b = binary.AppendUvarint(b, uint64(len(m.Parts)))
		for _, p := range m.Parts {
			b = appendI64s(binary.AppendVarint(b, int64(p.Part)), p.IDs)
		}
	case nbrPullResp:
		b = frame(msgNbrPullResp, 32+5*len(m.Nbrs.Off)+10*len(m.Nbrs.Adj))
		b = appendNbrBatch(b, m.Nbrs)
	default:
		rv := reflect.ValueOf(v)
		id, ok := wireIDs[rv.Type()]
		if !ok {
			panic(fmt.Sprintf("ps: encode %T: no wire layout", v))
		}
		b = appendValue(frame(id, 2+sizeValue(rv)), rv)
	}
	return b
}

// dec decodes data into v, which points at a message enc encodes or is a
// frameDecoder. The message id must match the target and the payload must
// be consumed exactly. Decoded messages never alias data (funcReq.Arg
// excepted), so callers may recycle the buffer as soon as dec returns.
func dec(data []byte, v any) error {
	if len(data) > 0 && data[0] != tagBin {
		return fmt.Errorf("ps: decode %T: unknown wire format tag 0x%02x", v, data[0])
	}
	if len(data) < 2 {
		return fmt.Errorf("ps: decode %T: empty message", v)
	}
	id, r := data[1], wreader{b: data[2:]}
	var want byte
	switch m := v.(type) {
	case *funcReq:
		if want = msgFuncReq; id == want {
			m.Model, m.Part = r.addr()
			m.Name = r.str()
			// Zero-copy: every handler runs to completion before its
			// caller recycles the request buffer (PSFunc's arg contract).
			m.Arg = r.view()
		}
	case *servePullReq:
		if want = msgServePullReq; id == want {
			m.Model = r.str()
			m.SnapEpoch = r.varint()
			// Parts are appended as they are read, never made for the
			// count: a part is worth the bytes it took, whatever was promised.
			m.Parts = nil
			for n := r.uvarint(); n > 0 && r.err == nil; n-- {
				m.Parts = append(m.Parts, servePart{Part: int(r.varint()), IDs: r.i64s()})
			}
		}
	case *nbrPullResp:
		if want = msgNbrPullResp; id == want {
			m.Nbrs = r.nbrBatch(-1)
		}
	case frameDecoder:
		if want = m.wireMsg(); id == want {
			var err error
			if r, err = m.decode(r); err != nil {
				return err
			}
		}
	default:
		rv := reflect.ValueOf(v)
		ok := rv.Kind() == reflect.Pointer && !rv.IsNil()
		if ok {
			want, ok = wireIDs[rv.Type().Elem()]
		}
		if !ok {
			return fmt.Errorf("ps: decode %T: no wire layout", v)
		}
		if id == want {
			r.value(rv.Elem())
		}
	}
	if id != want {
		return fmt.Errorf("ps: wire: message id %d does not match target %T (want %d)", id, v, want)
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("ps: wire: %d trailing bytes after %T", len(r.b)-r.off, v)
	}
	return nil
}

// Wire requests and responses: one struct pair per server method keeps the
// protocol explicit.

// addressed is a data-plane request that names the partition it is for,
// which is all the server's engine-dispatch adapters need to know about
// a request before handing it to the engine.
type addressed interface {
	addr() (model string, part int)
}

func (r nbrPushReq) addr() (string, int) { return r.Model, r.Part }

type createPartReq struct {
	Meta ModelMeta
	Part int
	// Replica marks the partition as a backup copy: it applies forwarded
	// mutations but stays invisible to the exactly-once accounting until
	// promoted (see replica.go).
	Replica bool
}

// pullReq is the request of every kind's pull: the method name says
// which engine answers. Keys are vector indices or row / vertex ids; nil
// means everything the partition holds (its whole range for a dense
// vector, its materialised rows for an embedding; the wire keeps nil
// apart from empty).
type pullReq struct {
	Model string
	Part  int
	Keys  []int64
}

type vecPullResp struct {
	Values []float64
	Lo     int64 // partition start when Keys is nil
}

// vecOp selects the combine rule of a vector push.
type vecOp int

const (
	vecAdd vecOp = iota
	vecSet
	vecMin
	vecMax
)

type vecPushReq struct {
	Model   string
	Part    int
	Indices []int64 // nil means Values covers the partition range
	Values  []float64
	Op      vecOp
}

// encoded is a message its sender wrote as a wire frame itself: the reply
// of EmbPull, ServePull, ServeHotPull (rowBlock: the request's keys in
// request order, as wide as the partition stores them) and the request of
// EmbPush (pushFrame). enc passes it through.
type encoded []byte

type nbrPushReq struct {
	Model  string
	Part   int
	Tables map[int64][]int64
}

// NbrBatch is the adjacency of a list of vertices in CSR form: vertex i
// of the list has neighbours Adj[Off[i]:Off[i+1]], Off[0] = 0. It is the
// payload of a Neighbor pull from the engine's CSR arrays to the caller:
// one offsets array and one flat neighbour array, however many vertices.
// The vertices themselves are not part of it — the request lists them, the
// batch answers in request order — and one that is unknown or has no
// neighbours is a zero-length segment. The zero value is the empty batch.
type NbrBatch struct {
	Off []int32
	Adj []int64
}

// Len returns the number of vertices the batch answers for.
func (b NbrBatch) Len() int { return max(len(b.Off)-1, 0) }

// Nbrs returns the neighbours of vertex i as a view of Adj, capped so that
// an append to it reallocates instead of writing into vertex i+1's.
func (b NbrBatch) Nbrs(i int) []int64 {
	lo, hi := b.Off[i], b.Off[i+1]
	return b.Adj[lo:hi:hi]
}

// nbrPullResp answers the request's keys in request order.
type nbrPullResp struct {
	Nbrs NbrBatch
}

type funcReq struct {
	Model string
	Part  int
	Name  string
	Arg   []byte
}

type funcResp struct {
	Out []byte
}

type ckptReq struct {
	Model string
	Part  int
}

type restoreReq struct {
	Meta ModelMeta
	Part int
	// Prev restores from the previous checkpoint generation (the ".prev"
	// file rotated aside at publish), used when the latest snapshot is
	// corrupt.
	Prev bool
}

// Master wire messages.

type registerServerReq struct {
	Addr string
}

type createModelReq struct {
	Meta ModelMeta // Parts filled in by the master
}

type getModelResp struct {
	Meta ModelMeta
}

// clockReq drives the SSP vector clock (clock.go): ClockWait publishes the
// worker's ABSOLUTE clock value (idempotent under retries, so clock RPCs
// skip the dedup envelope) and blocks until the slowest live worker is
// within K clocks; ClockRetire releases the worker's slot. LeaseNS > 0
// arms dead-worker retirement on the ring.
type clockReq struct {
	Tag     string
	Worker  int
	Expect  int
	K       int
	Clock   int64
	LeaseNS int64
}

// modelNameReq addresses a whole model by name: GetModel, DeleteModel (master
// and server), Checkpoint, RestoreModel, PublishSnapshot, GetServeLayout.
type modelNameReq struct {
	Name string
}

// ckptModelsReq asks the master to checkpoint a set of models as one
// atomic unit, fenced on the recovery counter (see Master.Handle
// "CheckpointModels"). IfRecoveries < 0 disables the fence.
type ckptModelsReq struct {
	Names        []string
	IfRecoveries int64
}

type ckptModelsResp struct {
	// Raced reports that a server recovery overlapped the request (the
	// fence failed, or a server became unreachable mid-checkpoint), so
	// nothing was published; the caller should roll back and retry.
	Raced bool
}

// restoreModelsReq restores a set of models as one unit: all partitions
// from the latest checkpoint generation, or — if any latest file is
// corrupt or torn — all partitions from the previous generation, so the
// restored state is never a mix of fences.
type restoreModelsReq struct {
	Names []string
}

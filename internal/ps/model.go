package ps

import (
	"fmt"
	"math"
	"sort"
)

// Kind identifies the storage layout of a model on the parameter server.
type Kind int

const (
	// DenseVector is a float64 vector indexed [0, Size), partitioned by
	// contiguous index ranges. Used for ranks, Δranks, degrees, cores.
	DenseVector Kind = iota
	// SparseVector is a map[int64]float64, hash-partitioned by key. Used
	// for vertex→community and community→weight models in fast unfolding.
	SparseVector
	// Embedding stores one Dim-sized vector per vertex id, hash-partitioned
	// by id. Used for GraphSage features and vertex representations.
	Embedding
	// ColumnEmbedding stores one Dim-sized vector per vertex id, but
	// partitioned by *column*: server p holds dimensions [Col0, Col1) of
	// every vertex. This co-locates the same dimensions of different
	// vertices so dot products can be computed server-side (LINE, Sec. IV-D).
	ColumnEmbedding
	// Neighbor stores adjacency lists (neighbor tables), hash-partitioned
	// by source vertex.
	Neighbor
	// DenseMatrix is a Rows×Dim dense matrix partitioned by column range.
	// Used for GNN weight matrices.
	DenseMatrix
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case DenseVector:
		return "DenseVector"
	case SparseVector:
		return "SparseVector"
	case Embedding:
		return "Embedding"
	case ColumnEmbedding:
		return "ColumnEmbedding"
	case Neighbor:
		return "Neighbor"
	case DenseMatrix:
		return "DenseMatrix"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// OptimizerKind selects the server-side gradient rule applied when clients
// push gradients (Grad=true). The paper implements these on the PS via
// psFunc so that executors never hold optimizer state.
type OptimizerKind int

const (
	// OptNone means pushes are plain additions.
	OptNone OptimizerKind = iota
	// OptSGD applies x -= lr * g.
	OptSGD
	// OptAdaGrad applies per-coordinate AdaGrad.
	OptAdaGrad
	// OptAdam applies Adam with bias correction.
	OptAdam
)

// Optimizer configures the server-side optimizer of a model.
type Optimizer struct {
	Kind  OptimizerKind
	LR    float64
	Beta1 float64 // Adam
	Beta2 float64 // Adam
	Eps   float64
}

// SGD returns a plain SGD optimizer spec.
func SGD(lr float64) Optimizer { return Optimizer{Kind: OptSGD, LR: lr} }

// AdaGrad returns an AdaGrad optimizer spec.
func AdaGrad(lr float64) Optimizer {
	return Optimizer{Kind: OptAdaGrad, LR: lr, Eps: 1e-8}
}

// Adam returns an Adam optimizer spec with standard betas.
func Adam(lr float64) Optimizer {
	return Optimizer{Kind: OptAdam, LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// apply runs one optimizer step of grad on w, for every engine that takes
// gradients. moment(k) is w's first (k = 0) or second (k = 1) moment,
// zeroed on first use; step counts the model's gradient pushes, this one
// included (Adam's bias correction).
func (o Optimizer) apply(w, grad []float64, step int64, moment func(k int) []float64) {
	switch o.Kind {
	case OptNone:
		for i, g := range grad {
			w[i] += g
		}
	case OptSGD:
		for i, g := range grad {
			w[i] -= o.LR * g
		}
	case OptAdaGrad:
		acc := moment(1)
		for i, g := range grad {
			acc[i] += g * g
			w[i] -= o.LR * g / (math.Sqrt(acc[i]) + o.Eps)
		}
	case OptAdam:
		m, v := moment(0), moment(1)
		b1c := 1 - math.Pow(o.Beta1, float64(step))
		b2c := 1 - math.Pow(o.Beta2, float64(step))
		for i, g := range grad {
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			w[i] -= o.LR * (m[i] / b1c) / (math.Sqrt(v[i]/b2c) + o.Eps)
		}
	}
}

// Scheme selects how keys map to partitions for keyed model kinds
// (SparseVector, Embedding, Neighbor). The paper implements all three
// (Sec. III-A, citing the hybrid-range strategy of Ghandeharizadeh &
// DeWitt).
type Scheme int

const (
	// SchemeHash spreads keys uniformly by hash (default). Best load
	// balance, no locality.
	SchemeHash Scheme = iota
	// SchemeRange splits the key domain [0, Size) into contiguous ranges.
	// Keys outside the declared domain fall into the last partition.
	// Preserves locality; requires Size to be set.
	SchemeRange
	// SchemeHashRange hashes keys into NumBuckets coarse buckets and
	// range-partitions the buckets across servers: hot keys spread like
	// hash partitioning, while each server owns a contiguous bucket range
	// that can be split or moved wholesale (the hybrid-range strategy).
	SchemeHashRange
)

// routeBuckets is the size of the hash route space: keys of
// hash-partitioned kinds are hashed into [0, routeBuckets) and each
// partition owns a contiguous bucket range. A large bucket count keeps
// range midpoints meaningful when hot partitions are split repeatedly.
const routeBuckets = 1 << 16

// Partition locates one shard of a model.
type Partition struct {
	// Index is the partition's stable identity. At CreateModel it equals
	// the slice position, but splits append new identities (allocated from
	// ModelMeta.NextID) while the slice stays sorted by route range, so
	// the two diverge over the life of an elastic model. Every RPC that
	// names a partition carries the Index, never the slice position.
	Index  int
	Server string // transport address of the primary
	// Backup is the transport address of the replica server that mirrors
	// this partition (live primary/backup replication), or "" when the
	// partition runs unreplicated (degraded single-copy mode).
	Backup string
	// Lo, Hi is the partition's route range: the half-open interval of
	// route keys (raw indices for range-partitioned kinds, hash buckets
	// for hash-partitioned ones) this partition owns. Column-partitioned
	// kinds leave it zero — every key lives on every partition there.
	Lo, Hi int64
	Col0   int // column range for column-partitioned kinds
	Col1   int
}

// ModelMeta fully describes a model: its layout is computed once by the
// master and cached by every client.
type ModelMeta struct {
	Name string
	Kind Kind
	Size int64 // number of rows / exclusive max vertex id
	Dim  int   // embedding dimension / matrix columns
	Opt  Optimizer
	// ConsistentRecovery requests that a server failure restores *all*
	// partitions from the checkpoint, not only the failed one, so that the
	// model stays mutually consistent (PageRank-style algorithms; Sec. III-B).
	ConsistentRecovery bool
	// InitScale, when positive, lazily initializes absent embedding rows
	// with deterministic uniform(-InitScale, +InitScale) values derived
	// from the vertex id. Zero means absent rows read as zero vectors.
	InitScale float64
	// Scheme selects the key→partition mapping for keyed kinds
	// (SparseVector, Embedding, Neighbor). DenseVector is always
	// range-partitioned; column kinds are partitioned by column.
	Scheme Scheme
	// NumPartitions overrides the partition count (default: one per
	// server). More partitions than servers spread round-robin, giving
	// finer units for recovery and rebalancing.
	NumPartitions int
	// Parts is kept sorted by route range (Lo ascending) for routed kinds
	// so clients can binary-search it; splits insert in place.
	Parts []Partition
	// NextID is the next unused partition identity. layout() sets it to
	// the initial partition count; every split consumes one.
	NextID int
	// Epoch is the layout epoch this meta was handed out at. The master
	// bumps it on every failover promotion; mutating client calls carry
	// it and servers fence writes whose epoch is older than their own
	// (see failover.go), so a client holding a pre-promotion layout can
	// never apply a write through a demoted primary.
	Epoch int64
}

// NumParts returns the number of partitions.
func (m *ModelMeta) NumParts() int { return len(m.Parts) }

// routeBucket hashes a key into the [0, routeBuckets) route space. The
// hash is a pure function (SplitMix64 over a golden-ratio step), so every
// process — client routing, server-side range validation, migration
// export filters — agrees on where a key lives without sharing a seed.
func routeBucket(key int64) int64 {
	return int64(splitmix64(uint64(key)*0x9e3779b97f4a7c15+0x1d8e4e27c47d124f) % routeBuckets)
}

// routed reports whether keys of this model map to exactly one partition
// through a [Lo, Hi) route range. Column-partitioned kinds are not
// routed: every key lives on every partition.
func (m *ModelMeta) routed() bool {
	switch m.Kind {
	case DenseVector, SparseVector, Embedding, Neighbor:
		return true
	default:
		return false
	}
}

// rangeScheme reports whether route keys are (clamped) raw key values,
// i.e. partitions own contiguous slices of the key domain [0, Size).
// Otherwise route keys are hash buckets in [0, routeBuckets).
func (m *ModelMeta) rangeScheme() bool {
	if m.Kind == DenseVector {
		return true
	}
	return m.routed() && m.Scheme == SchemeRange && m.Size > 0
}

// routeSpan returns the exclusive upper bound of the route space.
func (m *ModelMeta) routeSpan() int64 {
	if m.rangeScheme() {
		return m.Size
	}
	return routeBuckets
}

// RouteKey maps a key into the model's route space. Out-of-domain keys
// clamp into the edge partitions instead of panicking.
func (m *ModelMeta) RouteKey(key int64) int64 {
	if m.rangeScheme() {
		if key < 0 {
			return 0
		}
		if key >= m.Size {
			return m.Size - 1
		}
		return key
	}
	return routeBucket(key)
}

// PartitionFor returns the slice position (not the stable Index) of the
// partition that owns key: a binary search over the sorted range table.
func (m *ModelMeta) PartitionFor(key int64) int {
	if !m.routed() || len(m.Parts) <= 1 {
		return 0
	}
	rk := m.RouteKey(key)
	// Last partition whose Lo <= rk; clamps keys outside [Parts[0].Lo,
	// Parts[last].Hi) into the edge partitions.
	lo, hi := 0, len(m.Parts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.Parts[mid].Lo <= rk {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// slotByID returns the slice position of the partition with stable
// identity id, or -1 when the layout no longer carries it.
func (m *ModelMeta) slotByID(id int) int {
	for i := range m.Parts {
		if m.Parts[i].Index == id {
			return i
		}
	}
	return -1
}

// partByID returns the partition with stable identity id.
func (m *ModelMeta) partByID(id int) (Partition, bool) {
	if i := m.slotByID(id); i >= 0 {
		return m.Parts[i], true
	}
	return Partition{}, false
}

// sortParts re-establishes the route-range sort order after an insert.
func sortParts(parts []Partition) {
	sort.Slice(parts, func(i, j int) bool {
		if parts[i].Lo != parts[j].Lo {
			return parts[i].Lo < parts[j].Lo
		}
		return parts[i].Index < parts[j].Index
	})
}

// layout computes partition boundaries over the given server addresses.
// Partitions are assigned to servers round-robin; by default there is one
// partition per server. Every routed kind gets a real route range so the
// same split/migrate machinery covers range- and hash-partitioned models.
func layout(meta ModelMeta, servers []string) ModelMeta {
	n := meta.NumPartitions
	if n <= 0 {
		n = len(servers)
	}
	meta.Parts = make([]Partition, n)
	meta.NextID = n
	serverOf := func(i int) string { return servers[i%len(servers)] }
	switch meta.Kind {
	case ColumnEmbedding, DenseMatrix:
		for i := 0; i < n; i++ {
			c0 := meta.Dim * i / n
			c1 := meta.Dim * (i + 1) / n
			meta.Parts[i] = Partition{Index: i, Server: serverOf(i), Col0: c0, Col1: c1}
		}
	default:
		span := meta.routeSpan()
		for i := 0; i < n; i++ {
			lo := span * int64(i) / int64(n)
			hi := span * int64(i+1) / int64(n)
			meta.Parts[i] = Partition{Index: i, Server: serverOf(i), Lo: lo, Hi: hi}
		}
	}
	return meta
}

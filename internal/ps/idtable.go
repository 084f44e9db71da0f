package ps

import "math/bits"

// idTable is the package's open-addressed id → ordinal table: the index of
// a rowStore shard and of a dedup (dedupIDs). Its user keeps the ids by
// ordinal and appends what put adds; the table holds no count of its own. keys/slot are parallel power-of-two arrays probed
// linearly from the TOP bits of a Fibonacci hash (an engine's shard pick
// takes bits 32 and up, so one shard's ids still spread), load ≤ ½; slot
// holds ordinal+1, 0 = empty. There is no delete: users fill it and clear it.
type idTable struct {
	shift uint    // 64 - log2(len(slot))
	keys  []int64 // keys[i] is valid where slot[i] != 0
	slot  []uint32
}

const (
	fibHash    = 0x9e3779b97f4a7c15
	idTableMin = 16
)

// reset makes the table a fresh, empty one with room for n ids.
func (t *idTable) reset(n int) {
	size := 1 << bits.Len(uint(max(2*n, idTableMin)-1))
	*t = idTable{keys: make([]int64, size), slot: make([]uint32, size),
		shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// probe returns the table index holding id, or the empty index where id
// would be inserted.
func (t *idTable) probe(id int64) uint64 {
	slot := t.slot
	keys := t.keys[:len(slot)]
	mask := uint64(len(slot) - 1)
	i := (uint64(id) * fibHash) >> t.shift
	for slot[i] != 0 && keys[i] != id {
		i = (i + 1) & mask
	}
	return i
}

// put returns the ordinal of id in ids, the ids the table holds by ordinal.
// An id it does not hold gets the next one, len(ids), and added: the caller
// appends it. At load ½ the table doubles and re-places every id of ids.
func (t *idTable) put(id int64, ids []int64) (ord uint32, added bool) {
	i := t.probe(id)
	if o := t.slot[i]; o != 0 {
		return o - 1, false
	}
	if 2*(len(ids)+1) > len(t.slot) {
		t.reset(len(t.slot))
		for o, held := range ids {
			k := t.probe(held)
			t.keys[k], t.slot[k] = held, uint32(o)+1
		}
		i = t.probe(id)
	}
	t.keys[i], t.slot[i] = id, uint32(len(ids))+1
	return uint32(len(ids)), true
}

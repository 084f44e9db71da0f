package core

import "slices"

// The round every PS-backed graph algorithm of Sec. IV is written as:
// executors read the values their vertices need from the PS, compute over
// flat slices, and push what they write. gather is the read half and
// combine stages the write half (DESIGN.md §8.3).

// gather reads one value per id of reads — in any order, repeats allowed —
// with one positional pull of their sorted distinct ids: vals[i] is the
// value of reads[i].
func gather(pull func(ids []int64) ([]float64, error), reads []int64) (vals []float64, err error) {
	ids, at := distinct(reads)
	if len(ids) == 0 {
		return nil, nil
	}
	pulled, err := pull(ids)
	if err != nil {
		return nil, err
	}
	vals = make([]float64, len(at))
	for i, j := range at {
		vals[i] = pulled[j]
	}
	return vals, nil
}

// combine stages the writes ids[i] ← vals[i] for one push: the distinct
// ids, ascending, each with its values folded by c in the order they were
// written, starting from c's identity.
func combine(ids []int64, vals []float64, c Combiner) ([]int64, []float64) {
	out, at := distinct(ids)
	op := combiners[c]
	folded := slices.Repeat([]float64{op.identity}, len(out))
	for i, j := range at {
		folded[j] = op.fold(folded[j], vals[i])
	}
	return out, folded
}

// distinct numbers the ids in reads: ids are the distinct ones, ascending,
// and reads[i] == ids[at[i]].
func distinct(reads []int64) (ids []int64, at []int) {
	pairs := make([]idPair, len(reads))
	for i, id := range reads {
		pairs[i] = idPair{K: id, V: int64(i)}
	}
	pairs, _ = sortByK(pairs, make([]idPair, len(pairs)))
	at = make([]int, len(reads))
	for _, p := range pairs {
		if n := len(ids); n == 0 || ids[n-1] != p.K {
			ids = append(ids, p.K)
		}
		at[p.V] = len(ids) - 1
	}
	return ids, at
}

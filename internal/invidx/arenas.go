package invidx

import "math"

// RawArenas exposes the flat layout of an Index as its backing slices, in
// exactly the form the SEALIDX2 segment format persists them. TBounds is
// empty unless Dual, and Slots is nil — not merely empty — when the index
// carries no directory. Callers must not mutate any slice: for an in-memory
// index they alias the live arena, and for a mapped segment they alias
// read-only pages.
type RawArenas struct {
	Dual    bool
	Keys    []uint64  // ascending signature keys
	Starts  []uint32  // len(Keys)+1 list offsets into the posting arena
	Objs    []uint32  // posting object IDs
	Bounds  []float64 // posting bounds (spatial bounds for dual indexes)
	TBounds []float64 // posting textual bounds, dual indexes only
	Slots   []uint32  // open-addressed directory (position+1, 0 = empty)
}

// CompressedArenas is RawArenas for the compressed layouts: per-list byte
// extents into one encoded blob instead of fixed-width posting arenas.
type CompressedArenas struct {
	Dual   bool
	Keys   []uint64
	Offs   []uint32 // len(Keys)+1 byte offsets into Blob
	Blob   []byte   // per-list encodings, each led by its posting count
	Slots  []uint32
	Layout Layout
}

// Arenas exposes the index's backing slices.
func (ix *Index) Arenas() RawArenas {
	return RawArenas{Dual: ix.dual, Keys: ix.keys, Starts: ix.starts, Objs: ix.objs, Bounds: ix.bounds, TBounds: ix.tBounds, Slots: ix.table.slots}
}

// validateDirectory checks a persisted hash directory against the sorted key
// array: exact size, a bijection onto key positions, and — because lookups
// linear-probe until an empty slot — that every key is actually reachable
// from its home slot. A directory that passes behaves identically to one
// newKeyTable would build; one that fails could send probes into infinite
// loops or to the wrong list, so segment opening rejects it up front. Nil
// slots are an index without a directory and there is nothing to check:
// lookups binary-search the keys, already validated as strictly ascending.
func validateDirectory(keys []uint64, slots []uint32) (keyTable, error) {
	if slots == nil {
		return keyTable{}, nil
	}
	if len(slots) != tableSlots(len(keys)) {
		return keyTable{}, corrupt("directory size mismatch")
	}
	seen := make([]bool, len(keys))
	filled := 0
	for _, s := range slots {
		if s == 0 {
			continue
		}
		i := int(s - 1)
		if i >= len(keys) || seen[i] {
			return keyTable{}, corrupt("directory slot out of range or duplicated")
		}
		seen[i] = true
		filled++
	}
	if filled != len(keys) {
		return keyTable{}, corrupt("directory is missing keys")
	}
	t := keyTable{slots: slots}
	for i, k := range keys {
		if t.find(keys, k) != i {
			return keyTable{}, corrupt("directory probe does not reach key")
		}
	}
	return t, nil
}

// validateRawArenas checks every structural invariant the query path relies
// on, so FromArenas can wrap untrusted bytes without re-deriving anything.
func validateRawArenas(a RawArenas, objects int) error {
	nk := len(a.Keys)
	if len(a.Starts) != nk+1 {
		return corrupt("starts length mismatch")
	}
	for i := 1; i < nk; i++ {
		if a.Keys[i] <= a.Keys[i-1] {
			return corrupt("keys not strictly ascending")
		}
	}
	np := len(a.Objs)
	if len(a.Bounds) != np {
		return corrupt("bounds length mismatch")
	}
	if a.Dual {
		if len(a.TBounds) != np {
			return corrupt("textual bounds length mismatch")
		}
	} else if len(a.TBounds) != 0 {
		return corrupt("unexpected textual bounds")
	}
	if a.Starts[0] != 0 || int(a.Starts[nk]) != np {
		return corrupt("starts do not span the posting arena")
	}
	for i := 0; i < nk; i++ {
		lo, hi := a.Starts[i], a.Starts[i+1]
		if lo > hi || int(hi) > np {
			return corrupt("list offsets not monotone")
		}
		for j := lo; j < hi; j++ {
			b := a.Bounds[j]
			if math.IsNaN(b) || (j > lo && b > a.Bounds[j-1]) {
				return corrupt("list bounds not descending")
			}
		}
	}
	for _, o := range a.Objs {
		if int(o) >= objects {
			return corrupt("posting object out of range")
		}
	}
	for _, tb := range a.TBounds {
		if math.IsNaN(tb) {
			return corrupt("NaN textual bound")
		}
	}
	return nil
}

// FromArenas wraps validated arenas as an index, sharing (not copying) the
// slices. objects is the exclusive upper bound for posting object IDs.
func FromArenas(a RawArenas, objects int) (*Index, error) {
	if err := validateRawArenas(a, objects); err != nil {
		return nil, err
	}
	t, err := validateDirectory(a.Keys, a.Slots)
	if err != nil {
		return nil, err
	}
	return &Index{keys: a.Keys, table: t, starts: a.Starts, objs: a.Objs, bounds: a.Bounds, tBounds: a.TBounds, dual: a.Dual}, nil
}

// validateCompressedArenas checks the extent structure and then eagerly
// decodes every list once, so a mapped segment that opens successfully can
// only fail a later probe if the underlying file changes beneath it.
func validateCompressedArenas(a CompressedArenas, postings, objects int) error {
	nk := len(a.Keys)
	if len(a.Offs) != nk+1 {
		return corrupt("extent table length mismatch")
	}
	if a.Layout.Exact && a.Layout.Obj16 {
		return corrupt("16-bit object IDs claimed for the exact layout")
	}
	for i := 1; i < nk; i++ {
		if a.Keys[i] <= a.Keys[i-1] {
			return corrupt("keys not strictly ascending")
		}
	}
	if a.Offs[0] != 0 || int(a.Offs[nk]) != len(a.Blob) {
		return corrupt("extents do not span the blob")
	}
	total := 0
	var scr ListScratch
	for i := 0; i < nk; i++ {
		lo, hi := a.Offs[i], a.Offs[i+1]
		if lo > hi || int(hi) > len(a.Blob) {
			return corrupt("extent offsets not monotone")
		}
		n, err := decodeList(a.Blob[lo:hi], a.Dual, a.Layout, &scr)
		if err != nil {
			return err
		}
		total += n
		if total > postings {
			return corrupt("list counts exceed posting total")
		}
		for _, o := range scr.objs[:n] {
			if int(o) >= objects {
				return corrupt("posting object out of range")
			}
		}
	}
	if total != postings {
		return corrupt("list counts below posting total")
	}
	return nil
}

// CompressedFromArenas validates a and wraps it as a compressed index,
// sharing (not copying) the slices. postings is the expected posting total
// (the segment header's claim), cross-checked against the per-list counts.
func CompressedFromArenas(a CompressedArenas, postings, objects int) (*Compressed, error) {
	if err := validateCompressedArenas(a, postings, objects); err != nil {
		return nil, err
	}
	t, err := validateDirectory(a.Keys, a.Slots)
	if err != nil {
		return nil, err
	}
	return &Compressed{keys: a.Keys, table: t, offs: a.Offs, blob: a.Blob, postings: postings, layout: a.Layout, dual: a.Dual}, nil
}

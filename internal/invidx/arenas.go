package invidx

import (
	"fmt"
	"math"
)

// KeyArenas is the key column of either layout: Keys with an optional Slots
// directory (nil — not merely empty — when the index carries none), or, for an
// index frozen by FromSortedRuns, Runs (never nil then) over Nodes.
type KeyArenas struct {
	Keys  []uint64 // ascending signature keys
	Slots []uint32 // open-addressed directory (position+1, 0 = empty)
	Runs  []uint64 // Extents words: group g's nodes start at the g-th value
	Nodes []uint32 // the keys' low words, ascending inside a run
}

// RawArenas exposes the flat layout of an Index as its backing slices, in
// exactly the form the SEALIDX2 segment format persists them. TBounds is
// empty unless Dual. Callers must not mutate any slice: for an in-memory
// index they alias the live arena, and for a mapped segment they alias
// read-only pages.
type RawArenas struct {
	KeyArenas
	Dual    bool
	Starts  []uint32  // lists+1 list offsets into the posting arena
	Objs    []uint32  // posting object IDs
	Bounds  []float64 // posting bounds (spatial bounds for dual indexes)
	TBounds []float64 // posting textual bounds, dual indexes only
}

// CompressedArenas is RawArenas for the compressed layouts: one blob of
// fixed-width rows cut into lists by an extent table, counted in rows.
type CompressedArenas struct {
	KeyArenas
	Dual    bool
	Extents []uint64 // Extents words: list i holds the rows between values i and i+1
	Blob    []byte   // the lists' columns, one list after another
	Layout  Layout
}

func (c *keyColumn) arenas() KeyArenas {
	k := KeyArenas{Keys: c.keys, Slots: c.table.slots, Nodes: c.nodes}
	if c.runs != nil {
		k.Runs = c.runs.words
	}
	return k
}

// Arenas exposes the index's backing slices.
func (ix *Index) Arenas() RawArenas {
	return RawArenas{KeyArenas: ix.arenas(), Dual: ix.dual, Starts: ix.starts, Objs: ix.objs, Bounds: ix.bounds, TBounds: ix.tBounds}
}

// validateKeys checks a persisted key column and wraps it: keys strictly
// ascending under a sound directory, or a run table — an extent table ending
// at the node count — over nodes strictly ascending inside every run, which is
// what makes binary searches of a run, and positions taken from it, mean what
// the writer meant.
func validateKeys(a KeyArenas) (keyColumn, error) {
	if a.Runs == nil {
		if len(a.Nodes) != 0 {
			return keyColumn{}, corrupt("nodes without a run table")
		}
		for i := 1; i < len(a.Keys); i++ {
			if a.Keys[i] <= a.Keys[i-1] {
				return keyColumn{}, corrupt("keys not strictly ascending")
			}
		}
		return keyColumn{keys: a.Keys, table: keyTable{slots: a.Slots}}, validateDirectory(a.Keys, a.Slots)
	}
	if len(a.Keys) != 0 || a.Slots != nil {
		return keyColumn{}, corrupt("run-grouped index with a key array")
	}
	runs, err := extentsFromWords(a.Runs, uint64(len(a.Nodes)))
	if err != nil {
		return keyColumn{}, fmt.Errorf("run table: %w", err)
	}
	starts := runs.values()
	lo := starts.next()
	for g := 0; g < runs.Len(); g++ {
		hi := starts.next()
		for i := lo + 1; i < hi; i++ {
			if a.Nodes[i] <= a.Nodes[i-1] {
				return keyColumn{}, corrupt("run nodes not strictly ascending")
			}
		}
		lo = hi
	}
	return keyColumn{runs: runs, nodes: a.Nodes}, nil
}

// validateDirectory checks a persisted hash directory against the sorted key
// array: exact size, a bijection onto key positions, and — because lookups
// linear-probe until an empty slot — that every key is actually reachable
// from its home slot. A directory that passes behaves identically to one
// newKeyTable would build; one that fails could send probes into infinite
// loops or to the wrong list, so segment opening rejects it up front. Nil
// slots are an index without a directory and there is nothing to check:
// lookups binary-search the keys, which validateKeys has seen ascend.
func validateDirectory(keys []uint64, slots []uint32) error {
	if slots == nil {
		return nil
	}
	if len(slots) != tableSlots(len(keys)) {
		return corrupt("directory size mismatch")
	}
	seen := make([]bool, len(keys))
	filled := 0
	for _, s := range slots {
		if s == 0 {
			continue
		}
		i := int(s - 1)
		if i >= len(keys) || seen[i] {
			return corrupt("directory slot out of range or duplicated")
		}
		seen[i] = true
		filled++
	}
	if filled != len(keys) {
		return corrupt("directory is missing keys")
	}
	col := keyColumn{keys: keys, table: keyTable{slots: slots}}
	for i, k := range keys {
		if col.find(k) != i {
			return corrupt("directory probe does not reach key")
		}
	}
	return nil
}

// validateRawArenas checks every structural invariant the query path relies
// on over the posting arenas of nk lists, so FromArenas can wrap untrusted
// bytes without re-deriving anything.
func validateRawArenas(a RawArenas, nk, objects int) error {
	if len(a.Starts) != nk+1 {
		return corrupt("starts length mismatch")
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
	col, err := validateKeys(a.KeyArenas)
	if err != nil {
		return nil, err
	}
	if err := validateRawArenas(a, col.lists(), objects); err != nil {
		return nil, err
	}
	return &Index{keyColumn: col, starts: a.Starts, objs: a.Objs, bounds: a.Bounds, tBounds: a.TBounds, dual: a.Dual}, nil
}

// validateCompressedArenas checks, over the nk lists' extents, what the query
// path relies on, visiting every list once, and returns the extent table, so a
// mapped segment that opens successfully can only fail a later probe if the
// underlying file changes beneath it: the extent table ends at the posting
// total and holds nk lists, the blob is that many rows, and every list is
// checked where it lies — spatial bounds never ascending, no bound above the
// layout's ceiling, objects in range.
func validateCompressedArenas(a CompressedArenas, nk, postings, objects int) (*Extents, error) {
	rows, err := extentsFromWords(a.Extents, uint64(postings))
	if err != nil {
		return nil, err
	}
	if rows.Len() != nk {
		return nil, corrupt("extent table length mismatch")
	}
	w := a.Layout.rowWidth(a.Dual)
	if len(a.Blob) != postings*w {
		return nil, corrupt("blob is not the posting total's rows")
	}
	starts := rows.values()
	lo := starts.next()
	for i := 0; i < nk; i++ {
		hi := starts.next()
		if err := walkColumns(a.Blob[lo*w:hi*w], hi-lo, a.Dual, a.Layout, objects, nil); err != nil {
			return nil, err
		}
		lo = hi
	}
	return rows, nil
}

// CompressedFromArenas validates a and wraps it as a compressed index,
// sharing (not copying) the slices. postings is the expected posting total
// (the segment header's claim): the extent table must end there.
func CompressedFromArenas(a CompressedArenas, postings, objects int) (*Compressed, error) {
	col, err := validateKeys(a.KeyArenas)
	if err != nil {
		return nil, err
	}
	rows, err := validateCompressedArenas(a, col.lists(), postings, objects)
	if err != nil {
		return nil, err
	}
	return &Compressed{keyColumn: col, rows: *rows, blob: a.Blob, width: a.Layout.rowWidth(a.Dual), layout: a.Layout, dual: a.Dual}, nil
}

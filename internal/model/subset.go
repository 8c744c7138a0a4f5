package model

// Row order for the sharded engine: Permute stores a dataset's objects in a
// chosen row order, and Subset views a range of those rows as a dataset that
// verifies bit-identically.

import (
	"errors"
	"fmt"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/text"
)

// Permute returns a root dataset whose row r holds ds's row rows[r]. Every
// object keeps its ID, region, footprint, token set and weight sum; only its
// row changes. rows must be a permutation of ds's rows, and ds a root. Row
// finds an ID by a binary search in each ascending run of the new ID column,
// so rows that ascend by ID inside each shard, as the engine's do, keep it to
// one search a shard.
func (ds *Dataset) Permute(rows []ObjectID) (*Dataset, error) {
	n := ds.Len()
	if len(rows) != n {
		return nil, fmt.Errorf("model: permutation of %d rows over %d objects", len(rows), n)
	}
	p := *ds
	p.regions = make([]geo.Rect, n)
	p.tokOff = make([]uint32, n+1)
	p.tokIDs = make([]text.TokenID, 0, len(ds.tokIDs))
	p.totalW = make([]float64, n)
	p.ids = make([]ObjectID, n)
	for r, old := range rows {
		if int(old) >= n {
			return nil, fmt.Errorf("model: permuted row %d out of range [0,%d)", old, n)
		}
		p.regions[r] = ds.regions[old]
		p.tokIDs = append(p.tokIDs, ds.Tokens(old)...)
		p.tokOff[r+1] = uint32(len(p.tokIDs))
		p.totalW[r] = ds.totalW[old]
		p.ids[r] = ds.ID(old)
	}
	if err := checkPermutation(p.ids); err != nil {
		return nil, err
	}
	p.runs = ascendingRuns(p.ids)
	return &p, nil
}

// checkPermutation checks that ids is a permutation of [0, len(ids)), with a
// bitmap of the IDs seen that it then drops.
func checkPermutation(ids []ObjectID) error {
	seen := make([]uint64, (len(ids)+63)/64)
	for _, id := range ids {
		if int(id) >= len(ids) || seen[id/64]&(1<<(id%64)) != 0 {
			return errors.New("model: object IDs are not a permutation of the rows")
		}
		seen[id/64] |= 1 << (id % 64)
	}
	return nil
}

// ascendingRuns returns the first row of each maximal ascending run of ids,
// then len(ids); an empty column has no runs.
func ascendingRuns(ids []ObjectID) []uint32 {
	var runs []uint32
	for r := range ids {
		if r == 0 || ids[r] < ids[r-1] {
			runs = append(runs, uint32(r))
		}
	}
	return append(runs, uint32(len(ids)))
}

// Subset returns a Dataset over rows [lo, hi) of ds: its row i is ds's row
// lo+i, with the same object ID. ds must carry an ID column (a Permute'd or
// opened dataset, or a Subset of one); a Builder's dataset has none.
//
// The subset is a view and copies nothing: it slices the parent's columns and
// shares its token arena, vocabulary, token weights, footprints and — crucially
// — the parent's Space() rectangle, so similarity verification and every grid
// decomposition built over the subset are identical to the parent's. A shard
// therefore answers exactly the queries the parent would, restricted to its
// objects, which is what makes scatter-gather search exact.
func (ds *Dataset) Subset(lo, hi int) (*Dataset, error) {
	if lo < 0 || lo >= hi || hi > ds.Len() {
		return nil, fmt.Errorf("model: subset rows [%d,%d) empty or outside [0,%d)", lo, hi, ds.Len())
	}
	if ds.ids == nil {
		return nil, errors.New("model: a dataset in insertion order has no ID column to subset")
	}
	sub := *ds
	sub.regions = ds.regions[lo:hi:hi]
	sub.tokOff = ds.tokOff[lo : hi+1 : hi+1]
	sub.totalW = ds.totalW[lo:hi:hi]
	sub.ids = ds.ids[lo:hi:hi]
	sub.runs = nil
	return &sub, nil
}

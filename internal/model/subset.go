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
// row changes. rows must be a permutation of ds's rows, and ds a root.
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
	var err error
	if p.inv, err = invert(p.ids); err != nil {
		return nil, err
	}
	return &p, nil
}

// invert returns the inverse of ids after checking that it is a permutation
// of [0, len(ids)).
func invert(ids []ObjectID) ([]ObjectID, error) {
	const absent = ^ObjectID(0)
	inv := make([]ObjectID, len(ids))
	for i := range inv {
		inv[i] = absent
	}
	for row, id := range ids {
		if int(id) >= len(ids) || inv[id] != absent {
			return nil, errors.New("model: object IDs are not a permutation of the rows")
		}
		inv[id] = ObjectID(row)
	}
	return inv, nil
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
	sub.inv = nil
	return &sub, nil
}

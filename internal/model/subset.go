package model

// Dataset partitioning support for the sharded engine: a Subset is a dataset
// over a subsequence of the parent's objects that verifies bit-identically.

import (
	"errors"
	"fmt"

	"github.com/sealdb/seal/internal/geo"
)

// Subset returns a Dataset over the given parent objects. Object i of the
// subset is parent object ids[i]; callers keep their own position→parent
// mapping when they need to translate results back.
//
// The subset is a view: it shares the parent's token arena, weight sums,
// vocabulary, token weights, and — crucially — the parent's Space()
// rectangle, so similarity verification and every grid decomposition built
// over the subset are identical to the parent's. A shard therefore answers
// exactly the queries the parent would, restricted to its objects, which is
// what makes scatter-gather search exact.
//
// Only the regions are gathered into a column of the subset's own: the
// spatial test rejects most candidates before anything else of the object is
// read, and it measured about 15 % slower through the row table.
//
// A subset of a root dataset retains ids as its row table; callers must not
// mutate it afterwards.
func (ds *Dataset) Subset(ids []ObjectID) (*Dataset, error) {
	if len(ids) == 0 {
		return nil, errors.New("model: cannot build an empty subset")
	}
	sub := *ds
	sub.rows = ids
	sub.regions = make([]geo.Rect, len(ids))
	for i, id := range ids {
		if int(id) >= ds.Len() {
			return nil, fmt.Errorf("model: subset object %d out of range [0,%d)", id, ds.Len())
		}
		sub.regions[i] = ds.regions[id]
	}
	if ds.rows != nil { // a subset of a subset: compose the row tables
		sub.rows = make([]ObjectID, len(ids))
		for i, id := range ids {
			sub.rows[i] = ds.rows[id]
		}
	}
	return &sub, nil
}

package model

// The flat form of a dataset: what a dataset segment stores, and what opening
// one views in place. Everything per-object is an array a file section can
// back directly, and so can the vocabulary's terms and weights; only the
// vocabulary's lookup table and the per-row weight sums are built on the
// heap, beside one row index a run of ascending IDs.

import (
	"errors"
	"fmt"
	"slices"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/text"
)

// Columns is a root dataset's complete state as flat arrays. Token weights
// are stored, not recomputed, so supplied weights (BuildWithVocab) survive
// the round trip exactly like idf ones.
type Columns struct {
	Terms   string    // vocabulary blob: term t is Terms[TermOff[t]:TermOff[t+1]]
	TermOff []uint32  // one offset per term plus the end
	Weights []float64 // w(t) per term

	Regions []geo.Rect     // one MBR per row
	TokOff  []uint32       // row i's tokens are TokIDs[TokOff[i]:TokOff[i+1]]
	TokIDs  []text.TokenID // strictly ascending within each row
	IDs     []ObjectID     // row i holds object IDs[i]; nil is the identity

	// Multi-region footprints: object MultiIDs[k] (ascending IDs) is the
	// union of MultiRects[MultiOff[k]:MultiOff[k+1]], whose MBR is its
	// region.
	MultiIDs   []ObjectID
	MultiOff   []uint32
	MultiRects []geo.Rect

	SpatialSim SpatialSim
	TextualSim TextualSim
}

// Columns exports the dataset's flat form. The slices alias the dataset and
// are read-only. Only a root dataset has one; a Subset is a view of its
// parent's.
func (ds *Dataset) Columns() (Columns, error) {
	if ds.ids != nil && ds.runs == nil {
		return Columns{}, errors.New("model: a subset has no columns of its own")
	}
	c := Columns{
		Weights:    ds.weights,
		Regions:    ds.regions,
		TokOff:     ds.tokOff,
		TokIDs:     ds.tokIDs,
		IDs:        ds.ids,
		MultiOff:   []uint32{0},
		SpatialSim: ds.spatialSim,
		TextualSim: ds.textualSim,
	}
	c.Terms, c.TermOff = ds.vocab.Blob()
	for id := range ds.multi {
		c.MultiIDs = append(c.MultiIDs, id)
	}
	slices.Sort(c.MultiIDs)
	for _, id := range c.MultiIDs {
		c.MultiRects = append(c.MultiRects, ds.multi[id]...)
		c.MultiOff = append(c.MultiOff, uint32(len(c.MultiRects)))
	}
	return c, nil
}

// FromColumns wraps flat arrays as a dataset without copying the per-object
// ones: Regions, TokOff, TokIDs, IDs and MultiRects are retained and may
// alias a read-only mapping, and so may Terms, TermOff and Weights, which
// become the vocabulary (see text.FromBlob: Term copies the terms it hands
// out). Row finds an ID by a binary search in each ascending run of IDs, so
// the heap holds one row index a run.
//
// The input is untrusted. Every invariant the query path relies on is checked
// here — offsets spanning their arenas, token IDs inside the vocabulary and
// strictly ascending per row, valid regions, object IDs that are a
// permutation of the rows, footprints that really bound to their region — so
// a dataset that opens cannot index out of range or verify against
// inconsistent state later.
func FromColumns(c Columns) (*Dataset, error) {
	n := len(c.Regions)
	if n == 0 {
		return nil, errors.New("model: no objects")
	}
	if c.SpatialSim > SpaceDice || c.TextualSim > TextCosine {
		return nil, fmt.Errorf("model: unknown similarity functions %d/%d", c.SpatialSim, c.TextualSim)
	}
	vocab, err := text.FromBlob(c.Terms, c.TermOff, c.Weights)
	if err != nil {
		return nil, err
	}
	if err := checkOffsets(c.TokOff, n, len(c.TokIDs)); err != nil {
		return nil, fmt.Errorf("model: token %w", err)
	}
	for i, r := range c.Regions {
		if !r.Valid() {
			return nil, fmt.Errorf("model: row %d: invalid region", i)
		}
		row := c.TokIDs[c.TokOff[i]:c.TokOff[i+1]]
		for j, t := range row {
			if int(t) >= vocab.Len() || (j > 0 && t <= row[j-1]) {
				return nil, fmt.Errorf("model: row %d: token IDs not ascending inside the vocabulary", i)
			}
		}
	}
	if c.IDs != nil {
		if len(c.IDs) != n {
			return nil, fmt.Errorf("model: %d object IDs for %d rows", len(c.IDs), n)
		}
		if err := checkPermutation(c.IDs); err != nil {
			return nil, err
		}
	}
	multi, err := multiFromColumns(c)
	if err != nil {
		return nil, err
	}
	ds := newDataset(vocab, c.Regions, c.TokOff, c.TokIDs, multi, c.SpatialSim, c.TextualSim)
	if c.IDs != nil {
		ds.ids, ds.runs = c.IDs, ascendingRuns(c.IDs)
	}
	return ds, nil
}

// checkOffsets verifies a CSR offset table: n+1 monotone entries from 0 to
// the arena length.
func checkOffsets(off []uint32, n, arena int) error {
	if len(off) != n+1 || off[0] != 0 || int(off[n]) != arena {
		return errors.New("offsets do not span the arena")
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			return errors.New("offsets not monotone")
		}
	}
	return nil
}

// multiFromColumns checks and indexes the footprints; c.IDs has been checked
// to be a permutation of the rows (nil: the identity).
func multiFromColumns(c Columns) (map[ObjectID]geo.RectSet, error) {
	if err := checkOffsets(c.MultiOff, len(c.MultiIDs), len(c.MultiRects)); err != nil {
		return nil, fmt.Errorf("model: multi-region %w", err)
	}
	if len(c.MultiIDs) == 0 {
		return nil, nil
	}
	multi := make(map[ObjectID]geo.RectSet, len(c.MultiIDs))
	for k, id := range c.MultiIDs {
		if int(id) >= len(c.Regions) || (k > 0 && id <= c.MultiIDs[k-1]) {
			return nil, errors.New("model: multi-region object IDs not ascending inside the dataset")
		}
		lo, hi := c.MultiOff[k], c.MultiOff[k+1]
		set := geo.RectSet(c.MultiRects[lo:hi:hi])
		if len(set) < 2 {
			return nil, fmt.Errorf("model: object %d: multi-region footprint of %d rectangles", id, len(set))
		}
		for _, r := range set {
			if !r.Valid() {
				return nil, fmt.Errorf("model: object %d: invalid footprint rectangle", id)
			}
		}
		multi[id] = set
	}
	// Walking the rows in storage order finds each footprint's row with one
	// map lookup a row, however the IDs are ordered.
	for row, region := range c.Regions {
		id := ObjectID(row)
		if c.IDs != nil {
			id = c.IDs[row]
		}
		if set, ok := multi[id]; ok && set.MBR() != region {
			return nil, fmt.Errorf("model: object %d: footprint does not bound to its region", id)
		}
	}
	return multi, nil
}

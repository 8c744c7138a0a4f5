package model

// Multi-region objects implement the paper's future-work extension: an
// object's spatial footprint is a union of rectangles (e.g. one MBR per
// activity cluster) rather than a single MBR.
//
// The integration is deliberately asymmetric:
//
//   - Filters keep operating on the single-rectangle view Region(id), which
//     for a multi-region object is the MBR of its union. Every filter bound
//     stays an upper bound — |g ∩ MBR| ≥ |g ∩ union| ≥ |g ∩ q ∩ union| —
//     so candidate completeness (no false negatives) is preserved without
//     touching any signature machinery.
//   - Verification becomes exact on the union: simR uses the union's areas,
//     so a query overlapping only the empty space inside an L-shaped
//     footprint is correctly rejected.

import (
	"fmt"

	"github.com/sealdb/seal/internal/geo"
)

// AddMulti appends one object whose spatial footprint is the union of
// several rectangles. At least one rectangle is required; a single-element
// set behaves exactly like Add.
func (b *Builder) AddMulti(regions geo.RectSet, terms []string) (ObjectID, error) {
	if len(regions) == 0 {
		return 0, fmt.Errorf("model: object %d: no regions", len(b.regions))
	}
	for i, r := range regions {
		if !r.Valid() {
			return 0, fmt.Errorf("model: object %d: invalid region %d: %v", len(b.regions), i, r)
		}
	}
	if len(regions) == 1 {
		return b.Add(regions[0], terms)
	}
	id, err := b.Add(regions.MBR(), terms)
	if err != nil {
		return 0, err
	}
	if b.multi == nil {
		b.multi = make(map[ObjectID]geo.RectSet)
	}
	b.multi[id] = append(geo.RectSet(nil), regions...)
	return id, nil
}

// MultiRegion returns a row's rectangle-union footprint, or nil when its
// object is a plain single-rectangle ROI.
func (ds *Dataset) MultiRegion(row ObjectID) geo.RectSet {
	if ds.multi == nil {
		return nil
	}
	return ds.multi[ds.ID(row)]
}

// simRMulti computes the exact spatial similarity between the query
// rectangle and a rectangle-union footprint.
func (ds *Dataset) simRMulti(q *Query, set geo.RectSet) float64 {
	inter := set.IntersectionArea(q.Region)
	if inter == 0 {
		return 0
	}
	switch ds.spatialSim {
	case SpaceDice:
		return 2 * inter / (q.Area() + set.Area())
	default:
		return inter / (q.Area() + set.Area() - inter)
	}
}

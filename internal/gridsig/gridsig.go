// Package gridsig implements the grid-based spatial signatures of Section 4:
// a uniform p×p decomposition of the data space, signature generation with
// clipped-area element weights w(g|o) = |g ∩ o.R|, per-cell object counting
// for the global grid order (ascending count), and the expected-cost model
// used for grid granularity selection (Section 4.3).
package gridsig

import (
	"fmt"
	"slices"

	"github.com/sealdb/seal/internal/geo"
)

// Grid is a uniform P×P partition of a space rectangle. Cells are addressed
// by (ix, iy) with ix, iy in [0, P), or by the linear CellID iy*P + ix.
type Grid struct {
	Space geo.Rect
	P     int
	cellW float64
	cellH float64
}

// CellWeight is one element of a grid signature: a cell and the area of the
// region clipped to it.
type CellWeight struct {
	Cell uint32
	W    float64
}

// New creates a P×P grid over space. P must be positive and the space must
// have positive area.
func New(space geo.Rect, p int) (*Grid, error) {
	if p <= 0 {
		return nil, fmt.Errorf("gridsig: granularity %d must be positive", p)
	}
	if !space.Valid() || space.IsDegenerate() {
		return nil, fmt.Errorf("gridsig: space %v must have positive area", space)
	}
	return &Grid{
		Space: space,
		P:     p,
		cellW: space.Width() / float64(p),
		cellH: space.Height() / float64(p),
	}, nil
}

// Cells returns the total number of cells, P².
func (g *Grid) Cells() int { return g.P * g.P }

// CellID returns the linear ID of cell (ix, iy).
func (g *Grid) CellID(ix, iy int) uint32 { return uint32(iy*g.P + ix) }

// CellRect returns the rectangle of the cell with the given linear ID.
func (g *Grid) CellRect(id uint32) geo.Rect {
	ix := int(id) % g.P
	iy := int(id) / g.P
	return geo.Rect{
		MinX: g.Space.MinX + float64(ix)*g.cellW,
		MinY: g.Space.MinY + float64(iy)*g.cellH,
		MaxX: g.Space.MinX + float64(ix+1)*g.cellW,
		MaxY: g.Space.MinY + float64(iy+1)*g.cellH,
	}
}

// cellRange returns the half-open index ranges [ix0,ix1) × [iy0,iy1) of the
// cells sharing positive area with r (clamped to the grid). ok is false when
// r does not overlap the space at all.
func (g *Grid) cellRange(r geo.Rect) (ix0, iy0, ix1, iy1 int, ok bool) {
	inter, has := r.Intersection(g.Space)
	if !has || inter.IsDegenerate() {
		return 0, 0, 0, 0, false
	}
	ix0 = int((inter.MinX - g.Space.MinX) / g.cellW)
	iy0 = int((inter.MinY - g.Space.MinY) / g.cellH)
	ix1 = int((inter.MaxX-g.Space.MinX)/g.cellW) + 1
	iy1 = int((inter.MaxY-g.Space.MinY)/g.cellH) + 1
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	ix0 = clamp(ix0, 0, g.P)
	iy0 = clamp(iy0, 0, g.P)
	ix1 = clamp(ix1, 0, g.P)
	iy1 = clamp(iy1, 0, g.P)
	if ix0 >= ix1 || iy0 >= iy1 {
		return 0, 0, 0, 0, false
	}
	return ix0, iy0, ix1, iy1, true
}

// Signature appends the grid-based signature of region r (Definition 4) to
// out and returns it: every cell sharing positive area with r, weighted by
// the clipped area |g ∩ r|. Cells with zero overlap area (boundary touches)
// are excluded — they contribute nothing to the signature similarity.
func (g *Grid) Signature(r geo.Rect, out []CellWeight) []CellWeight {
	ix0, iy0, ix1, iy1, ok := g.cellRange(r)
	if !ok {
		return out
	}
	for iy := iy0; iy < iy1; iy++ {
		for ix := ix0; ix < ix1; ix++ {
			id := g.CellID(ix, iy)
			w := g.CellRect(id).IntersectionArea(r)
			if w > 0 {
				out = append(out, CellWeight{Cell: id, W: w})
			}
		}
	}
	return out
}

// Counter accumulates count(g) — the number of object regions intersecting
// each cell — which defines the global grid order (ascending count,
// Section 4.2). It switches between a dense array and a sparse map based on
// the grid size, so fine granularities (8192²) stay affordable.
type Counter struct {
	grid   *Grid
	dense  []uint32
	sparse map[uint32]uint32
}

// denseLimit caps the dense counter allocation at 4M cells (16 MB).
const denseLimit = 1 << 22

// NewCounter creates a counter for grid g.
func NewCounter(g *Grid) *Counter {
	c := &Counter{grid: g}
	if g.Cells() <= denseLimit {
		c.dense = make([]uint32, g.Cells())
	} else {
		c.sparse = make(map[uint32]uint32)
	}
	return c
}

// AddRegion increments the count of every cell sharing positive area with r.
func (c *Counter) AddRegion(r geo.Rect) {
	ix0, iy0, ix1, iy1, ok := c.grid.cellRange(r)
	if !ok {
		return
	}
	for iy := iy0; iy < iy1; iy++ {
		for ix := ix0; ix < ix1; ix++ {
			id := c.grid.CellID(ix, iy)
			if c.grid.CellRect(id).IntersectionArea(r) <= 0 {
				continue
			}
			if c.dense != nil {
				c.dense[id]++
			} else {
				c.sparse[id]++
			}
		}
	}
}

// AddCount sets count(g) for one cell directly, for callers that already
// know the counts (e.g. reopening a persisted index whose posting-list
// lengths are the cell counts). Cells never added keep count 0.
func (c *Counter) AddCount(id uint32, n uint32) {
	if c.dense != nil {
		c.dense[id] += n
	} else if n > 0 {
		c.sparse[id] += n
	}
}

// Count returns count(g) for the cell.
func (c *Counter) Count(id uint32) uint32 {
	if c.dense != nil {
		return c.dense[id]
	}
	return c.sparse[id]
}

// SortSignature orders a signature by the global grid order: ascending
// count(g), ties by ascending cell ID. Both object signatures (at build
// time) and query signatures (at query time) use this order, which is what
// makes prefix filtering sound.
func (c *Counter) SortSignature(sig []CellWeight) {
	slices.SortFunc(sig, func(a, b CellWeight) int {
		ca, cb := c.Count(a.Cell), c.Count(b.Cell)
		switch {
		case ca < cb:
			return -1
		case ca > cb:
			return 1
		case a.Cell < b.Cell:
			return -1
		case a.Cell > b.Cell:
			return 1
		default:
			return 0
		}
	})
}

package geo

import (
	"cmp"
	"slices"
)

// RectSet is a region composed of several possibly-overlapping rectangles,
// treated as their union. It implements the paper's future-work extension of
// multiple active regions per object ("we can compute multiple active
// regions for each user by clustering tweets' locations", Section 6.1):
// similarity uses the exact union area rather than a single MBR.
//
// Operations run in O(n² ) by coordinate-compressed slab sweeps, which is
// the right trade-off for the small per-object region counts this models
// (a handful of activity clusters per user).
type RectSet []Rect

// stackRects is how many rectangles a sweep holds in fixed buffers on the
// stack: measuring a set of up to that many allocates nothing, and only a
// larger one reaches the heap.
const stackRects = 8

// Area returns the area of the union of the rectangles.
func (s RectSet) Area() float64 {
	var buf [stackRects]Rect
	active := buf[:0]
	for _, r := range s {
		if !r.IsDegenerate() {
			active = append(active, r)
		}
	}
	return sweepArea(active)
}

// MBR returns the bounding rectangle of the set. It panics on an empty set.
func (s RectSet) MBR() Rect {
	return MBR(s)
}

// IntersectionArea returns |union(s) ∩ r|.
func (s RectSet) IntersectionArea(r Rect) float64 {
	var buf [stackRects]Rect
	clipped := buf[:0]
	for _, b := range s {
		if c, ok := b.Intersection(r); ok && !c.IsDegenerate() {
			clipped = append(clipped, c)
		}
	}
	return sweepArea(clipped)
}

// sweepArea computes the union area of non-degenerate rectangles with an
// x-slab sweep: between adjacent distinct x coordinates, the covered y length
// is the merged length of the y intervals of rectangles spanning the slab.
// Spans that start at the same y merge to the same intervals in any order,
// so the sum does not depend on how the sort breaks their ties.
func sweepArea(rects []Rect) float64 {
	switch len(rects) {
	case 0:
		return 0
	case 1:
		return rects[0].Area()
	}
	var xbuf [2 * stackRects]float64
	xs := xbuf[:0]
	for _, r := range rects {
		xs = append(xs, r.MinX, r.MaxX)
	}
	slices.Sort(xs)
	xs = slices.Compact(xs)

	type span struct{ lo, hi float64 }
	var sbuf [stackRects]span
	spans := sbuf[:0]
	var total float64
	for i := 0; i+1 < len(xs); i++ {
		x0, x1 := xs[i], xs[i+1]
		width := x1 - x0
		if width <= 0 {
			continue
		}
		spans = spans[:0]
		for _, r := range rects {
			if r.MinX <= x0 && r.MaxX >= x1 {
				spans = append(spans, span{r.MinY, r.MaxY})
			}
		}
		if len(spans) == 0 {
			continue
		}
		slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
		covered := 0.0
		curLo, curHi := spans[0].lo, spans[0].hi
		for _, sp := range spans[1:] {
			if sp.lo > curHi {
				covered += curHi - curLo
				curLo, curHi = sp.lo, sp.hi
				continue
			}
			if sp.hi > curHi {
				curHi = sp.hi
			}
		}
		covered += curHi - curLo
		total += covered * width
	}
	return total
}

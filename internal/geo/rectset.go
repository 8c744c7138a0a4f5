package geo

import "sort"

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

// Area returns the area of the union of the rectangles.
func (s RectSet) Area() float64 {
	return unionArea(s)
}

// MBR returns the bounding rectangle of the set. It panics on an empty set.
func (s RectSet) MBR() Rect {
	return MBR(s)
}

// IntersectionArea returns |union(s) ∩ r|.
func (s RectSet) IntersectionArea(r Rect) float64 {
	clipped := make(RectSet, 0, len(s))
	for _, b := range s {
		if c, ok := b.Intersection(r); ok && !c.IsDegenerate() {
			clipped = append(clipped, c)
		}
	}
	return unionArea(clipped)
}

// unionArea computes the union area with an x-slab sweep: between adjacent
// distinct x coordinates, the covered y length is the merged length of the
// y intervals of rectangles spanning the slab.
func unionArea(rects RectSet) float64 {
	active := rects[:0:0]
	for _, r := range rects {
		if !r.IsDegenerate() {
			active = append(active, r)
		}
	}
	if len(active) == 0 {
		return 0
	}
	if len(active) == 1 {
		return active[0].Area()
	}
	xs := make([]float64, 0, 2*len(active))
	for _, r := range active {
		xs = append(xs, r.MinX, r.MaxX)
	}
	sort.Float64s(xs)
	xs = dedupFloats(xs)

	type span struct{ lo, hi float64 }
	spans := make([]span, 0, len(active))
	var total float64
	for i := 0; i+1 < len(xs); i++ {
		x0, x1 := xs[i], xs[i+1]
		width := x1 - x0
		if width <= 0 {
			continue
		}
		spans = spans[:0]
		for _, r := range active {
			if r.MinX <= x0 && r.MaxX >= x1 {
				spans = append(spans, span{r.MinY, r.MaxY})
			}
		}
		if len(spans) == 0 {
			continue
		}
		sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
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

func dedupFloats(xs []float64) []float64 {
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// Package geo provides the planar rectangle geometry that underlies SEAL's
// spatial model. Regions of interest (ROIs) and query regions are axis-aligned
// minimum bounding rectangles (MBRs); the similarity of two regions is the
// Jaccard coefficient of their areas (intersection area over union area), as
// defined in Section 2.1 of the SEAL paper.
//
// All coordinates are float64 in an arbitrary planar unit (the generators in
// internal/gen use kilometres). Rectangles are closed: MinX <= MaxX and
// MinY <= MaxY for a valid rectangle, and rectangles that merely share a
// boundary have intersection area zero.
package geo

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle given by its bottom-left point
// (MinX, MinY) and top-right point (MaxX, MaxY). The zero value is the
// degenerate point rectangle at the origin.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two points (x1,y1) and (x2,y2),
// normalizing the coordinate order so the result is always valid.
func NewRect(x1, y1, x2, y2 float64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

// Valid reports whether the rectangle has non-inverted, finite coordinates.
func (r Rect) Valid() bool {
	if math.IsNaN(r.MinX) || math.IsNaN(r.MinY) || math.IsNaN(r.MaxX) || math.IsNaN(r.MaxY) {
		return false
	}
	if math.IsInf(r.MinX, 0) || math.IsInf(r.MinY, 0) || math.IsInf(r.MaxX, 0) || math.IsInf(r.MaxY, 0) {
		return false
	}
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY
}

// Width returns the horizontal extent of the rectangle.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of the rectangle.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of the rectangle. Degenerate rectangles (points and
// segments) have area zero.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// IsDegenerate reports whether the rectangle has zero area.
func (r Rect) IsDegenerate() bool { return r.MinX >= r.MaxX || r.MinY >= r.MaxY }

// Center returns the midpoint of the rectangle.
func (r Rect) Center() (x, y float64) {
	return (r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2
}

// Intersects reports whether r and s share at least a boundary point.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersection returns the common rectangle of r and s. The boolean result is
// false when the rectangles do not intersect at all, in which case the
// returned rectangle is the zero value.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	return Rect{
		MinX: max(r.MinX, s.MinX),
		MinY: max(r.MinY, s.MinY),
		MaxX: min(r.MaxX, s.MaxX),
		MaxY: min(r.MaxY, s.MaxY),
	}, true
}

// IntersectionArea returns |r ∩ s|, the area of the overlap of r and s,
// without allocating the intersection rectangle.
func (r Rect) IntersectionArea(s Rect) float64 {
	w := min(r.MaxX, s.MaxX) - max(r.MinX, s.MinX)
	if w <= 0 {
		return 0
	}
	h := min(r.MaxY, s.MaxY) - max(r.MinY, s.MinY)
	if h <= 0 {
		return 0
	}
	return w * h
}

// Extend returns the MBR of r and s.
func (r Rect) Extend(s Rect) Rect {
	return Rect{
		MinX: min(r.MinX, s.MinX),
		MinY: min(r.MinY, s.MinY),
		MaxX: max(r.MaxX, s.MaxX),
		MaxY: max(r.MaxY, s.MaxY),
	}
}

// Contains reports whether s lies entirely inside r (boundaries included).
func (r Rect) Contains(s Rect) bool {
	return r.MinX <= s.MinX && s.MaxX <= r.MaxX && r.MinY <= s.MinY && s.MaxY <= r.MaxY
}

// String formats the rectangle as "[minx,miny | maxx,maxy]".
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g | %g,%g]", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// Jaccard returns the spatial Jaccard similarity of r and s
// (Definition 1 of the paper): |r ∩ s| / |r ∪ s|.
//
// When the union has zero area (both rectangles degenerate) the similarity is
// defined as zero: degenerate regions carry no area evidence of overlap.
func Jaccard(r, s Rect) float64 {
	inter := r.IntersectionArea(s)
	if inter == 0 {
		return 0
	}
	return inter / (r.Area() + s.Area() - inter)
}

// MBR returns the minimum bounding rectangle of all rects. It panics when
// rects is empty, because there is no meaningful empty MBR.
func MBR(rects []Rect) Rect {
	if len(rects) == 0 {
		panic("geo: MBR of empty slice")
	}
	m := rects[0]
	for _, r := range rects[1:] {
		m = m.Extend(r)
	}
	return m
}

package geo

import (
	"math"
	"testing"
)

// FuzzRectInvariants drives the rectangle algebra with arbitrary coordinate
// quadruples; go test runs the seed corpus, `go test -fuzz=FuzzRect` explores.
func FuzzRectInvariants(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 2.0, 2.0)
	f.Add(-3.0, 4.0, 7.5, 8.25, 1.0, 1.0, 1.0, 1.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				t.Skip()
			}
		}
		r := NewRect(ax, ay, bx, by)
		s := NewRect(cx, cy, dx, dy)
		if !r.Valid() || !s.Valid() {
			t.Fatalf("NewRect produced invalid rect: %v %v", r, s)
		}
		inter := r.IntersectionArea(s)
		if inter < 0 {
			t.Fatalf("negative intersection %v", inter)
		}
		if inter > r.Area()*(1+1e-9)+1e-9 || inter > s.Area()*(1+1e-9)+1e-9 {
			t.Fatalf("intersection %v exceeds areas %v/%v", inter, r.Area(), s.Area())
		}
		j := Jaccard(r, s)
		if j < 0 || j > 1+1e-9 || math.IsNaN(j) {
			t.Fatalf("jaccard out of range: %v", j)
		}
		if j != Jaccard(s, r) {
			t.Fatalf("jaccard asymmetric")
		}
		ext := r.Extend(s)
		if !ext.Contains(r) || !ext.Contains(s) {
			t.Fatalf("extend does not contain inputs")
		}
	})
}

// FuzzUnionArea cross-checks RectSet.Area against inclusion-exclusion on
// two rectangles, where the closed form is available.
func FuzzUnionArea(f *testing.F) {
	f.Add(0.0, 0.0, 4.0, 4.0, 2.0, 2.0, 6.0, 6.0)
	f.Add(0.0, 0.0, 1.0, 1.0, 5.0, 5.0, 6.0, 6.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		r := NewRect(ax, ay, bx, by)
		s := NewRect(cx, cy, dx, dy)
		got := RectSet{r, s}.Area()
		want := r.Area() + s.Area() - r.IntersectionArea(s)
		tol := 1e-9 * (1 + math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Fatalf("union sweep %v != inclusion-exclusion %v for %v, %v", got, want, r, s)
		}
	})
}

// sameBits reports bit-for-bit equality, treating every NaN as one value
// (neither math.Min nor the min builtin promises a NaN payload).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzMinMaxBuiltinsMatchMath pins IntersectionArea, Intersection and Extend,
// which use the min/max builtins, to the math.Min/math.Max form they replaced:
// the verify path (SimR) and the index build share them, so a difference in a
// NaN, an infinity or the sign of a zero would change answers, not just speed.
// Rectangles are built raw, so inverted, NaN and infinite coordinates count.
func FuzzMinMaxBuiltinsMatchMath(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 2.0, 2.0)
	f.Add(negZero, 0.0, 0.0, negZero, 0.0, negZero, negZero, 0.0)
	f.Add(math.NaN(), 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
	f.Add(0.0, 0.0, 1.0, math.NaN(), 0.0, 0.0, 1.0, 1.0)
	f.Add(math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1), 0.0, 0.0, 1.0, 1.0)
	f.Add(0.0, 0.0, math.Inf(1), 1.0, math.Inf(1), 0.0, math.Inf(1), 1.0)
	f.Add(3.0, 3.0, 1.0, 1.0, 0.0, 0.0, 2.0, 2.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		r := Rect{MinX: ax, MinY: ay, MaxX: bx, MaxY: by}
		s := Rect{MinX: cx, MinY: cy, MaxX: dx, MaxY: dy}

		wantArea := func() float64 {
			w := math.Min(r.MaxX, s.MaxX) - math.Max(r.MinX, s.MinX)
			if w <= 0 {
				return 0
			}
			h := math.Min(r.MaxY, s.MaxY) - math.Max(r.MinY, s.MinY)
			if h <= 0 {
				return 0
			}
			return w * h
		}()
		if got := r.IntersectionArea(s); !sameBits(got, wantArea) {
			t.Fatalf("IntersectionArea(%v, %v) = %v, math form %v", r, s, got, wantArea)
		}

		sameRect := func(a, b Rect) bool {
			return sameBits(a.MinX, b.MinX) && sameBits(a.MinY, b.MinY) &&
				sameBits(a.MaxX, b.MaxX) && sameBits(a.MaxY, b.MaxY)
		}
		wantExt := Rect{
			MinX: math.Min(r.MinX, s.MinX), MinY: math.Min(r.MinY, s.MinY),
			MaxX: math.Max(r.MaxX, s.MaxX), MaxY: math.Max(r.MaxY, s.MaxY),
		}
		if got := r.Extend(s); !sameRect(got, wantExt) {
			t.Fatalf("Extend(%v, %v) = %v, math form %v", r, s, got, wantExt)
		}
		wantInter := Rect{
			MinX: math.Max(r.MinX, s.MinX), MinY: math.Max(r.MinY, s.MinY),
			MaxX: math.Min(r.MaxX, s.MaxX), MaxY: math.Min(r.MaxY, s.MaxY),
		}
		if got, ok := r.Intersection(s); ok && !sameRect(got, wantInter) {
			t.Fatalf("Intersection(%v, %v) = %v, math form %v", r, s, got, wantInter)
		}
	})
}

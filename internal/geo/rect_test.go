package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 7, 1, 3)
	want := Rect{MinX: 1, MinY: 3, MaxX: 5, MaxY: 7}
	if r != want {
		t.Fatalf("NewRect(5,7,1,3) = %v, want %v", r, want)
	}
	if !r.Valid() {
		t.Fatalf("normalized rect should be valid: %v", r)
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		name string
		r    Rect
		want bool
	}{
		{"ordinary", Rect{0, 0, 1, 1}, true},
		{"point", Rect{2, 3, 2, 3}, true},
		{"inverted x", Rect{1, 0, 0, 1}, false},
		{"inverted y", Rect{0, 1, 1, 0}, false},
		{"nan", Rect{math.NaN(), 0, 1, 1}, false},
		{"inf", Rect{0, 0, math.Inf(1), 1}, false},
	}
	for _, c := range cases {
		if got := c.r.Valid(); got != c.want {
			t.Errorf("%s: Valid(%v) = %v, want %v", c.name, c.r, got, c.want)
		}
	}
}

func TestAreaWidthHeight(t *testing.T) {
	r := Rect{1, 2, 4, 8}
	if got := r.Width(); got != 3 {
		t.Errorf("Width = %v, want 3", got)
	}
	if got := r.Height(); got != 6 {
		t.Errorf("Height = %v, want 6", got)
	}
	if got := r.Area(); got != 18 {
		t.Errorf("Area = %v, want 18", got)
	}
	if r.IsDegenerate() {
		t.Errorf("rect with area should not be degenerate")
	}
	if !(Rect{1, 1, 1, 5}).IsDegenerate() {
		t.Errorf("segment should be degenerate")
	}
}

func TestIntersection(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	got, ok := a.Intersection(b)
	if !ok {
		t.Fatalf("expected intersection")
	}
	want := Rect{5, 5, 10, 10}
	if got != want {
		t.Fatalf("Intersection = %v, want %v", got, want)
	}
	if area := a.IntersectionArea(b); area != 25 {
		t.Fatalf("IntersectionArea = %v, want 25", area)
	}
	if area := a.UnionArea(b); area != 175 {
		t.Fatalf("UnionArea = %v, want 175", area)
	}

	c := Rect{20, 20, 30, 30}
	if _, ok := a.Intersection(c); ok {
		t.Fatalf("disjoint rects should not intersect")
	}
	if area := a.IntersectionArea(c); area != 0 {
		t.Fatalf("disjoint IntersectionArea = %v, want 0", area)
	}
}

func TestTouchingRects(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{10, 0, 20, 10} // shares the x=10 edge
	if !a.Intersects(b) {
		t.Errorf("edge-sharing rects should Intersect")
	}
	if a.Overlaps(b) {
		t.Errorf("edge-sharing rects should not Overlap")
	}
	if area := a.IntersectionArea(b); area != 0 {
		t.Errorf("edge intersection area = %v, want 0", area)
	}
}

func TestContains(t *testing.T) {
	outer := Rect{0, 0, 10, 10}
	if !outer.Contains(Rect{2, 2, 8, 8}) {
		t.Errorf("inner rect should be contained")
	}
	if !outer.Contains(outer) {
		t.Errorf("rect should contain itself")
	}
	if outer.Contains(Rect{2, 2, 11, 8}) {
		t.Errorf("protruding rect should not be contained")
	}
	if !outer.ContainsPoint(10, 10) {
		t.Errorf("corner point should be contained")
	}
	if outer.ContainsPoint(10.01, 5) {
		t.Errorf("outside point should not be contained")
	}
}

// TestJaccardPaperExample checks the worked example from Section 2.1:
// |q.R ∩ o1.R| = 1000 and |q.R ∪ o1.R| = 4400 give similarity 1000/4400.
func TestJaccardPaperExample(t *testing.T) {
	q := Rect{20, 20, 80, 60}   // area 2400, like the paper's q
	o1 := Rect{40, 35, 100, 85} // area 3000; overlap with q is 40x25 = 1000
	if a := q.Area(); a != 2400 {
		t.Fatalf("q area = %v, want 2400", a)
	}
	if a := o1.Area(); a != 3000 {
		t.Fatalf("o1 area = %v, want 3000", a)
	}
	if inter := q.IntersectionArea(o1); inter != 1000 {
		t.Fatalf("intersection = %v, want 1000", inter)
	}
	if union := q.UnionArea(o1); union != 4400 {
		t.Fatalf("union = %v, want 4400", union)
	}
	got := Jaccard(q, o1)
	want := 1000.0 / 4400.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Jaccard = %v, want %v", got, want)
	}
	// The paper rounds this to 0.23 and rejects it against tau_R = 0.25.
	if got >= 0.25 {
		t.Fatalf("paper example expects sim < 0.25, got %v", got)
	}
}

func TestJaccardDegenerate(t *testing.T) {
	p := Rect{1, 1, 1, 1}
	if s := Jaccard(p, p); s != 0 {
		t.Errorf("degenerate self-similarity = %v, want 0", s)
	}
	if s := Jaccard(p, Rect{0, 0, 2, 2}); s != 0 {
		t.Errorf("degenerate-vs-area similarity = %v, want 0", s)
	}
}

func TestDice(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 0, 3, 2}
	// intersection 2, areas 4+4
	if got, want := Dice(a, b), 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Dice = %v, want %v", got, want)
	}
	if got := Dice(a, Rect{10, 10, 11, 11}); got != 0 {
		t.Errorf("disjoint Dice = %v, want 0", got)
	}
}

func TestMBR(t *testing.T) {
	rects := []Rect{{0, 0, 1, 1}, {5, -2, 6, 3}, {-1, 0, 0, 0.5}}
	got := MBR(rects)
	want := Rect{-1, -2, 6, 3}
	if got != want {
		t.Fatalf("MBR = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("MBR(nil) should panic")
		}
	}()
	MBR(nil)
}

// randomRect builds a bounded random rectangle from four generator values.
func randomRect(a, b, c, d float64) Rect {
	wrap := func(v float64) float64 {
		v = math.Mod(v, 100)
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	return NewRect(wrap(a), wrap(b), wrap(c), wrap(d))
}

func TestJaccardProperties(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		r := randomRect(a, b, c, d)
		s := randomRect(e, g, h, i)
		j1 := Jaccard(r, s)
		j2 := Jaccard(s, r)
		if j1 != j2 {
			return false // symmetry
		}
		if j1 < 0 || j1 > 1+1e-12 {
			return false // range
		}
		// Self similarity is 1 for non-degenerate rects.
		if !r.IsDegenerate() && math.Abs(Jaccard(r, r)-1) > 1e-12 {
			return false
		}
		// Jaccard <= Dice <= 1.
		if Dice(r, s) < j1-1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectionProperties(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		r := randomRect(a, b, c, d)
		s := randomRect(e, g, h, i)
		inter := r.IntersectionArea(s)
		if inter < 0 {
			return false
		}
		if inter > r.Area()+1e-9 || inter > s.Area()+1e-9 {
			return false // intersection can't exceed either area
		}
		if rect, ok := r.Intersection(s); ok {
			if math.Abs(rect.Area()-inter) > 1e-9 {
				return false // the two intersection forms agree
			}
			if !r.Intersects(s) {
				return false
			}
		} else if inter != 0 {
			return false
		}
		// Extend contains both.
		ext := r.Extend(s)
		if !ext.Contains(r) || !ext.Contains(s) {
			return false
		}
		// Union area bounded by sum and at least max.
		u := r.UnionArea(s)
		if u > r.Area()+s.Area()+1e-9 || u < math.Max(r.Area(), s.Area())-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

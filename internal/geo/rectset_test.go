package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnionAreaBasics(t *testing.T) {
	cases := []struct {
		name string
		set  RectSet
		want float64
	}{
		{"empty", nil, 0},
		{"single", RectSet{{0, 0, 2, 3}}, 6},
		{"disjoint", RectSet{{0, 0, 1, 1}, {5, 5, 7, 6}}, 3},
		{"identical", RectSet{{0, 0, 2, 2}, {0, 0, 2, 2}}, 4},
		{"half overlap", RectSet{{0, 0, 2, 2}, {1, 0, 3, 2}}, 6},
		{"contained", RectSet{{0, 0, 10, 10}, {2, 2, 3, 3}}, 100},
		{"cross", RectSet{{0, 4, 10, 6}, {4, 0, 6, 10}}, 20 + 20 - 4},
		{"degenerate member", RectSet{{0, 0, 2, 2}, {5, 5, 5, 9}}, 4},
	}
	for _, c := range cases {
		if got := c.set.Area(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Area = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRectSetIntersectionArea(t *testing.T) {
	s := RectSet{{0, 0, 4, 4}, {6, 0, 10, 4}}
	if got := s.IntersectionArea(Rect{2, 0, 8, 4}); math.Abs(got-(2*4+2*4)) > 1e-12 {
		t.Fatalf("IntersectionArea = %v, want 16", got)
	}
	if got := s.IntersectionArea(Rect{4, 0, 6, 4}); got != 0 {
		t.Fatalf("gap intersection = %v, want 0", got)
	}
}

// TestRectSetSingleMatchesRect: a one-rectangle set measures as its
// rectangle does.
func TestRectSetSingleMatchesRect(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		r := randomRect(a, b, c, d)
		s := randomRect(e, g, h, i)
		return math.Abs(RectSet{r}.IntersectionArea(s)-r.IntersectionArea(s)) < 1e-9 &&
			math.Abs(RectSet{r}.Area()-r.Area()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestUnionAreaAgainstRasterization cross-checks the sweep against a
// Monte-Carlo-free exact grid rasterization on integer coordinates.
func TestUnionAreaAgainstRasterization(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		set := make(RectSet, 0, n)
		for i := 0; i < n; i++ {
			x, y := rng.Intn(20), rng.Intn(20)
			w, h := 1+rng.Intn(10), 1+rng.Intn(10)
			set = append(set, Rect{float64(x), float64(y), float64(x + w), float64(y + h)})
		}
		// Rasterize on the unit grid [0,30)².
		var raster float64
		for x := 0; x < 30; x++ {
			for y := 0; y < 30; y++ {
				cell := Rect{float64(x), float64(y), float64(x + 1), float64(y + 1)}
				for _, r := range set {
					if r.IntersectionArea(cell) > 0.5 { // integer rects: cell fully in or out
						raster++
						break
					}
				}
			}
		}
		if got := set.Area(); math.Abs(got-raster) > 1e-9 {
			t.Fatalf("trial %d: sweep=%v raster=%v set=%v", trial, got, raster, set)
		}
	}
}

func TestRectSetProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(n int) RectSet {
			set := make(RectSet, 0, n)
			for i := 0; i < n; i++ {
				x, y := rng.Float64()*50, rng.Float64()*50
				set = append(set, Rect{x, y, x + rng.Float64()*20, y + rng.Float64()*20})
			}
			return set
		}
		a := mk(1 + rng.Intn(5))
		areaA := a.Area()
		// Union area bounded by sum of areas and at least max single rect.
		var sum, maxR float64
		for _, r := range a {
			sum += r.Area()
			if r.Area() > maxR {
				maxR = r.Area()
			}
		}
		if areaA > sum+1e-9 || areaA < maxR-1e-9 {
			return false
		}
		// MBR contains everything; union(s) ∩ MBR = union area.
		if math.Abs(a.IntersectionArea(a.MBR())-areaA) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

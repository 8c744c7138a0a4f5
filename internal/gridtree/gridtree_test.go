package gridtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sealdb/seal/internal/geo"
)

func newTree(t *testing.T, maxLevel int) *Tree {
	t.Helper()
	tr, err := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 128, MaxY: 128}, maxLevel)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNodeIDPacking(t *testing.T) {
	for _, c := range []struct{ level, ix, iy int }{
		{0, 0, 0}, {1, 1, 0}, {5, 31, 17}, {14, 16383, 16383},
	} {
		n := MakeNodeID(c.level, c.ix, c.iy)
		if n.Level() != c.level || n.IX() != c.ix || n.IY() != c.iy {
			t.Errorf("roundtrip (%d,%d,%d) = (%d,%d,%d)", c.level, c.ix, c.iy, n.Level(), n.IX(), n.IY())
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, -1); err == nil {
		t.Error("negative maxLevel should fail")
	}
	if _, err := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, MaxLevelLimit+1); err == nil {
		t.Error("too-deep maxLevel should fail")
	}
	if _, err := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 0, MaxY: 1}, 3); err == nil {
		t.Error("degenerate space should fail")
	}
}

func TestRootAndChildrenGeometry(t *testing.T) {
	tr := newTree(t, 3)
	root := tr.Root()
	if got := tr.Rect(root); got != tr.Space {
		t.Fatalf("root rect = %v, want %v", got, tr.Space)
	}
	kids := tr.Children(root)
	var areaSum float64
	for _, k := range kids {
		r := tr.Rect(k)
		if r.Width() != 64 || r.Height() != 64 {
			t.Errorf("child %v rect %v, want 64x64", k, r)
		}
		areaSum += r.Area()
		if !tr.Space.Contains(r) {
			t.Errorf("child %v outside space", k)
		}
	}
	if areaSum != tr.Space.Area() {
		t.Errorf("children areas sum %v, want %v", areaSum, tr.Space.Area())
	}
	// Children are pairwise disjoint in area.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if tr.Rect(kids[i]).IntersectionArea(tr.Rect(kids[j])) != 0 {
				t.Errorf("children %v and %v overlap", kids[i], kids[j])
			}
		}
	}
}

func TestChildrenOfLeafPanics(t *testing.T) {
	tr := newTree(t, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Children of leaf should panic")
		}
	}()
	tr.Children(tr.Root())
}

func TestExpectedListSize(t *testing.T) {
	tr := newTree(t, 2)
	// One region covering exactly the bottom-left level-1 quadrant.
	rects := []geo.Rect{{MinX: 0, MinY: 0, MaxX: 64, MaxY: 64}}
	// Root: |g ∩ o| / |g| = 64²/128² = 0.25.
	if got := tr.ExpectedListSize(tr.Root(), rects); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("root Î = %v, want 0.25", got)
	}
	// Bottom-left child: fully covered → 1. Top-right child → 0.
	kids := tr.Children(tr.Root())
	if got := tr.ExpectedListSize(kids[0], rects); math.Abs(got-1) > 1e-12 {
		t.Errorf("bl child Î = %v, want 1", got)
	}
	if got := tr.ExpectedListSize(kids[3], rects); got != 0 {
		t.Errorf("tr child Î = %v, want 0", got)
	}
}

func TestNodeError(t *testing.T) {
	tr := newTree(t, 2)
	rects := []geo.Rect{{MinX: 0, MinY: 0, MaxX: 64, MaxY: 64}}
	// Î(root)=0.25; children Î = 1,0,0,0 →
	// error = (0.25-1)² + 3·(0.25-0)² = 0.5625 + 0.1875 = 0.75.
	if got := tr.NodeError(tr.Root(), rects); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("root error = %v, want 0.75", got)
	}
	// A uniformly covered node has error 0.
	full := []geo.Rect{tr.Space}
	if got := tr.NodeError(tr.Root(), full); got != 0 {
		t.Errorf("uniform error = %v, want 0", got)
	}
	// Leaves have error 0 by definition.
	leafTree := newTree(t, 0)
	if got := leafTree.NodeError(leafTree.Root(), rects); got != 0 {
		t.Errorf("leaf error = %v, want 0", got)
	}
}

func TestFilterIntersecting(t *testing.T) {
	tr := newTree(t, 1)
	rects := []geo.Rect{
		{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},       // bottom-left
		{MinX: 100, MinY: 100, MaxX: 120, MaxY: 120}, // top-right
		{MinX: 60, MinY: 60, MaxX: 70, MaxY: 70},     // straddles center
	}
	kids := tr.Children(tr.Root())
	bl := tr.FilterIntersecting(kids[0], rects, nil, nil)
	if len(bl) != 2 || bl[0] != 0 || bl[1] != 2 {
		t.Fatalf("bottom-left subset = %v, want [0 2]", bl)
	}
	// Subset chaining: restrict further from an existing subset.
	sub := tr.FilterIntersecting(kids[3], rects, []int{1, 2}, nil)
	if len(sub) != 2 {
		t.Fatalf("top-right subset = %v, want [1 2]", sub)
	}
	// Regions touching only at the node boundary are excluded.
	edge := []geo.Rect{{MinX: 64, MinY: 0, MaxX: 70, MaxY: 10}}
	if got := tr.FilterIntersecting(kids[0], edge, nil, nil); len(got) != 0 {
		t.Fatalf("boundary-touching region should be excluded, got %v", got)
	}
}

// TestLevelPartition: at any level, the 4^l nodes partition the space and
// Î respects nesting (a node's Î times its area equals the sum over
// children).
func TestLevelPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 256, MaxY: 256}, 4)
		if err != nil {
			return false
		}
		var rects []geo.Rect
		for i := 0; i < 5; i++ {
			x, y := rng.Float64()*240, rng.Float64()*240
			rects = append(rects, geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*16 + 0.5, MaxY: y + rng.Float64()*16 + 0.5})
		}
		n := MakeNodeID(2, rng.Intn(4), rng.Intn(4))
		parentMass := tr.ExpectedListSize(n, rects) * tr.Rect(n).Area()
		var childMass float64
		for _, c := range tr.Children(n) {
			childMass += tr.ExpectedListSize(c, rects) * tr.Rect(c).Area()
		}
		return math.Abs(parentMass-childMass) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRectMatchesDivision: the cell tables New fills hold the spans Rect
// once divided per call, Space.Width()/2^l and Space.Height()/2^l, so every
// node rectangle — and with it every grid error and every index — is the one
// the division gave, bit for bit, at every level of spaces whose cell edges
// are not exact binary fractions.
func TestRectMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 50; trial++ {
		x, y := rng.NormFloat64()*1e4, rng.NormFloat64()*1e4
		space := geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*1e5 + 1e-3, MaxY: y + rng.Float64()*1e5 + 1e-3}
		tr, err := New(space, MaxLevelLimit)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l <= MaxLevelLimit; l++ {
			w, h := space.Width()/float64(int(1)<<l), space.Height()/float64(int(1)<<l)
			if gw, gh := tr.CellSize(l); gw != w || gh != h {
				t.Fatalf("space %v level %d: cell %v×%v, want %v×%v", space, l, gw, gh, w, h)
			}
			for k := 0; k < 8; k++ {
				ix, iy := rng.Intn(1<<l), rng.Intn(1<<l)
				minX, minY := space.MinX+float64(ix)*w, space.MinY+float64(iy)*h
				want := geo.Rect{MinX: minX, MinY: minY, MaxX: minX + w, MaxY: minY + h}
				if got := tr.Rect(MakeNodeID(l, ix, iy)); got != want {
					t.Fatalf("space %v node L%d(%d,%d): %v, want %v", space, l, ix, iy, got, want)
				}
			}
		}
	}
}

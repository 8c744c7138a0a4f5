package gridsig

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/paperdata"
)

func paperGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 120, MaxY: 120}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// paperCellID converts the paper's g1..g16 numbering (row-major from the
// top-left) into this package's bottom-left linear IDs.
func paperCellID(g *Grid, paperNum int) uint32 {
	row := (paperNum - 1) / 4 // 0 = top row
	col := (paperNum - 1) % 4
	return g.CellID(col, 3-row)
}

// TestSignaturePaperQuery reproduces Figure 5's query signature: cells
// {g6,g7,g10,g11,g14,g15} with weights {250,150,750,450,500,300}.
func TestSignaturePaperQuery(t *testing.T) {
	g := paperGrid(t)
	sig := g.Signature(paperdata.QueryRegion, nil)
	want := map[int]float64{6: 250, 7: 150, 10: 750, 11: 450, 14: 500, 15: 300}
	if len(sig) != len(want) {
		t.Fatalf("signature has %d cells, want %d: %v", len(sig), len(want), sig)
	}
	got := map[uint32]float64{}
	for _, cw := range sig {
		got[cw.Cell] = cw.W
	}
	for num, w := range want {
		id := paperCellID(g, num)
		if math.Abs(got[id]-w) > 1e-9 {
			t.Errorf("w(g%d|q) = %v, want %v", num, got[id], w)
		}
	}
}

// TestSignaturePaperObject2 reproduces w(g|o2) = {g9:225, g10:450, g11:375,
// g13:150, g14:300, g15:250} and the signature similarity
// sim(SR(q), SR(o2)) = Σ min = 1375 ≥ cR = 600.
func TestSignaturePaperObject2(t *testing.T) {
	g := paperGrid(t)
	o2 := paperdata.Regions[1]
	sig := g.Signature(o2, nil)
	want := map[int]float64{9: 225, 10: 450, 11: 375, 13: 150, 14: 300, 15: 250}
	if len(sig) != len(want) {
		t.Fatalf("signature has %d cells, want %d: %v", len(sig), len(want), sig)
	}
	objW := map[uint32]float64{}
	for _, cw := range sig {
		objW[cw.Cell] = cw.W
	}
	for num, w := range want {
		if math.Abs(objW[paperCellID(g, num)]-w) > 1e-9 {
			t.Errorf("w(g%d|o2) = %v, want %v", num, objW[paperCellID(g, num)], w)
		}
	}
	// Signature similarity with the query: sum of min weights on shared cells.
	qSig := g.Signature(paperdata.QueryRegion, nil)
	var sim float64
	for _, qc := range qSig {
		if ow, ok := objW[qc.Cell]; ok {
			sim += math.Min(qc.W, ow)
		}
	}
	if math.Abs(sim-1375) > 1e-9 {
		t.Fatalf("sim(SR(q),SR(o2)) = %v, want 1375", sim)
	}
	cR := paperdata.TauR * paperdata.QueryRegion.Area()
	if math.Abs(cR-600) > 1e-12 || sim < cR {
		t.Fatalf("cR = %v (want 600), sim %v should pass", cR, sim)
	}
}

// TestO5SharesCellsButDisjoint checks the Section 4.3 motivation: o5 shares
// grid cells with q although their regions are disjoint.
func TestO5SharesCellsButDisjoint(t *testing.T) {
	g := paperGrid(t)
	o5 := paperdata.Regions[4]
	if paperdata.QueryRegion.IntersectionArea(o5) != 0 {
		t.Fatalf("o5 must be disjoint from q")
	}
	qCells := map[uint32]bool{}
	for _, cw := range g.Signature(paperdata.QueryRegion, nil) {
		qCells[cw.Cell] = true
	}
	shared := 0
	for _, cw := range g.Signature(o5, nil) {
		if qCells[cw.Cell] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("o5 should share at least one cell with q (the false-positive example)")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 0); err == nil {
		t.Error("p=0 should fail")
	}
	if _, err := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 0, MaxY: 1}, 4); err == nil {
		t.Error("degenerate space should fail")
	}
}

func TestSignatureOutsideSpace(t *testing.T) {
	g := paperGrid(t)
	if sig := g.Signature(geo.Rect{MinX: 200, MinY: 200, MaxX: 300, MaxY: 300}, nil); len(sig) != 0 {
		t.Fatalf("region outside space should have empty signature, got %v", sig)
	}
}

func TestCellRectRoundTrip(t *testing.T) {
	g := paperGrid(t)
	for iy := 0; iy < 4; iy++ {
		for ix := 0; ix < 4; ix++ {
			id := g.CellID(ix, iy)
			r := g.CellRect(id)
			if r.Width() != 30 || r.Height() != 30 {
				t.Fatalf("cell %d size = %vx%v, want 30x30", id, r.Width(), r.Height())
			}
			cx, cy := r.Center()
			if !g.Space.Contains(geo.Rect{MinX: cx, MinY: cy, MaxX: cx, MaxY: cy}) {
				t.Fatalf("cell %d center outside space", id)
			}
		}
	}
}

// TestSignatureWeightsSumToArea: for a region inside the space, the clipped
// cell areas must sum to the region's area (the cells partition the space).
func TestSignatureWeightsSumToArea(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		space := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
		p := 1 << (1 + rng.Intn(6))
		g, err := New(space, p)
		if err != nil {
			return false
		}
		x := rng.Float64() * 900
		y := rng.Float64() * 900
		r := geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*99 + 1, MaxY: y + rng.Float64()*99 + 1}
		sig := g.Signature(r, nil)
		var sum float64
		seen := map[uint32]bool{}
		for _, cw := range sig {
			if cw.W <= 0 {
				return false // only positive-weight cells
			}
			if seen[cw.Cell] {
				return false // no duplicate cells
			}
			seen[cw.Cell] = true
			// Weight can't exceed the cell area or the region area.
			if cw.W > g.CellRect(cw.Cell).Area()+1e-9 || cw.W > r.Area()+1e-9 {
				return false
			}
			sum += cw.W
		}
		return math.Abs(sum-r.Area()) < 1e-6*r.Area()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSignatureMatchesBruteForce compares the range-based signature against
// testing every cell of the grid.
func TestSignatureMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		space := geo.Rect{MinX: -50, MinY: -50, MaxX: 50, MaxY: 50}
		g, err := New(space, 8)
		if err != nil {
			return false
		}
		r := geo.NewRect(rng.Float64()*160-80, rng.Float64()*160-80, rng.Float64()*160-80, rng.Float64()*160-80)
		sig := g.Signature(r, nil)
		got := map[uint32]float64{}
		for _, cw := range sig {
			got[cw.Cell] = cw.W
		}
		for id := uint32(0); id < uint32(g.Cells()); id++ {
			w := g.CellRect(id).IntersectionArea(r)
			if w > 0 {
				if math.Abs(got[id]-w) > 1e-9 {
					return false
				}
				delete(got, id)
			}
		}
		return len(got) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterAndOrder(t *testing.T) {
	g := paperGrid(t)
	c := NewCounter(g)
	for _, r := range paperdata.Regions {
		c.AddRegion(r)
	}
	// Cell g10 (paper numbering) holds o1 and o2 per Figure 5.
	if got := c.Count(paperCellID(g, 10)); got != 2 {
		t.Errorf("count(g10) = %d, want 2 (o1, o2)", got)
	}
	// Sorting a signature yields ascending counts.
	sig := g.Signature(paperdata.QueryRegion, nil)
	c.SortSignature(sig)
	for i := 1; i < len(sig); i++ {
		ci, cj := c.Count(sig[i-1].Cell), c.Count(sig[i].Cell)
		if ci > cj {
			t.Fatalf("signature not sorted by count at %d: %d > %d", i, ci, cj)
		}
		if ci == cj && sig[i-1].Cell >= sig[i].Cell {
			t.Fatalf("tie not broken by cell ID at %d", i)
		}
	}
}

func TestSparseCounter(t *testing.T) {
	space := geo.Rect{MinX: 0, MinY: 0, MaxX: 1 << 20, MaxY: 1 << 20}
	g, err := New(space, 4096) // 16M cells > denseLimit → sparse
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounter(g)
	if c.sparse == nil {
		t.Fatal("expected sparse counter for 4096²")
	}
	r := geo.Rect{MinX: 10, MinY: 10, MaxX: 600, MaxY: 600}
	c.AddRegion(r)
	sig := g.Signature(r, nil)
	if len(sig) == 0 {
		t.Fatal("signature should not be empty")
	}
	for _, cw := range sig {
		if c.Count(cw.Cell) != 1 {
			t.Fatalf("sparse count(%d) = %d, want 1", cw.Cell, c.Count(cw.Cell))
		}
	}
}

func TestCostModel(t *testing.T) {
	m := CostModel{Pi1: 2, Pi2: 3}
	if got := m.Cost(10, 4); got != 32 {
		t.Fatalf("Cost = %v, want 32", got)
	}
}

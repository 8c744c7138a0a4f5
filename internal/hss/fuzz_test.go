package hss

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/gridtree"
	"github.com/sealdb/seal/internal/testutil"
)

// fuzzSpaces are TestSelectorMatchesReference's spaces: one whose cell edges
// are exact binary fractions and one whose are not.
var fuzzSpaces = [2]geo.Rect{
	{MinX: 0, MinY: 0, MaxX: 1024, MaxY: 1024},
	{MinX: -73.5, MinY: 12.25, MaxX: 1311.7, MaxY: 777.1},
}

// fuzzRegions is the most regions one input draws, which keeps the
// reference's per-node filtering quick.
const fuzzRegions = 512

// regionReader draws regions from fuzz bytes; an exhausted input reads as
// zeros.
type regionReader struct {
	b     []byte
	space geo.Rect
}

func (r *regionReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *regionReader) frac() float64 { return float64(r.byte()) / 256 }

// line returns a coordinate on one axis — origin and extent span — near a
// cell line of some level, computed as gridtree.Tree.Rect computes it: on
// the line, one ulp either side of it, or a fraction of a cell past it.
func (r *regionReader) line(origin, span float64) float64 {
	l := int(r.byte()) % (gridtree.MaxLevelLimit + 1)
	w := span / float64(int(1)<<l)
	i := (int(r.byte())<<8 | int(r.byte())) % (1<<l + 1)
	x := origin + float64(i)*w
	switch r.byte() % 4 {
	case 1:
		x = math.Nextafter(x, math.Inf(-1))
	case 2:
		x = math.Nextafter(x, math.Inf(1))
	case 3:
		x += w * r.frac()
	}
	return x
}

// rect orders two coordinates per axis into a region.
func rect(x0, x1, y0, y1 float64) geo.Rect {
	return geo.Rect{MinX: min(x0, x1), MaxX: max(x0, x1), MinY: min(y0, y1), MaxY: max(y0, y1)}
}

// regions draws until the input runs out. Each region is one of:
//   - snapped: each edge near a cell line (see line);
//   - a cluster: up to eight small boxes inside a finest-level cell around a
//     snapped point, which the greedy follows down a chain of single-child
//     splits;
//   - a box reaching out of the space on some side;
//   - raw: four float64s as they are, kept when finite.
func (r *regionReader) regions() []geo.Rect {
	var out []geo.Rect
	sp := r.space
	for len(r.b) > 0 && len(out) < fuzzRegions {
		switch r.byte() % 4 {
		case 0:
			x0, x1 := r.line(sp.MinX, sp.Width()), r.line(sp.MinX, sp.Width())
			y0, y1 := r.line(sp.MinY, sp.Height()), r.line(sp.MinY, sp.Height())
			out = append(out, rect(x0, x1, y0, y1))
		case 1:
			cx, cy := r.line(sp.MinX, sp.Width()), r.line(sp.MinY, sp.Height())
			w, h := sp.Width()/4096, sp.Height()/4096
			for k := 1 + int(r.byte()%8); k > 0; k-- {
				x, y := cx+w*r.frac(), cy+h*r.frac()
				out = append(out, rect(x, x+w*r.frac()/4, y, y+h*r.frac()/4))
			}
		case 2:
			x, y := r.line(sp.MinX, sp.Width()), r.line(sp.MinY, sp.Height())
			out = append(out, rect(x, x+(r.frac()-0.5)*3*sp.Width(), y, y+(r.frac()-0.5)*3*sp.Height()))
		case 3:
			var v [4]float64
			for k := range v {
				var w [8]byte
				for j := range w {
					w[j] = r.byte()
				}
				v[k] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
			}
			if g := rect(v[0], v[1], v[2], v[3]); g.Valid() {
				out = append(out, g)
			}
		}
	}
	return out
}

// rawRegions encodes rects as the raw draws of regions.
func rawRegions(rects []geo.Rect) []byte {
	var b []byte
	for _, g := range rects {
		b = append(b, 3)
		for _, v := range [4]float64{g.MinX, g.MaxX, g.MinY, g.MaxY} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// FuzzSelect holds the Selector to the reference grid for grid — same nodes,
// same counts, same order — over regions drawn from the input at budgets
// 1–64 and depths 0–12, with one Selector reused across inputs. The draws aim
// at what the Selector decides without a sweep: edges on a cell line or one
// ulp either side of it, where a region's quadrant hangs on rounding, and
// clusters that descend chains of single-child splits.
func FuzzSelect(f *testing.F) {
	// Seeds: TestSelectorMatchesReference's region mixes, each at one of its
	// depths and budgets in turn, and one input of each draw.
	depths, budgets := []uint8{0, 1, 7, 12}, []uint8{0, 2, 6, 63} // budget 1, 3, 7 and 64
	k := 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for s, space := range fuzzSpaces {
			for _, n := range []int{1, 3, 40} {
				f.Add(rawRegions(testutil.AdversarialRects(rng, space, n)), uint8(s), depths[k%4], budgets[k/4%4])
				k++
			}
		}
	}
	f.Add([]byte{0, 12, 0, 7, 1, 12, 0, 9, 2, 5, 1, 3, 0, 5, 1, 4, 3}, uint8(1), uint8(12), uint8(7))
	f.Add([]byte{1, 12, 0, 200, 0, 12, 0, 17, 0, 7, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}, uint8(0), uint8(12), uint8(3))
	f.Add([]byte{2, 3, 0, 1, 3, 4, 0, 2, 3, 40, 220}, uint8(1), uint8(9), uint8(15))

	var sel Selector
	f.Fuzz(func(t *testing.T, data []byte, space, depth, budget uint8) {
		sp := fuzzSpaces[space%2]
		tr, err := gridtree.New(sp, int(depth%13))
		if err != nil {
			t.Fatal(err)
		}
		mt := 1 + int(budget%64)
		rects := (&regionReader{b: data, space: sp}).regions()
		want, err := referenceSelect(tr, rects, mt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sel.Select(tr, rects, mt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("depth %d budget %d over %d regions %v:\n got %v\nwant %v", tr.MaxLevel, mt, len(rects), rects, got, want)
		}
	})
}

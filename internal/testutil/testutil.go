// Package testutil builds small randomized datasets and query workloads for
// property tests across the repository. The distributions are intentionally
// adversarial rather than realistic: degenerate regions, duplicate regions,
// heavy token skew, unknown query terms, and queries partially or fully
// outside the data space all appear with non-trivial probability.
package testutil

import (
	"fmt"
	"math/rand"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
)

// RandomDataset builds a dataset of n objects in a [0,1000]² world with a
// vocabulary of about vocabSize tokens (Zipf-skewed usage). Roughly one in
// seven objects is a multi-region object (a union of 2-4 rectangles), so
// every downstream property test exercises the multi-region extension.
func RandomDataset(rng *rand.Rand, n, vocabSize int) (*model.Dataset, error) {
	if vocabSize < 2 {
		vocabSize = 2
	}
	var b model.Builder
	for i := 0; i < n; i++ {
		terms := RandomTerms(rng, vocabSize, 1+rng.Intn(8))
		if rng.Intn(7) == 0 {
			set := make(geo.RectSet, 0, 4)
			for j := 0; j < 2+rng.Intn(3); j++ {
				set = append(set, RandomRegion(rng))
			}
			if _, err := b.AddMulti(set, terms); err != nil {
				return nil, err
			}
			continue
		}
		if _, err := b.Add(RandomRegion(rng), terms); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// RandomRegion draws an object region: usually a modest rectangle, sometimes
// a sliver, a point (degenerate), or a large block.
func RandomRegion(rng *rand.Rand) geo.Rect {
	x := rng.Float64() * 950
	y := rng.Float64() * 950
	var w, h float64
	switch rng.Intn(10) {
	case 0: // degenerate point
		return geo.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}
	case 1: // horizontal sliver
		w, h = rng.Float64()*200+1, 0.01
	case 2: // large block
		w, h = rng.Float64()*400+50, rng.Float64()*400+50
	default:
		w, h = rng.Float64()*50+0.5, rng.Float64()*50+0.5
	}
	return geo.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

// RandomTerms draws k terms from a Zipf-like distribution over vocabSize
// synthetic terms ("tok0", "tok1", ...), so low-numbered terms are frequent.
func RandomTerms(rng *rand.Rand, vocabSize, k int) []string {
	terms := make([]string, 0, k)
	for i := 0; i < k; i++ {
		// Squaring a uniform skews toward 0: a cheap Zipf stand-in.
		u := rng.Float64()
		idx := int(u * u * float64(vocabSize))
		if idx >= vocabSize {
			idx = vocabSize - 1
		}
		terms = append(terms, fmt.Sprintf("tok%d", idx))
	}
	return terms
}

// RandomQuery compiles a random query against ds: the region is centered on
// a random object (so overlaps are common) or fully random; terms mix tokens
// of a random object with fresh draws and occasional unknown terms.
func RandomQuery(rng *rand.Rand, ds *model.Dataset, vocabSize int) (*model.Query, error) {
	var region geo.Rect
	anchor := model.ObjectID(rng.Intn(ds.Len()))
	switch rng.Intn(4) {
	case 0:
		region = RandomRegion(rng)
	case 1: // exactly an object's region
		region = ds.Region(anchor)
	default: // jittered around an object
		r := ds.Region(anchor)
		cx, cy := r.Center()
		w := r.Width()*(0.5+rng.Float64()) + 1
		h := r.Height()*(0.5+rng.Float64()) + 1
		dx, dy := (rng.Float64()-0.5)*w, (rng.Float64()-0.5)*h
		region = geo.Rect{MinX: cx + dx - w/2, MinY: cy + dy - h/2, MaxX: cx + dx + w/2, MaxY: cy + dy + h/2}
	}
	var terms []string
	for _, t := range ds.Tokens(anchor) {
		if rng.Intn(2) == 0 {
			terms = append(terms, ds.Vocab().Term(t))
		}
	}
	terms = append(terms, RandomTerms(rng, vocabSize, 1+rng.Intn(4))...)
	if rng.Intn(5) == 0 {
		terms = append(terms, "unknown-term-xyzzy")
	}
	taus := []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0}
	tauR := taus[rng.Intn(len(taus))]
	tauT := taus[rng.Intn(len(taus))]
	return ds.NewQuery(region, terms, tauR, tauT)
}

// BruteForceAnswers returns the exact answer set of q by scanning ds.
func BruteForceAnswers(ds *model.Dataset, q *model.Query) []model.ObjectID {
	var out []model.ObjectID
	for id := model.ObjectID(0); int(id) < ds.Len(); id++ {
		if ds.Matches(q, id) {
			out = append(out, id)
		}
	}
	return out
}

// AdversarialRects draws a region set mixing the shapes that stress the grid
// machinery (HSS selection, grid projection): ordinary boxes, cell-aligned
// boxes whose edges touch grid lines (zero-area contact with the neighbouring
// cell), degenerate points and segments, boxes partly or wholly outside the
// space, boxes covering all of it, and exact duplicates (equal errors, so the
// NodeID tie-break decides).
func AdversarialRects(rng *rand.Rand, space geo.Rect, n int) []geo.Rect {
	w, h := space.Width(), space.Height()
	rects := make([]geo.Rect, 0, n)
	for len(rects) < n {
		x, y := space.MinX+rng.Float64()*w, space.MinY+rng.Float64()*h
		var r geo.Rect
		switch rng.Intn(9) {
		case 0: // point
			r = geo.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}
		case 1: // horizontal segment
			r = geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*w/8, MaxY: y}
		case 2: // aligned to the cells of a random level
			cells := float64(int(1) << rng.Intn(8))
			cw, ch := w/cells, h/cells
			cx, cy := float64(rng.Intn(int(cells))), float64(rng.Intn(int(cells)))
			r = geo.Rect{
				MinX: space.MinX + cx*cw, MinY: space.MinY + cy*ch,
				MaxX: space.MinX + (cx+1+float64(rng.Intn(2)))*cw, MaxY: space.MinY + (cy+1)*ch,
			}
		case 3: // straddles the space boundary
			r = geo.Rect{MinX: x - w/2, MinY: y - h/2, MaxX: x + w/16, MaxY: y + h/16}
		case 4: // wholly outside
			r = geo.Rect{MinX: space.MaxX + 1 + x, MinY: y, MaxX: space.MaxX + 2 + x, MaxY: y + 1}
		case 5: // covers everything
			r = geo.Rect{MinX: space.MinX - 1, MinY: space.MinY - 1, MaxX: space.MaxX + 1, MaxY: space.MaxY + 1}
		case 6: // duplicate of an earlier region
			if len(rects) == 0 {
				continue
			}
			r = rects[rng.Intn(len(rects))]
		case 7: // tiny, clustered near the origin corner
			r = geo.Rect{
				MinX: space.MinX + rng.Float64()*w/64, MinY: space.MinY + rng.Float64()*h/64,
				MaxX: space.MinX + rng.Float64()*w/64, MaxY: space.MinY + rng.Float64()*h/64,
			}
			r = geo.NewRect(r.MinX, r.MinY, r.MaxX, r.MaxY)
		default: // ordinary box
			r = geo.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*w/6, MaxY: y + rng.Float64()*h/6}
		}
		rects = append(rects, r)
	}
	return rects
}

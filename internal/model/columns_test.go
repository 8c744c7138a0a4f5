package model

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/text"
)

// columnsDataset is a small dataset with a multi-region object and an object
// without tokens.
func columnsDataset(t *testing.T) *Dataset {
	t.Helper()
	var b Builder
	add := func(_ ObjectID, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	add(b.Add(geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, []string{"b", "a", "b"}))
	add(b.AddMulti(geo.RectSet{
		{MinX: 10, MinY: 10, MaxX: 12, MaxY: 12},
		{MinX: 14, MinY: 10, MaxX: 16, MaxY: 13},
	}, []string{"a", "c", "d"}))
	add(b.Add(geo.Rect{MinX: 2, MinY: 2, MaxX: 8, MaxY: 8}, nil))
	add(b.Add(geo.Rect{MinX: 3, MinY: 1, MaxX: 9, MaxY: 5}, []string{"d", "e"}))
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// cloneColumns deep-copies c so a test can damage one array.
func cloneColumns(c Columns) Columns {
	c.TermOff = slices.Clone(c.TermOff)
	c.Weights = slices.Clone(c.Weights)
	c.Regions = slices.Clone(c.Regions)
	c.TokOff = slices.Clone(c.TokOff)
	c.TokIDs = slices.Clone(c.TokIDs)
	c.IDs = slices.Clone(c.IDs)
	c.MultiIDs = slices.Clone(c.MultiIDs)
	c.MultiOff = slices.Clone(c.MultiOff)
	c.MultiRects = slices.Clone(c.MultiRects)
	return c
}

// TestColumnsRoundTrip: a dataset rebuilt from its own columns is the same
// dataset — same objects, same vocabulary and weights, same verification.
func TestColumnsRoundTrip(t *testing.T) {
	ds := columnsDataset(t)
	c, err := ds.Columns()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromColumns(cloneColumns(c))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ds.Len() || back.Space() != ds.Space() {
		t.Fatalf("round trip changed the dataset's shape: %d objects in %v", back.Len(), back.Space())
	}
	q, err := ds.NewQuery(geo.Rect{MinX: 1, MinY: 1, MaxX: 15, MaxY: 11}, []string{"a", "d", "zzz"}, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := back.NewQuery(q.Region, []string{"a", "d", "zzz"}, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Len(); i++ {
		id := ObjectID(i)
		if back.Region(id) != ds.Region(id) || !slices.Equal(back.Tokens(id), ds.Tokens(id)) ||
			back.TotalWeight(id) != ds.TotalWeight(id) || !slices.Equal(back.MultiRegion(id), ds.MultiRegion(id)) {
			t.Fatalf("object %d differs after the round trip", i)
		}
		if back.SimR(q2, id) != ds.SimR(q, id) || back.SimT(q2, id) != ds.SimT(q, id) {
			t.Fatalf("object %d verifies differently after the round trip", i)
		}
	}
	for tok := 0; tok < ds.Vocab().Len(); tok++ {
		id := text.TokenID(tok)
		if back.Vocab().Term(id) != ds.Vocab().Term(id) || back.TokenWeight(id) != ds.TokenWeight(id) {
			t.Fatalf("token %d differs after the round trip", tok)
		}
	}
	// The restored vocabulary sorts every token into the signature order:
	// descending weight, ties by ascending ID.
	sig := make([]text.TokenID, back.Vocab().Len())
	for i := range sig {
		sig[i] = text.TokenID(len(sig) - 1 - i)
	}
	ref := slices.Clone(sig)
	slices.SortFunc(ref, func(a, b text.TokenID) int {
		if wa, wb := ds.TokenWeight(a), ds.TokenWeight(b); wa != wb {
			return cmp.Compare(wb, wa)
		}
		return cmp.Compare(a, b)
	})
	if back.Vocab().SortBySignatureOrder(sig); !slices.Equal(sig, ref) {
		t.Fatalf("restored signature order %v, want %v", sig, ref)
	}
	// A permuted dataset round-trips its ID column: every object keeps its
	// ID, and its row its contents.
	p, err := ds.Permute([]ObjectID{3, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := p.Columns()
	if err != nil {
		t.Fatal(err)
	}
	pback, err := FromColumns(cloneColumns(pc))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Len(); i++ {
		id := ObjectID(i)
		row := pback.Row(id)
		if pback.ID(row) != id || row != p.Row(id) {
			t.Fatalf("object %d: row %d after the round trip, want %d", i, row, p.Row(id))
		}
		if pback.Region(row) != ds.Region(id) || !slices.Equal(pback.Tokens(row), ds.Tokens(id)) ||
			!slices.Equal(pback.MultiRegion(row), ds.MultiRegion(id)) || pback.SimT(q, row) != ds.SimT(q, id) {
			t.Fatalf("object %d differs after a permuted round trip", i)
		}
	}
}

// TestFromColumnsRejects: every structural violation of the flat form is an
// error, never a panic and never a dataset that would misbehave later.
func TestFromColumnsRejects(t *testing.T) {
	base, err := columnsDataset(t).Columns()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(c *Columns){
		"no objects":               func(c *Columns) { c.Regions = nil },
		"invalid region":           func(c *Columns) { c.Regions[0].MaxX = math.NaN() },
		"inverted region":          func(c *Columns) { c.Regions[0].MinX, c.Regions[0].MaxX = 5, 1 },
		"token offsets too short":  func(c *Columns) { c.TokOff = c.TokOff[:len(c.TokOff)-1] },
		"token offsets off zero":   func(c *Columns) { c.TokOff[0] = 1 },
		"token offsets not mono":   func(c *Columns) { c.TokOff[1], c.TokOff[2] = c.TokOff[2], c.TokOff[1]-1 },
		"token offsets past arena": func(c *Columns) { c.TokOff[len(c.TokOff)-1]++ },
		"token outside vocabulary": func(c *Columns) { c.TokIDs[0] = text.TokenID(len(c.Weights)) },
		"tokens not ascending":     func(c *Columns) { c.TokIDs[0], c.TokIDs[1] = c.TokIDs[1], c.TokIDs[0] },
		"duplicate token":          func(c *Columns) { c.TokIDs[1] = c.TokIDs[0] },
		"term offsets past blob":   func(c *Columns) { c.TermOff[len(c.TermOff)-1]++ },
		"term offsets not mono":    func(c *Columns) { c.TermOff[1] = c.TermOff[2] + 1 },
		"duplicate term":           func(c *Columns) { c.Terms = strings.Repeat("a", len(c.Terms)) },
		"weights too short":        func(c *Columns) { c.Weights = c.Weights[1:] },
		"negative weight":          func(c *Columns) { c.Weights[0] = -1 },
		"NaN weight":               func(c *Columns) { c.Weights[0] = math.NaN() },
		"infinite weight":          func(c *Columns) { c.Weights[0] = math.Inf(1) },
		"multi ID out of range":    func(c *Columns) { c.MultiIDs[0] = 99 },
		"multi offsets past arena": func(c *Columns) { c.MultiOff[1]++ },
		"multi offsets too short":  func(c *Columns) { c.MultiOff = c.MultiOff[:1] },
		"single-rect footprint":    func(c *Columns) { c.MultiRects, c.MultiOff[1] = c.MultiRects[:1], 1 },
		"invalid footprint rect":   func(c *Columns) { c.MultiRects[0].MinY = math.Inf(-1) },
		"footprint off its region": func(c *Columns) { c.MultiRects[1].MaxY++ },
		"ID column too short":      func(c *Columns) { c.IDs = []ObjectID{0, 1, 2} },
		"ID out of range":          func(c *Columns) { c.IDs = []ObjectID{0, 1, 2, 4} },
		"duplicate ID":             func(c *Columns) { c.IDs = []ObjectID{0, 1, 1, 3} },
		"IDs move a footprint":     func(c *Columns) { c.IDs = []ObjectID{1, 0, 2, 3} },
		"multi IDs not ascending": func(c *Columns) {
			c.MultiIDs = append(c.MultiIDs, c.MultiIDs[0])
			c.MultiRects = append(c.MultiRects, c.MultiRects...)
			c.MultiOff = append(c.MultiOff, uint32(len(c.MultiRects)))
		},
	}
	for name, damage := range cases {
		c := cloneColumns(base)
		damage(&c)
		if ds, err := FromColumns(c); err == nil {
			t.Errorf("%s: accepted (%d objects)", name, ds.Len())
		}
	}
	if _, err := FromColumns(cloneColumns(base)); err != nil {
		t.Fatalf("undamaged columns rejected: %v", err)
	}
}

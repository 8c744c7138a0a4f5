package model_test

import (
	"math"
	"testing"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
)

// lShape is two rectangles forming an L with a large empty notch.
var lShape = geo.RectSet{
	{MinX: 0, MinY: 0, MaxX: 10, MaxY: 2}, // horizontal bar, area 20
	{MinX: 0, MinY: 2, MaxX: 2, MaxY: 10}, // vertical bar, area 16
}

func buildMulti(t *testing.T) *model.Dataset {
	t.Helper()
	var b model.Builder
	if _, err := b.AddMulti(lShape, []string{"ell", "shape"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Add(geo.Rect{MinX: 50, MinY: 50, MaxX: 60, MaxY: 60}, []string{"box", "shape"}); err != nil {
		t.Fatal(err)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAddMultiValidation(t *testing.T) {
	var b model.Builder
	if _, err := b.AddMulti(nil, nil); err == nil {
		t.Error("empty region set should fail")
	}
	if _, err := b.AddMulti(geo.RectSet{{MinX: 1, MinY: 0, MaxX: 0, MaxY: 1}}, nil); err == nil {
		t.Error("invalid rect should fail")
	}
	// Single-rect set degrades to a plain object.
	if _, err := b.AddMulti(geo.RectSet{{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ds.MultiRegion(0) != nil {
		t.Error("single-rect AddMulti should not create a multi footprint")
	}
}

// TestMultiRegionExactSimilarity: a query inside the L's notch overlaps the
// MBR but not the union, so simR must be 0; the MBR view would say ~0.36.
func TestMultiRegionExactSimilarity(t *testing.T) {
	ds := buildMulti(t)
	if got := ds.MultiRegion(0); len(got) != 2 {
		t.Fatalf("MultiRegion = %v", got)
	}
	// Region(0) is the MBR of the union.
	if ds.Region(0) != (geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}) {
		t.Fatalf("MBR = %v", ds.Region(0))
	}
	notch, err := ds.NewQuery(geo.Rect{MinX: 4, MinY: 4, MaxX: 9, MaxY: 9}, []string{"ell"}, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.SimR(notch, 0); got != 0 {
		t.Fatalf("notch simR = %v, want 0 (query misses both bars)", got)
	}
	// A query over the horizontal bar: inter = 10x2 = 20 clipped to the bar.
	bar, err := ds.NewQuery(geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 2}, []string{"ell"}, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// union area = 20 + 16 = 36; inter = 20; union total = 36 + 20 - 20 = 36.
	want := 20.0 / 36.0
	if got := ds.SimR(bar, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("bar simR = %v, want %v", got, want)
	}
}

func TestMultiRegionDice(t *testing.T) {
	var b model.Builder
	b.SetSimilarity(model.SpaceDice, model.TextJaccard)
	if _, err := b.AddMulti(lShape, []string{"ell"}); err != nil {
		t.Fatal(err)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ds.NewQuery(geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 2}, []string{"ell"}, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Dice: 2*20 / (20 + 36).
	want := 40.0 / 56.0
	if got := ds.SimR(q, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Dice simR = %v, want %v", got, want)
	}
}

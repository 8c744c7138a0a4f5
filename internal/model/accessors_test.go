package model_test

import (
	"testing"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
)

func TestSimFnAccessors(t *testing.T) {
	var b model.Builder
	if _, err := b.Add(rect01(), []string{"x"}); err != nil {
		t.Fatal(err)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Weights()) != ds.Vocab().Len() {
		t.Fatalf("weights table length mismatch")
	}
	if b.Len() != 1 {
		t.Fatalf("builder Len = %d", b.Len())
	}
}

func rect01() geo.Rect {
	return geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
}

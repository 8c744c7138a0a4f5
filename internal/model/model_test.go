package model_test

import (
	"errors"
	"math"
	"testing"

	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/paperdata"
)

func buildPaper(t *testing.T) *model.Dataset {
	t.Helper()
	ds, err := paperdata.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDatasetBasics(t *testing.T) {
	ds := buildPaper(t)
	if ds.Len() != 7 {
		t.Fatalf("Len = %d, want 7", ds.Len())
	}
	if got := ds.Space(); got != (geo.Rect{MinX: 0, MinY: 0, MaxX: 120, MaxY: 120}) {
		t.Fatalf("Space = %v, want [0,0|120,120]", got)
	}
	if got := ds.Area(1); got != 1750 {
		t.Fatalf("Area(o2) = %v, want 1750", got)
	}
	// o2 = {mocha, coffee, starbucks}: total weight 0.8+0.3+0.8 = 1.9.
	if got := ds.TotalWeight(1); math.Abs(got-1.9) > 1e-12 {
		t.Fatalf("TotalWeight(o2) = %v, want 1.9", got)
	}
}

// TestPaperExample1 verifies Example 1 end to end: o2 is the only answer.
func TestPaperExample1(t *testing.T) {
	ds := buildPaper(t)
	q, err := paperdata.Query(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: simR(q,o2) = 0.32 ≥ 0.25 and simT(q,o2) = 1 ≥ 0.3.
	if got := ds.SimR(q, 1); math.Abs(got-1000.0/3150.0) > 1e-12 {
		t.Errorf("simR(q,o2) = %v, want %v", got, 1000.0/3150.0)
	}
	if got := ds.SimT(q, 1); got != 1 {
		t.Errorf("simT(q,o2) = %v, want 1", got)
	}
	// Paper: simR(q,o1) = 0.23 < 0.25 although simT(q,o1) = 0.58 ≥ 0.3.
	if got := ds.SimR(q, 0); math.Abs(got-1000.0/4400.0) > 1e-12 {
		t.Errorf("simR(q,o1) = %v, want %v", got, 1000.0/4400.0)
	}
	if got := ds.SimT(q, 0); math.Abs(got-1.1/1.9) > 1e-12 {
		t.Errorf("simT(q,o1) = %v, want %v", got, 1.1/1.9)
	}
	var answers []model.ObjectID
	for id := model.ObjectID(0); int(id) < ds.Len(); id++ {
		if ds.Matches(q, id) {
			answers = append(answers, id)
		}
	}
	if len(answers) != 1 || answers[0] != 1 {
		t.Fatalf("answers = %v, want [1] (o2)", answers)
	}
}

func TestQueryValidation(t *testing.T) {
	ds := buildPaper(t)
	if _, err := ds.NewQuery(paperdata.QueryRegion, paperdata.QueryTerms, 0, 0.3); !errors.Is(err, model.ErrThreshold) {
		t.Errorf("tauR=0 should be rejected, got %v", err)
	}
	if _, err := ds.NewQuery(paperdata.QueryRegion, paperdata.QueryTerms, 0.3, 1.5); !errors.Is(err, model.ErrThreshold) {
		t.Errorf("tauT>1 should be rejected, got %v", err)
	}
	if _, err := ds.NewQuery(paperdata.QueryRegion, paperdata.QueryTerms, math.NaN(), 0.3); !errors.Is(err, model.ErrThreshold) {
		t.Errorf("tauR=NaN should be rejected, got %v", err)
	}
	if _, err := ds.NewQuery(paperdata.QueryRegion, paperdata.QueryTerms, 0.3, math.NaN()); !errors.Is(err, model.ErrThreshold) {
		t.Errorf("tauT=NaN should be rejected, got %v", err)
	}
	bad := geo.Rect{MinX: 10, MinY: 0, MaxX: 0, MaxY: 10}
	if _, err := ds.NewQuery(bad, paperdata.QueryTerms, 0.3, 0.3); err == nil {
		t.Errorf("inverted region should be rejected")
	}
}

func TestUnknownQueryTerms(t *testing.T) {
	ds := buildPaper(t)
	q, err := ds.NewQuery(paperdata.QueryRegion, []string{"mocha", "nosuchterm", "nosuchterm"}, 0.3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tokens) != 1 {
		t.Fatalf("known tokens = %v, want 1 entry", q.Tokens)
	}
	wantUnknown := math.Log(7) // one distinct unknown term at max idf
	if math.Abs(q.UnknownWeight-wantUnknown) > 1e-12 {
		t.Fatalf("UnknownWeight = %v, want %v", q.UnknownWeight, wantUnknown)
	}
	// The unknown term dilutes similarity: o1 = {mocha, coffee}.
	// common = 0.8; union = (0.8 + ln7) + 1.1 - 0.8.
	want := 0.8 / (0.8 + wantUnknown + 1.1 - 0.8)
	if got := ds.SimT(q, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("SimT with unknown term = %v, want %v", got, want)
	}
}

func TestEmptyDataset(t *testing.T) {
	var b model.Builder
	if _, err := b.Build(); err == nil {
		t.Fatal("empty dataset should not build")
	}
}

func TestBuilderInvalidRegion(t *testing.T) {
	var b model.Builder
	if _, err := b.Add(geo.Rect{MinX: 1, MinY: 0, MaxX: 0, MaxY: 1}, nil); err == nil {
		t.Fatal("invalid region should be rejected")
	}
}

func TestBuildWithVocabMissingToken(t *testing.T) {
	vocabTerms := []string{"a"}
	weights := []float64{1.0}
	var b model.Builder
	if _, err := b.Add(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	vocab, err := textVocab(vocabTerms, weights)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.BuildWithVocab(vocab); err == nil {
		t.Fatal("missing token should fail BuildWithVocab")
	}
}

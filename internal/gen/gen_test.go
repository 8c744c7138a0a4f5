package gen

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sealdb/seal/internal/model"
)

func TestTwitterStatistics(t *testing.T) {
	ds, err := Twitter(TwitterConfig{N: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 4000 {
		t.Fatalf("N = %d", ds.Len())
	}
	var areaSum, tokSum float64
	quantiles := map[float64]int{1e-4: 0, 1e-2: 0, 1: 0, 100: 0}
	for i := 0; i < ds.Len(); i++ {
		id := model.ObjectID(i)
		a := ds.Area(id)
		areaSum += a
		tokSum += float64(len(ds.Tokens(id)))
		for q := range quantiles {
			if a <= q {
				quantiles[q]++
			}
		}
	}
	meanArea := areaSum / float64(ds.Len())
	// Paper: average 115 km². Allow generous sampling tolerance.
	if meanArea < 70 || meanArea > 170 {
		t.Errorf("mean region area = %.1f km², want ≈115", meanArea)
	}
	meanTok := tokSum / float64(ds.Len())
	if meanTok < 12 || meanTok > 16.5 {
		t.Errorf("mean tokens = %.2f, want ≈14.3", meanTok)
	}
	// Quantile shape (paper: 4.4%, 15.4%, 29.7%, 73%).
	n := float64(ds.Len())
	checks := []struct {
		q        float64
		lo, hi   float64
		paperPct float64
	}{
		{1e-4, 0.02, 0.08, 4.4},
		{1e-2, 0.10, 0.21, 15.4},
		{1, 0.24, 0.36, 29.7},
		{100, 0.65, 0.81, 73},
	}
	for _, c := range checks {
		frac := float64(quantiles[c.q]) / n
		if frac < c.lo || frac > c.hi {
			t.Errorf("P(area ≤ %g) = %.3f, want ≈%.3f", c.q, frac, c.paperPct/100)
		}
	}
	// World size.
	if ds.Space().Area() > twitterSide*twitterSide*1.01 {
		t.Errorf("space area too large: %g", ds.Space().Area())
	}
}

func TestUSAStatistics(t *testing.T) {
	ds, err := USA(USAConfig{N: 4000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var areaSum, tokSum float64
	for i := 0; i < ds.Len(); i++ {
		id := model.ObjectID(i)
		areaSum += ds.Area(id)
		tokSum += float64(len(ds.Tokens(id)))
	}
	meanArea := areaSum / float64(ds.Len())
	if meanArea < 3 || meanArea > 9 {
		t.Errorf("mean region area = %.2f km², want ≈5.4", meanArea)
	}
	meanTok := tokSum / float64(ds.Len())
	if meanTok < 10.5 || meanTok > 14.5 {
		t.Errorf("mean tokens = %.2f, want ≈12.5", meanTok)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, err := Twitter(TwitterConfig{N: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Twitter(TwitterConfig{N: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		id := model.ObjectID(i)
		if a.Region(id) != b.Region(id) {
			t.Fatalf("object %d regions differ", i)
		}
		at, bt := a.Tokens(id), b.Tokens(id)
		if len(at) != len(bt) {
			t.Fatalf("object %d token counts differ", i)
		}
		for j := range at {
			if a.Vocab().Term(at[j]) != b.Vocab().Term(bt[j]) {
				t.Fatalf("object %d token %d differs", i, j)
			}
		}
	}
	c, err := Twitter(TwitterConfig{N: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < c.Len() && same; i++ {
		if a.Region(model.ObjectID(i)) != c.Region(model.ObjectID(i)) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical regions")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Twitter(TwitterConfig{N: 0}); err == nil {
		t.Error("N=0 should fail")
	}
	if _, err := USA(USAConfig{N: -1}); err == nil {
		t.Error("N<0 should fail")
	}
}

func TestQueryWorkloads(t *testing.T) {
	ds, err := Twitter(TwitterConfig{N: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Queries(ds, LargeRegionConfig(200, 4))
	if err != nil {
		t.Fatal(err)
	}
	small, err := Queries(ds, SmallRegionConfig(200, 5))
	if err != nil {
		t.Fatal(err)
	}
	stats := func(specs []QuerySpec) (meanArea, meanTok float64) {
		for _, s := range specs {
			meanArea += s.Region.Area()
			meanTok += float64(len(s.Terms))
		}
		n := float64(len(specs))
		return meanArea / n, meanTok / n
	}
	la, lt := stats(large)
	if la < 300 || la > 900 {
		t.Errorf("large-region mean area = %.1f, want ≈554", la)
	}
	if lt < 5.5 || lt > 8.5 {
		t.Errorf("large-region mean tokens = %.2f, want ≈7", lt)
	}
	sa, st := stats(small)
	if sa < 0.2 || sa > 0.8 {
		t.Errorf("small-region mean area = %.3f, want ≈0.44", sa)
	}
	if st < 11 || st > 15 {
		t.Errorf("small-region mean tokens = %.2f, want ≈12.9", st)
	}
	// Specs compile against the dataset.
	q, err := large[0].Compile(ds, 0.4, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if q.TauR != 0.4 || q.TauT != 0.4 {
		t.Fatalf("compiled thresholds wrong: %+v", q)
	}
	// Queries stay inside the space.
	for _, s := range append(large, small...) {
		if !ds.Space().Contains(s.Region) {
			t.Fatalf("query region %v escapes the space", s.Region)
		}
		if len(s.Terms) == 0 {
			t.Fatalf("query with no terms")
		}
	}
}

func TestQueriesValidation(t *testing.T) {
	ds, err := Twitter(TwitterConfig{N: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Queries(ds, QueryConfig{N: 0, MeanArea: 1, MeanTokens: 1}); err == nil {
		t.Error("N=0 should fail")
	}
	if _, err := Queries(ds, QueryConfig{N: 1, MeanArea: 0, MeanTokens: 1}); err == nil {
		t.Error("MeanArea=0 should fail")
	}
}

func TestWordFor(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		w := WordFor(i)
		if w == "" {
			t.Fatalf("empty word for rank %d", i)
		}
		if seen[w] {
			t.Fatalf("duplicate word %q for rank %d", w, i)
		}
		seen[w] = true
	}
}

func TestSampleAreaFromKnotsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		a := sampleAreaFromKnots(rng, twitterAreaKnots)
		if a < math.Pow(10, -5)-1e-12 || a > 1000+1e-9 {
			t.Fatalf("area %g outside [1e-5, 1000]", a)
		}
	}
}

// BenchmarkTwitter generates Twitter{N: 50000, Seed: 42}: the shard rung's
// corpus, and the dataset the benchmark's setup generates.
//
//	GOMAXPROCS=1 go test -run '^$' -bench Twitter -count 10 ./internal/gen
func BenchmarkTwitter(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Twitter(TwitterConfig{N: 50000, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

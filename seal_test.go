package seal_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	seal "github.com/sealdb/seal"
)

// paperObjects is the Figure 1 running example of the paper.
func paperObjects() []seal.Object {
	return []seal.Object{
		{Region: seal.Rect{MinX: 50, MinY: 30, MaxX: 110, MaxY: 80}, Tokens: []string{"mocha", "coffee"}},
		{Region: seal.Rect{MinX: 15, MinY: 20, MaxX: 85, MaxY: 45}, Tokens: []string{"mocha", "coffee", "starbucks"}},
		{Region: seal.Rect{MinX: 5, MinY: 80, MaxX: 40, MaxY: 115}, Tokens: []string{"starbucks", "ice", "tea"}},
		{Region: seal.Rect{MinX: 85, MinY: 5, MaxX: 115, MaxY: 40}, Tokens: []string{"coffee", "starbucks", "tea"}},
		{Region: seal.Rect{MinX: 76, MinY: 2, MaxX: 88, MaxY: 46}, Tokens: []string{"mocha", "coffee", "tea"}},
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 28, MaxY: 38}, Tokens: []string{"coffee", "ice"}},
		{Region: seal.Rect{MinX: 80, MinY: 85, MaxX: 120, MaxY: 120}, Tokens: []string{"tea"}},
	}
}

// answer runs req through Query and returns just the matches.
func answer(ix *seal.Index, req seal.Request) ([]seal.Match, error) {
	res, err := ix.Query(context.Background(), req)
	if err != nil {
		return nil, err
	}
	return res.Matches, nil
}

func paperQuery() seal.Request {
	return seal.Request{
		Region: seal.Rect{MinX: 35, MinY: 10, MaxX: 75, MaxY: 70},
		Tokens: []string{"mocha", "coffee", "starbucks"},
		TauR:   0.25,
		TauT:   0.3,
	}
}

var allMethods = []seal.Method{
	seal.MethodSeal, seal.MethodTokenFilter, seal.MethodGridFilter, seal.MethodHybridHash,
}

// TestPaperExampleAllMethods: every method answers Example 1 with exactly
// {o2} (index 1).
func TestPaperExampleAllMethods(t *testing.T) {
	for _, m := range allMethods {
		ix, err := seal.Build(paperObjects(), seal.WithMethod(m), seal.WithGranularity(4))
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		matches, err := answer(ix, paperQuery())
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		if len(matches) != 1 || matches[0].ID != 1 {
			t.Fatalf("method %s: matches = %v, want [o2]", ix.Stats().Method, matches)
		}
		if matches[0].SimT != 1 {
			t.Errorf("method %s: simT = %v, want 1", ix.Stats().Method, matches[0].SimT)
		}
		if math.Abs(matches[0].SimR-1000.0/3150.0) > 1e-12 {
			t.Errorf("method %s: simR = %v, want 0.317", ix.Stats().Method, matches[0].SimR)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := seal.Build(nil); !errors.Is(err, seal.ErrEmptyIndex) {
		t.Errorf("empty build = %v, want ErrEmptyIndex", err)
	}
	bad := []seal.Object{{Region: seal.Rect{MinX: 1, MinY: 0, MaxX: 0, MaxY: 1}}}
	if _, err := seal.Build(bad); err == nil {
		t.Error("inverted region should fail")
	}
}

func TestSearchValidation(t *testing.T) {
	ix, err := seal.Build(paperObjects())
	if err != nil {
		t.Fatal(err)
	}
	q := paperQuery()
	q.TauR = 0
	if _, err := answer(ix, q); err == nil {
		t.Error("tauR = 0 should fail")
	}
	q = paperQuery()
	q.TauT = 1.5
	if _, err := answer(ix, q); err == nil {
		t.Error("tauT > 1 should fail")
	}
}

func TestStatsAndAccessors(t *testing.T) {
	ix, err := seal.Build(paperObjects())
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Objects != 7 || st.Vocabulary != 5 {
		t.Errorf("stats = %+v", st)
	}
	if st.Method != "Seal" || st.IndexBytes <= 0 {
		t.Errorf("stats = %+v", st)
	}
	if ix.Len() != 7 {
		t.Errorf("Len = %d", ix.Len())
	}
	// idf of "coffee": ln(7/5).
	w, ok := ix.TokenWeight("coffee")
	if !ok || math.Abs(w-math.Log(7.0/5)) > 1e-12 {
		t.Errorf("TokenWeight(coffee) = %v, %v", w, ok)
	}
	if _, ok := ix.TokenWeight("nope"); ok {
		t.Error("unknown token should report !ok")
	}

	res, err := ix.Query(context.Background(), paperQuery(), seal.CollectStats())
	if err != nil {
		t.Fatal(err)
	}
	if qstats := res.Stats; qstats.Results != 1 || qstats.Candidates < 1 {
		t.Errorf("query stats = %+v", qstats)
	}
}

func TestSimilarity(t *testing.T) {
	ix, err := seal.Build(paperObjects())
	if err != nil {
		t.Fatal(err)
	}
	simR, simT, err := ix.Similarity(paperQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(simR-1000.0/4400.0) > 1e-12 {
		t.Errorf("simR(o1) = %v, want 0.227", simR)
	}
	// With idf weights: common = w(mocha)+w(coffee), union adds w(starbucks).
	want := (math.Log(7.0/3) + math.Log(7.0/5)) / (math.Log(7.0/3) + math.Log(7.0/5) + math.Log(7.0/3))
	if math.Abs(simT-want) > 1e-12 {
		t.Errorf("simT(o1) = %v, want %v", simT, want)
	}
	if _, _, err := ix.Similarity(paperQuery(), 99); err == nil {
		t.Error("out-of-range ID should fail")
	}
}

// TestCustomWeights reproduces the paper's rounded weights via
// WithTokenWeights, making simT(q,o1) exactly 1.1/1.9.
func TestCustomWeights(t *testing.T) {
	weights := map[string]float64{
		"mocha": 0.8, "coffee": 0.3, "starbucks": 0.8, "ice": 1.3, "tea": 0.6,
	}
	ix, err := seal.Build(paperObjects(), seal.WithTokenWeights(weights))
	if err != nil {
		t.Fatal(err)
	}
	_, simT, err := ix.Similarity(paperQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(simT-1.1/1.9) > 1e-12 {
		t.Errorf("simT = %v, want %v", simT, 1.1/1.9)
	}
	// Missing token in the weight map fails the build.
	delete(weights, "tea")
	if _, err := seal.Build(paperObjects(), seal.WithTokenWeights(weights)); err == nil {
		t.Error("missing weight should fail build")
	}
}

// TestMethodsAgree: every method returns the brute-force answer on random
// data.
func TestMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	objects := randomObjects(rng, 300)
	oracle := newOracle(t, objects)
	indexes := make([]*seal.Index, 0, len(allMethods))
	for _, m := range allMethods {
		ix, err := seal.Build(objects, seal.WithMethod(m), seal.WithGranularity(64),
			seal.WithMaxLevel(6), seal.WithGridBudget(16))
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		indexes = append(indexes, ix)
	}
	for qi := 0; qi < 30; qi++ {
		q := randomQuery(rng, objects)
		want := oracle.threshold(t, q)
		for _, ix := range indexes {
			got, err := answer(ix, q)
			if err != nil {
				t.Fatal(err)
			}
			requireSameMatches(t, fmt.Sprintf("q%d %s", qi, ix.Stats().Method), got, want)
		}
	}
}

func TestConcurrentSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objects := randomObjects(rng, 400)
	ix, err := seal.Build(objects)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]seal.Request, 50)
	expected := make([][]seal.Match, 50)
	for i := range queries {
		queries[i] = randomQuery(rng, objects)
		expected[i], err = answer(ix, queries[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(queries))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				got, err := answer(ix, q)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, expected[i]) {
					errs <- errors.New("concurrent search mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestAutoGranularity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	objects := randomObjects(rng, 300)
	sample := make([]seal.Request, 10)
	for i := range sample {
		sample[i] = randomQuery(rng, objects)
	}
	ix, err := seal.Build(objects, seal.WithAutoGranularity(sample, 6, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	// Auto-granularity indexes with a grid filter at the chosen P.
	if got := ix.Stats().Method; got == "Seal" {
		t.Fatalf("auto granularity should select a grid filter, got %s", got)
	}
	// The index still answers exactly.
	oracle := newOracle(t, objects)
	for qi := 0; qi < 20; qi++ {
		q := randomQuery(rng, objects)
		got, err := answer(ix, q)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatches(t, fmt.Sprintf("auto-granularity q%d", qi), got, oracle.threshold(t, q))
	}
}

func randomObjects(rng *rand.Rand, n int) []seal.Object {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta",
		"eta", "theta", "iota", "kappa", "lambda", "mu", "nu", "xi", "omicron"}
	objs := make([]seal.Object, n)
	for i := range objs {
		x, y := rng.Float64()*900, rng.Float64()*900
		w, h := rng.Float64()*60+1, rng.Float64()*60+1
		var toks []string
		for _, word := range words {
			if rng.Intn(4) == 0 {
				toks = append(toks, word)
			}
		}
		if len(toks) == 0 {
			toks = []string{words[rng.Intn(len(words))]}
		}
		objs[i] = seal.Object{Region: seal.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, Tokens: toks}
	}
	return objs
}

func randomQuery(rng *rand.Rand, objects []seal.Object) seal.Request {
	anchor := objects[rng.Intn(len(objects))]
	cx := (anchor.Region.MinX + anchor.Region.MaxX) / 2
	cy := (anchor.Region.MinY + anchor.Region.MaxY) / 2
	w, h := rng.Float64()*80+1, rng.Float64()*80+1
	toks := append([]string(nil), anchor.Tokens...)
	taus := []float64{0.1, 0.3, 0.5}
	return seal.Request{
		Region: seal.Rect{MinX: cx - w/2, MinY: cy - h/2, MaxX: cx + w/2, MaxY: cy + h/2},
		Tokens: toks,
		TauR:   taus[rng.Intn(len(taus))],
		TauT:   taus[rng.Intn(len(taus))],
	}
}

package seal_test

import (
	"context"
	"fmt"
	"log"

	seal "github.com/sealdb/seal"
)

// Example indexes the paper's running example (Figure 1) and runs its query:
// coffee-related user profiles, one of which is both spatially and textually
// similar to the query region.
func Example() {
	objects := []seal.Object{
		{Region: seal.Rect{MinX: 50, MinY: 30, MaxX: 110, MaxY: 80}, Tokens: []string{"mocha", "coffee"}},
		{Region: seal.Rect{MinX: 15, MinY: 20, MaxX: 85, MaxY: 45}, Tokens: []string{"mocha", "coffee", "starbucks"}},
		{Region: seal.Rect{MinX: 5, MinY: 80, MaxX: 40, MaxY: 115}, Tokens: []string{"starbucks", "ice", "tea"}},
		{Region: seal.Rect{MinX: 85, MinY: 5, MaxX: 115, MaxY: 40}, Tokens: []string{"coffee", "starbucks", "tea"}},
		{Region: seal.Rect{MinX: 76, MinY: 2, MaxX: 88, MaxY: 46}, Tokens: []string{"mocha", "coffee", "tea"}},
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 28, MaxY: 38}, Tokens: []string{"coffee", "ice"}},
		{Region: seal.Rect{MinX: 80, MinY: 85, MaxX: 120, MaxY: 120}, Tokens: []string{"tea"}},
	}
	ix, err := seal.Build(objects)
	if err != nil {
		log.Fatal(err)
	}
	res, err := ix.Query(context.Background(), seal.Request{
		Region: seal.Rect{MinX: 35, MinY: 10, MaxX: 75, MaxY: 70},
		Tokens: []string{"mocha", "coffee", "starbucks"},
		TauR:   0.25,
		TauT:   0.3,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range res.Matches {
		fmt.Printf("object %d: simR=%.2f simT=%.2f\n", m.ID, m.SimR, m.SimT)
	}
	// Output:
	// object 1: simR=0.32 simT=1.00
}

// ExampleWithMethod compares the same search under two different filters;
// every method returns identical answers.
func ExampleWithMethod() {
	// Note: a token occurring in every object has idf weight ln(1) = 0 and
	// cannot contribute textual similarity, so the corpus below keeps every
	// token out of at least one object.
	objects := []seal.Object{
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, Tokens: []string{"park", "dog"}},
		{Region: seal.Rect{MinX: 2, MinY: 2, MaxX: 12, MaxY: 12}, Tokens: []string{"park", "dog", "run"}},
		{Region: seal.Rect{MinX: 50, MinY: 50, MaxX: 60, MaxY: 60}, Tokens: []string{"park"}},
		{Region: seal.Rect{MinX: 80, MinY: 80, MaxX: 90, MaxY: 90}, Tokens: []string{"shop"}},
	}
	q := seal.Request{
		Region: seal.Rect{MinX: 1, MinY: 1, MaxX: 11, MaxY: 11},
		Tokens: []string{"park", "dog"},
		TauR:   0.3, TauT: 0.3,
	}
	for _, m := range []seal.Method{seal.MethodSeal, seal.MethodTokenFilter} {
		ix, err := seal.Build(objects, seal.WithMethod(m))
		if err != nil {
			log.Fatal(err)
		}
		res, err := ix.Query(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s found %d matches\n", ix.Stats().Method, len(res.Matches))
	}
	// Output:
	// Seal found 2 matches
	// TokenFilter found 2 matches
}

// ExampleCollectStats shows the filter/verification cost breakdown that
// mirrors the paper's experimental methodology.
func ExampleCollectStats() {
	objects := []seal.Object{
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, Tokens: []string{"cafe"}},
		{Region: seal.Rect{MinX: 1, MinY: 1, MaxX: 5, MaxY: 5}, Tokens: []string{"cafe", "wifi"}},
		{Region: seal.Rect{MinX: 50, MinY: 50, MaxX: 54, MaxY: 54}, Tokens: []string{"bar"}},
	}
	ix, err := seal.Build(objects, seal.WithMethod(seal.MethodTokenFilter))
	if err != nil {
		log.Fatal(err)
	}
	res, err := ix.Query(context.Background(), seal.Request{
		Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 4.5, MaxY: 4.5},
		Tokens: []string{"cafe", "wifi"},
		TauR:   0.5, TauT: 0.2,
	}, seal.CollectStats())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matches=%d candidates=%d\n", len(res.Matches), res.Stats.Candidates)
	// Output:
	// matches=2 candidates=2
}

// ExampleIndex_Query_ranked ranks objects by a combined similarity score
// instead of filtering by fixed thresholds.
func ExampleIndex_Query_ranked() {
	objects := []seal.Object{
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, Tokens: []string{"cafe", "wifi"}},
		{Region: seal.Rect{MinX: 2, MinY: 2, MaxX: 12, MaxY: 12}, Tokens: []string{"cafe"}},
		{Region: seal.Rect{MinX: 40, MinY: 40, MaxX: 50, MaxY: 50}, Tokens: []string{"bar"}},
	}
	ix, err := seal.Build(objects)
	if err != nil {
		log.Fatal(err)
	}
	top, err := ix.Query(context.Background(), seal.Request{
		Region: seal.Rect{MinX: 1, MinY: 1, MaxX: 11, MaxY: 11},
		Tokens: []string{"cafe", "wifi"},
		K:      2,
		Alpha:  0.5, // equal weight to spatial and textual similarity
	})
	if err != nil {
		log.Fatal(err)
	}
	for rank, m := range top.Matches {
		fmt.Printf("#%d object %d\n", rank+1, m.ID)
	}
	// Output:
	// #1 object 0
	// #2 object 1
}

// ExampleIndex_QueryBatch answers several queries concurrently.
func ExampleIndex_QueryBatch() {
	objects := []seal.Object{
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, Tokens: []string{"park"}},
		{Region: seal.Rect{MinX: 10, MinY: 10, MaxX: 14, MaxY: 14}, Tokens: []string{"lake"}},
		{Region: seal.Rect{MinX: 30, MinY: 30, MaxX: 44, MaxY: 44}, Tokens: []string{"park", "lake"}},
	}
	ix, err := seal.Build(objects)
	if err != nil {
		log.Fatal(err)
	}
	queries := []seal.Request{
		{Region: seal.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}, Tokens: []string{"park"}, TauR: 0.5, TauT: 0.5},
		{Region: seal.Rect{MinX: 10, MinY: 10, MaxX: 14, MaxY: 14}, Tokens: []string{"lake"}, TauR: 0.5, TauT: 0.5},
	}
	for i, br := range ix.QueryBatch(context.Background(), queries) {
		if br.Err != nil {
			log.Fatal(br.Err)
		}
		fmt.Printf("query %d: %d match(es)\n", i, len(br.Results.Matches))
	}
	// Output:
	// query 0: 1 match(es)
	// query 1: 1 match(es)
}

// Package paperdata reconstructs the running example of the SEAL paper
// (Figure 1): seven spatio-textual objects o1..o7 in a 120x120 space with
// five tokens t1..t5, and the query q = (Rq, {t1,t2,t3}, 0.25, 0.3).
//
// The geometry was reverse-engineered so that every number the paper states
// about the example holds exactly:
//
//   - |q.R| = 2400, so cR = tauR * |q.R| = 600;
//   - |q.R ∩ o1.R| = 1000 and |q.R ∪ o1.R| = 4400, so simR(q,o1) ≈ 0.23 < 0.25;
//   - simR(q,o2) = 1000/3150 ≈ 0.32 ≥ 0.25;
//   - on the 4x4 uniform grid, w(g|q) = {g6:250, g7:150, g10:750, g11:450,
//     g14:500, g15:300} and w(g|o2) = {g9:225, g10:450, g11:375, g13:150,
//     g14:300, g15:250} (Figure 5), giving sim(SR(q),SR(o2)) = 1375 ≥ 600;
//   - o5 shares grid cells with q but does not intersect q.R (Section 4.3's
//     motivating false positive);
//   - with the paper's rounded token weights, cT = 0.3 * 1.9 = 0.57 and the
//     textual filter produces candidates {o1..o5} (Example 2), while the
//     final answer is exactly {o2} (Example 1).
//
// The regions of o3, o4, o6 and o7 are only sketched in the paper's figure;
// here they are fixed to concrete rectangles that preserve every stated
// relationship (disjoint from q, and an overall space MBR of [0,120]^2 so
// the 4x4 grid matches the figure's cells g1..g16).
package paperdata

import (
	"github.com/sealdb/seal/internal/geo"
	"github.com/sealdb/seal/internal/model"
	"github.com/sealdb/seal/internal/text"
)

// Terms t1..t5 with the paper's rounded idf weights.
var (
	Terms   = []string{"mocha", "coffee", "starbucks", "ice", "tea"}
	Weights = []float64{0.8, 0.3, 0.8, 1.3, 0.6}
)

// Regions of o1..o7, in paper order.
var Regions = []geo.Rect{
	{MinX: 50, MinY: 30, MaxX: 110, MaxY: 80},  // o1: area 3000, ∩q = 1000
	{MinX: 15, MinY: 20, MaxX: 85, MaxY: 45},   // o2: area 1750, ∩q = 1000
	{MinX: 5, MinY: 80, MaxX: 40, MaxY: 115},   // o3: top-left, disjoint from q
	{MinX: 85, MinY: 5, MaxX: 115, MaxY: 40},   // o4: right of q, disjoint (x ≥ 85 > 75)
	{MinX: 76, MinY: 2, MaxX: 88, MaxY: 46},    // o5: shares g11/g15 with q, disjoint from q
	{MinX: 0, MinY: 0, MaxX: 28, MaxY: 38},     // o6: left of q, disjoint (x ≤ 28 < 35)
	{MinX: 80, MinY: 85, MaxX: 120, MaxY: 120}, // o7: top-right corner, disjoint
}

// TokenSets of o1..o7 (Figure 1).
var TokenSets = [][]string{
	{"mocha", "coffee"},
	{"mocha", "coffee", "starbucks"},
	{"starbucks", "ice", "tea"},
	{"coffee", "starbucks", "tea"},
	{"mocha", "coffee", "tea"},
	{"coffee", "ice"},
	{"tea"},
}

// Query parameters.
var (
	QueryRegion = geo.Rect{MinX: 35, MinY: 10, MaxX: 75, MaxY: 70} // area 2400
	QueryTerms  = []string{"mocha", "coffee", "starbucks"}
	TauR        = 0.25
	TauT        = 0.3
)

// AnswerIDs is the expected result of the query: {o2}, i.e. object index 1.
var AnswerIDs = []model.ObjectID{1}

// Dataset builds the Figure 1 dataset with the paper's rounded token
// weights (so thresholds like cT = 0.57 come out exactly).
func Dataset() (*model.Dataset, error) {
	vocab, err := text.NewWithWeights(Terms, Weights)
	if err != nil {
		return nil, err
	}
	var b model.Builder
	for i, r := range Regions {
		if _, err := b.Add(r, TokenSets[i]); err != nil {
			return nil, err
		}
	}
	return b.BuildWithVocab(vocab)
}

// Query compiles the paper's query against ds.
func Query(ds *model.Dataset) (*model.Query, error) {
	return ds.NewQuery(QueryRegion, QueryTerms, TauR, TauT)
}

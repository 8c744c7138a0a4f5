package gridsig

// This file implements the probabilistic cost model of Section 4.3, used to
// select the grid granularity. The expected query cost of a grid set G is
//
//	cost(G) = π1 · Σ_g P(g)·|I(g)| + π2 · |C|,
//
// where P(g) is the probability that a workload query touches cell g,
// |I(g)| is the cell's inverted-list length, π1 is the per-posting retrieval
// cost, π2 the per-candidate verification cost, and |C| the average
// candidate count. Both terms are measured by the caller over a sample
// workload (core.SelectGranularity; the paper likewise treats |C| as hard to
// estimate and evaluates it empirically); this file holds the constants and
// combines the terms.

// CostModel carries the calibration constants π1 and π2.
type CostModel struct {
	Pi1 float64 // cost of retrieving one posting and merging it
	Pi2 float64 // cost of verifying one candidate
}

// DefaultCostModel reflects that verification (two exact similarity
// computations, one of them a token-set merge) costs roughly five posting
// retrievals.
var DefaultCostModel = CostModel{Pi1: 1, Pi2: 5}

// Cost combines the filter term with the average candidate count per the
// cost model.
func (m CostModel) Cost(filterTerm, avgCandidates float64) float64 {
	return m.Pi1*filterTerm + m.Pi2*avgCandidates
}

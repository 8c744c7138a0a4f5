package main

import (
	"math"
	"slices"
)

// quantile returns the p-quantile of sorted by linear interpolation between
// the closest ranks (the rule numpy.percentile uses by default).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// quartiles returns the first quartile, median and third quartile of xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// signTest is the two-sided exact sign test: the probability, under a fair
// coin, of a split of lower+higher untied pairs at least as uneven as the
// one observed. Ties do not count; no untied pair gives 1.
func signTest(lower, higher int) float64 {
	n := lower + higher
	k := min(lower, higher)
	// Sum C(n, i) / 2^n for i <= k in log space, so n in the hundreds stays finite.
	var tail float64
	for i := 0; i <= k; i++ {
		tail += math.Exp(logChoose(n, i) - float64(n)*math.Ln2)
	}
	return min(1, 2*tail)
}

func logChoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

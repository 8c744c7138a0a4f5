package invidx

// This file implements the prefix-selection rule of Lemma 2: given a
// signature sorted in the global element order with element weights
// w(s_1..s_n), the prefix keeps the elements s_i whose suffix weight sum
// Σ_{j≥i} w(s_j) is at least the similarity threshold c. Equivalently,
// p = min{i : Σ_{j>i} w(s_j) < c}.

// Eps is the relative slack applied to threshold comparisons on the filter
// side. Derived thresholds like cR = τR·|q.R| are products of floats; a hair
// of slack keeps the filters complete (no false negatives) under rounding
// while never affecting the exact verification step.
const Eps = 1e-9

// PrefixLen returns the number of leading elements in the prefix for
// threshold c, given the signature's weights in global order. A result of 0
// means the total weight is below c, so nothing can reach the threshold.
func PrefixLen(weights []float64, c float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	slack := c - Eps*(1+c)
	// Walk forward: element i (0-based) stays in the prefix while the suffix
	// sum starting at i is >= c.
	suffix := total
	for i, w := range weights {
		if suffix < slack {
			return i
		}
		suffix -= w
	}
	return len(weights)
}

// SuffixBounds fills bounds[i] with the suffix sum Σ_{j≥i} weights[j] —
// the threshold bounds of Lemma 3 to be stored with each posting.
// bounds must have the same length as weights, and may be weights itself:
// SuffixBounds(w, w) turns w into its bounds in place.
func SuffixBounds(weights, bounds []float64) {
	var suffix float64
	for i := len(weights) - 1; i >= 0; i-- {
		suffix += weights[i]
		bounds[i] = suffix
	}
}

// Slack returns the fp-tolerant comparison value for threshold c: filters
// retrieve postings with bound >= Slack(c).
func Slack(c float64) float64 { return c - Eps*(1+c) }

package text

// This file implements the weighted Jaccard similarity of Definition 2, the
// only textual similarity: the signature filters' prefix bounds hold for
// Jaccard alone. Both functions operate on ascending-sorted, de-duplicated
// TokenID slices and a weight table, and run in O(len(a)+len(b)).

// CommonWeight returns the weight sum of the intersection of the two sorted
// token sets: Σ_{t ∈ a∩b} w(t).
func CommonWeight(a, b []TokenID, w []float64) float64 {
	var sum float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			sum += w[a[i]]
			i++
			j++
		}
	}
	return sum
}

// WeightedJaccard returns Σ_{a∩b} w / Σ_{a∪b} w, taking precomputed total
// weights of each set (wa = Σ_a w, wb = Σ_b w) to avoid re-summation. When
// the union weight is non-positive the similarity is zero.
func WeightedJaccard(a, b []TokenID, w []float64, wa, wb float64) float64 {
	common := CommonWeight(a, b, w)
	union := wa + wb - common
	if union <= 0 {
		return 0
	}
	return common / union
}

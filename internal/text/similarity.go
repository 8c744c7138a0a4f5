package text

import "math"

// This file implements the weighted set-similarity functions of Definition 2
// and the overlap-based alternatives the paper mentions (Dice, Cosine). All
// functions operate on ascending-sorted, de-duplicated TokenID slices and a
// weight table, and run in O(len(a)+len(b)).

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

// WeightedDice returns 2·Σ_{a∩b} w / (Σ_a w + Σ_b w), or 0 when the total
// weight is non-positive.
func WeightedDice(a, b []TokenID, w []float64, wa, wb float64) float64 {
	if wa+wb <= 0 {
		return 0
	}
	return 2 * CommonWeight(a, b, w) / (wa + wb)
}

// WeightedCosine returns Σ_{a∩b} w / sqrt(Σ_a w · Σ_b w), treating each set
// as a binary weighted vector, or 0 when either total is non-positive.
func WeightedCosine(a, b []TokenID, w []float64, wa, wb float64) float64 {
	if wa <= 0 || wb <= 0 {
		return 0
	}
	return CommonWeight(a, b, w) / math.Sqrt(wa*wb)
}

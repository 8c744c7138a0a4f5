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
// the union weight is zero the similarity is zero.
func WeightedJaccard(a, b []TokenID, w []float64, wa, wb float64) float64 {
	return JaccardFromCommon(CommonWeight(a, b, w), wa, wb)
}

// WeightedDice returns 2·Σ_{a∩b} w / (Σ_a w + Σ_b w).
func WeightedDice(a, b []TokenID, w []float64, wa, wb float64) float64 {
	return DiceFromCommon(CommonWeight(a, b, w), wa, wb)
}

// WeightedCosine returns Σ_{a∩b} w / sqrt(Σ_a w · Σ_b w), treating each set
// as a binary weighted vector.
func WeightedCosine(a, b []TokenID, w []float64, wa, wb float64) float64 {
	return CosineFromCommon(CommonWeight(a, b, w), wa, wb)
}

// The FromCommon forms below are the single source of truth for turning an
// intersection weight into a similarity. The accumulate-then-verify fast
// path (model.Dataset.SimTAccum) reconstructs the common weight without a
// sorted merge and must land on bit-identical similarities, so it shares
// these exact operations with the Weighted* functions.

// JaccardFromCommon returns common / (wa + wb − common), or 0 when the union
// weight is non-positive.
func JaccardFromCommon(common, wa, wb float64) float64 {
	union := wa + wb - common
	if union <= 0 {
		return 0
	}
	return common / union
}

// DiceFromCommon returns 2·common / (wa + wb), or 0 when the total weight is
// non-positive.
func DiceFromCommon(common, wa, wb float64) float64 {
	if wa+wb <= 0 {
		return 0
	}
	return 2 * common / (wa + wb)
}

// CosineFromCommon returns common / sqrt(wa·wb), or 0 when either total is
// non-positive.
func CosineFromCommon(common, wa, wb float64) float64 {
	if wa <= 0 || wb <= 0 {
		return 0
	}
	return common / math.Sqrt(wa*wb)
}

// Contains reports whether sorted ascending set a contains t, by binary
// search. It is the membership probe of the accumulator fast path: cheaper
// than a merge when only a few residual tokens need checking.
func Contains(a []TokenID, t TokenID) bool {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == t
}

package core

import (
	"fmt"

	"github.com/sealdb/seal/internal/gridsig"
	"github.com/sealdb/seal/internal/model"
)

// This file implements grid granularity selection (Section 4.3): walk the
// grid tree level by level (level l ≡ a 2^l × 2^l uniform grid), estimate
// the expected query cost of each level against a query workload, and stop
// when the benefit of a further split B(l, l+1) = cost(l) − cost(l+1) drops
// below a threshold. Lemma 4 guarantees such a level exists. The filter term
// is measured by running Sig-Filter+ (the paper's worst case uses full list
// lengths; running the real filter gives the same shape with tighter
// constants), and the verification term is the measured candidate count, as
// the paper also resorts to for |C|.

// LevelCost reports the expected cost of one grid-tree level.
type LevelCost struct {
	Level         int
	P             int // 2^Level
	FilterTerm    float64
	AvgCandidates float64
	Cost          float64
}

// GranularityResult is the outcome of SelectGranularity.
type GranularityResult struct {
	// Level is the selected grid-tree level; P = 2^Level.
	Level  int
	P      int
	Levels []LevelCost // per-level costs up to the stopping point
}

// SelectGranularity picks the grid granularity minimizing expected query
// cost over the workload. maxLevel bounds the search (P = 2^maxLevel);
// benefit is the stopping threshold B > 0.
func SelectGranularity(ds *model.Dataset, workload []*model.Query, maxLevel int, benefit float64, cm gridsig.CostModel) (GranularityResult, error) {
	var res GranularityResult
	if len(workload) == 0 {
		return res, fmt.Errorf("core: granularity selection needs a non-empty workload")
	}
	if maxLevel < 0 {
		return res, fmt.Errorf("core: maxLevel %d must be non-negative", maxLevel)
	}
	if benefit <= 0 {
		return res, fmt.Errorf("core: benefit threshold %g must be positive", benefit)
	}
	prevCost := 0.0
	for level := 0; level <= maxLevel; level++ {
		lc, err := levelCost(ds, workload, level, cm)
		if err != nil {
			return res, err
		}
		res.Levels = append(res.Levels, lc)
		if level > 0 {
			b := prevCost - lc.Cost
			if b < benefit {
				// The previous level was the last one whose split paid off.
				res.Level = level - 1
				// Keep the better of the two: the final split may still have
				// improved the cost even when below the benefit bar.
				if lc.Cost < res.Levels[level-1].Cost {
					res.Level = level
				}
				res.P = 1 << res.Level
				return res, nil
			}
		}
		prevCost = lc.Cost
	}
	res.Level = maxLevel
	res.P = 1 << maxLevel
	return res, nil
}

// levelCost builds a GridFilter at 2^level granularity and measures the
// workload's expected filter and verification terms.
func levelCost(ds *model.Dataset, workload []*model.Query, level int, cm gridsig.CostModel) (LevelCost, error) {
	p := 1 << level
	f, err := NewGridFilter(ds, p)
	if err != nil {
		return LevelCost{}, err
	}
	cs := NewCandidateSet(ds.Len())
	var scr Scratch
	var postings, candidates int
	for _, q := range workload {
		var st FilterStats
		cs.Reset()
		f.Collect(q, cs, &st, nil, &scr)
		postings += st.PostingsScanned
		candidates += cs.Len()
	}
	n := float64(len(workload))
	lc := LevelCost{
		Level:         level,
		P:             p,
		FilterTerm:    float64(postings) / n,
		AvgCandidates: float64(candidates) / n,
	}
	lc.Cost = cm.Cost(lc.FilterTerm, lc.AvgCandidates)
	return lc, nil
}
